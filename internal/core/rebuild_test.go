package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"cdstore/internal/secretshare"
)

// kSubsets calls fn with every k-subset of shares as a share map.
func kSubsets(shares [][]byte, k int, fn func(mask uint, have map[int][]byte)) {
	for mask := uint(0); mask < 1<<len(shares); mask++ {
		if bits.OnesCount(mask) != k {
			continue
		}
		have := make(map[int][]byte, k)
		for i := range shares {
			if mask&(1<<i) != 0 {
				have[i] = shares[i]
			}
		}
		fn(mask, have)
	}
}

// TestRebuildMatchesSplit is the equivalence repair rests on: for every
// share index, from every k-subset of the shares, one RS row reproduces
// the share dispersal produced, Split(secret)[idx]. Pool buffers are
// dirty throughout.
func TestRebuildMatchesSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, geom := range []struct{ n, k int }{{4, 3}, {4, 2}, {5, 3}} {
		for _, salt := range [][]byte{nil, []byte("org-salt")} {
			s, err := NewCAONTRSWithSalt(geom.n, geom.k, salt)
			if err != nil {
				t.Fatal(err)
			}
			pool := &secretshare.SharePool{}
			arena := secretshare.NewArenaWithPool(pool)
			for _, size := range []int{1, 31, 32, 100, 4096, 8192, 8193, 16000} {
				secret := make([]byte, size)
				rng.Read(secret)
				orig, err := s.Split(secret)
				if err != nil {
					t.Fatal(err)
				}
				// Deterministic: a second dispersal is the reference.
				want, err := s.Split(secret)
				if err != nil {
					t.Fatal(err)
				}
				kSubsets(orig, geom.k, func(mask uint, have map[int][]byte) {
					for idx := 0; idx < geom.n; idx++ {
						got, err := s.RebuildInto(have, size, idx, arena)
						if err != nil {
							t.Fatalf("%s (%d,%d) salt=%q size=%d subset=%b idx=%d: %v",
								s.Name(), geom.n, geom.k, salt, size, mask, idx, err)
						}
						if !bytes.Equal(got, want[idx]) {
							t.Fatalf("%s (%d,%d) salt=%q size=%d subset=%b: rebuilt share %d differs from dispersal",
								s.Name(), geom.n, geom.k, salt, size, mask, idx)
						}
						rng.Read(got) // dirty the buffer the pool hands out next
						pool.Put(got)
					}
				})
			}
			// A nil arena allocates plainly and agrees.
			secret := []byte("nil arena rebuild")
			shares, err := s.Split(secret)
			if err != nil {
				t.Fatal(err)
			}
			have := map[int][]byte{}
			for i := geom.n - geom.k; i < geom.n; i++ {
				have[i] = shares[i]
			}
			got, err := s.RebuildInto(have, len(secret), 0, nil)
			if err != nil || !bytes.Equal(got, shares[0]) {
				t.Fatalf("%s (%d,%d): nil-arena rebuild of share 0: err=%v", s.Name(), geom.n, geom.k, err)
			}
		}
	}
}

// poolProbe parks one marked buffer in pool; returned reports whether it
// is what the pool hands out next — i.e. that whatever ran in between
// left the pool as it found it.
func poolProbe(pool *secretshare.SharePool, size int) (returned func() bool) {
	marker := pool.Get(size)
	pool.Put(marker)
	return func() bool {
		got := pool.Get(size)
		return &got[0] == &marker[0]
	}
}

// TestRebuildChecksEachInvariant: the one-row rebuild decodes nothing,
// so the invariants it checks are those of its request — the target
// index, at least k shares, every share of the secret's share size — and
// a refused request returns no share and keeps no pool buffer. Whether
// the shares are the backup's is the caller's check (the repair engine's
// recipe fingerprints; its tests hold the tampered inputs this file used
// to, TestRebuildDetectsCorruption and the misstated secret size of
// TestRepairOfMisstatedSecretSizeWritesTheStoredShare).
func TestRebuildChecksEachInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	take := func(shares [][]byte, idxs ...int) map[int][]byte {
		have := map[int][]byte{}
		for _, i := range idxs {
			have[i] = shares[i]
		}
		return have
	}
	pool := &secretshare.SharePool{}
	arena := secretshare.NewArenaWithPool(pool)
	caont, _ := NewCAONTRS(4, 3)
	secret := make([]byte, 100)
	rng.Read(secret)
	shares, err := caont.Split(secret)
	if err != nil {
		t.Fatal(err)
	}
	refused := func(name string, have map[int][]byte, secretSize, idx int, want error) {
		t.Helper()
		returned := poolProbe(pool, caont.ShareSize(len(secret)))
		if got, err := caont.RebuildInto(have, secretSize, idx, arena); !errors.Is(err, want) || got != nil {
			t.Errorf("%s: share=%v err=%v, want %v and no share", name, got != nil, err, want)
		}
		if !returned() {
			t.Errorf("%s: refused rebuild kept a pool buffer", name)
		}
	}
	for _, idx := range []int{-1, 4} {
		refused(fmt.Sprintf("idx %d", idx), take(shares, 0, 1, 2), len(secret), idx, secretshare.ErrBadIndex)
	}
	refused("2 of k=3 shares", take(shares, 0, 1), len(secret), 2, secretshare.ErrTooFewShares)
	refused("wrong secret size", take(shares, 0, 1, 2), len(secret)+64, 3, secretshare.ErrShareSize)
	short := take(shares, 0, 1, 2)
	short[3] = shares[3][:10]
	refused("a fourth share of another size", short, len(secret), 3, secretshare.ErrShareSize)
}

// FuzzRebuildShare drives the one-row RebuildInto over arbitrary secrets,
// geometries, target indices, surviving subsets and single-byte tampering.
// Untampered, the rebuilt share must be the dispersed one. Tampered, it
// is what the code makes of the flip: a copy of the target's own share
// when the survivors hold it, and otherwise never the dispersed share —
// every coefficient of a row outside the subset is nonzero (any k rows of
// the code are independent), so a flip anywhere in the survivors reaches
// the row. Refusing the flip before the row is built is the repair
// engine's recipe-fingerprint check (FuzzRepairRefusesTamperedShare).
func FuzzRebuildShare(f *testing.F) {
	f.Add([]byte{0}, uint8(0), uint8(0), uint8(0), uint16(0), uint8(0))
	f.Add([]byte("convergent dispersal"), uint8(1), uint8(3), uint8(2), uint16(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0}, 31), uint8(2), uint8(4), uint8(7), uint16(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0xFF}, 100), uint8(3), uint8(1), uint8(1), uint16(40), uint8(0x80))
	f.Add(bytes.Repeat([]byte{0x5A}, 4096), uint8(4), uint8(2), uint8(3), uint16(1400), uint8(1))
	f.Add(bytes.Repeat([]byte{7}, 8193), uint8(8), uint8(0), uint8(5), uint16(65535), uint8(0x10))
	f.Add([]byte{1, 2, 3}, uint8(5), uint8(2), uint8(0), uint16(21), uint8(0xFF))

	geoms := []struct{ n, k int }{{4, 3}, {4, 2}, {5, 3}}
	f.Fuzz(func(t *testing.T, secret []byte, pick, idx, subset uint8, flipAt uint16, flipMask uint8) {
		if len(secret) == 0 || len(secret) > 1<<16 {
			t.Skip()
		}
		geom := geoms[int(pick/3)%len(geoms)]
		salt := [][]byte{nil, []byte("org")}[pick%2]
		s, err := NewCAONTRSWithSalt(geom.n, geom.k, salt)
		if err != nil {
			t.Fatal(err)
		}
		shares, err := s.Split(secret)
		if err != nil {
			t.Fatal(err)
		}
		// The subset-th k-subset, counting masks in ascending order.
		var subsets []map[int][]byte
		kSubsets(shares, geom.k, func(_ uint, h map[int][]byte) { subsets = append(subsets, h) })
		have := subsets[int(subset)%len(subsets)]
		target := int(idx) % geom.n
		want := append([]byte(nil), shares[target]...)
		if flipMask != 0 {
			// Tamper one byte of one surviving share.
			pos := int(flipAt) % (geom.k * len(shares[0]))
			n := 0
			for i := 0; i < geom.n; i++ {
				if _, ok := have[i]; !ok {
					continue
				}
				if n == pos/len(shares[0]) {
					have[i][pos%len(shares[0])] ^= flipMask
				}
				n++
			}
		}
		pool := &secretshare.SharePool{}
		got, err := s.RebuildInto(have, len(secret), target, secretshare.NewArenaWithPool(pool))
		if err != nil {
			t.Fatalf("salt %q (%d,%d): %v", salt, geom.n, geom.k, err)
		}
		_, held := have[target]
		switch {
		case held && !bytes.Equal(got, have[target]):
			t.Fatalf("salt %q (%d,%d): rebuilt share %d is not a copy of the survivor's", salt, geom.n, geom.k, target)
		case flipMask == 0 && !bytes.Equal(got, want):
			t.Fatalf("salt %q (%d,%d): rebuilt share %d differs from dispersal", salt, geom.n, geom.k, target)
		case flipMask != 0 && !held && bytes.Equal(got, want):
			t.Fatalf("salt %q (%d,%d): a flipped survivor rebuilt the dispersed share %d", salt, geom.n, geom.k, target)
		}
	})
}

// TestRebuildIntoAllocations: with a warmed pool and the codec's
// (subset, row) coefficients cached, RebuildInto allocates nothing,
// whether the survivors are the data shards or a parity-bearing subset
// and whether the target is a data row or a parity row. Nothing is
// decoded, so there is no per-key AES state to pay for, and the share is
// a pooled buffer.
func TestRebuildIntoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts skipped under the race detector (sync.Pool drops Puts)")
	}
	for _, tc := range []struct {
		name string
		salt []byte
	}{
		{"unsalted", nil},
		{"salted", []byte("org")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scheme, err := NewCAONTRSWithSalt(4, 3, tc.salt)
			if err != nil {
				t.Fatal(err)
			}
			secret := make([]byte, 8192)
			rand.New(rand.NewSource(64)).Read(secret)
			shares, err := scheme.Split(secret)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				have map[int][]byte
				idx  int
			}{
				{map[int][]byte{0: shares[0], 1: shares[1], 2: shares[2]}, 3}, // parity row from data
				{map[int][]byte{1: shares[1], 2: shares[2], 3: shares[3]}, 0}, // data row, degraded
				{map[int][]byte{0: shares[0], 1: shares[1], 3: shares[3]}, 2},
			} {
				pool := &secretshare.SharePool{}
				arena := secretshare.NewArenaWithPool(pool)
				rebuild := func() {
					out, err := scheme.RebuildInto(c.have, len(secret), c.idx, arena)
					if err != nil {
						t.Fatal(err)
					}
					pool.Put(out)
				}
				for i := 0; i < 4; i++ {
					rebuild() // warm: pool, coefficients
				}
				if allocs := testing.AllocsPerRun(100, rebuild); allocs > 0 {
					t.Errorf("idx %d: RebuildInto allocates %.1f objects per secret, want 0", c.idx, allocs)
				}
			}
		})
	}
}

// BenchmarkRepairRebuild is what one repaired secret costs a decode
// worker at (4,3) on 8 KiB secrets, with cloud 0 lost and its share
// rebuilt from the other three. verify-by-decode checks the shares the
// way repair did before recipes carried a version — CombineInto's RS
// reconstruct, OAEP unpack and plaintext hash — and then builds the
// row; verify-by-fingerprint is repair's way now: the k share
// fingerprints the engine compares with the recipes, then the row.
func BenchmarkRepairRebuild(b *testing.B) {
	scheme, err := NewCAONTRS(4, 3)
	if err != nil {
		b.Fatal(err)
	}
	secret := make([]byte, 8192)
	rand.New(rand.NewSource(65)).Read(secret)
	shares, err := scheme.Split(secret)
	if err != nil {
		b.Fatal(err)
	}
	have := map[int][]byte{1: shares[1], 2: shares[2], 3: shares[3]}
	pool := &secretshare.SharePool{}
	arena := secretshare.NewArenaWithPool(pool)
	rebuild := func(b *testing.B) {
		share, err := scheme.RebuildInto(have, len(secret), 0, arena)
		if err != nil || !bytes.Equal(share, shares[0]) {
			b.Fatalf("rebuilt share 0: %v", err)
		}
		pool.Put(share)
	}
	b.Run("verify-by-decode", func(b *testing.B) {
		b.SetBytes(int64(len(secret)))
		for i := 0; i < b.N; i++ {
			plain, err := scheme.CombineInto(have, len(secret), arena)
			if err != nil {
				b.Fatal(err)
			}
			pool.Put(plain)
			rebuild(b)
		}
	})
	b.Run("verify-by-fingerprint", func(b *testing.B) {
		b.SetBytes(int64(len(secret)))
		want := map[int][32]byte{}
		for i, sh := range have {
			want[i] = sha256.Sum256(sh)
		}
		for i := 0; i < b.N; i++ {
			for i, sh := range have {
				if sha256.Sum256(sh) != want[i] {
					b.Fatalf("share %d does not match its fingerprint", i)
				}
			}
			rebuild(b)
		}
	})
}
