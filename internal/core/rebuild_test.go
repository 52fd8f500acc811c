package core

import (
	"bytes"
	"errors"
	"math/bits"
	"math/rand"
	"testing"

	"cdstore/internal/race"
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
// share index, from every k-subset of the others, a verified decode plus
// one RS row reproduces the share dispersal produced, Split(secret)[idx].
// Arena scratch and pool buffers are dirty throughout.
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

// TestRebuildDetectsCorruption flips every byte of every input share, in
// every k-subset — bytes that decode into the plaintext, into the zero
// padding and into the 32-byte tail — and requires ErrCorrupt, no share,
// and the pool untouched: a rebuild must never mint a share from an
// unverified package.
func TestRebuildDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, geom := range []struct{ n, k int }{{4, 3}, {4, 2}} {
		for _, salt := range [][]byte{nil, []byte("org")} {
			s, err := NewCAONTRSWithSalt(geom.n, geom.k, salt)
			if err != nil {
				t.Fatal(err)
			}
			pool := &secretshare.SharePool{}
			arena := secretshare.NewArenaWithPool(pool)
			for _, size := range []int{1, 31, 100, 257} {
				secret := make([]byte, size)
				rng.Read(secret)
				shares, err := s.Split(secret)
				if err != nil {
					t.Fatal(err)
				}
				kSubsets(shares, geom.k, func(mask uint, have map[int][]byte) {
					for i, sh := range have {
						for pos := range sh {
							sh[pos] ^= 1 << uint(pos%8)
							returned := poolProbe(pool, len(sh))
							got, err := s.RebuildInto(have, size, (i+1)%geom.n, arena)
							if !errors.Is(err, secretshare.ErrCorrupt) || got != nil {
								t.Fatalf("salt %q (%d,%d) size=%d subset=%b: flip at share %d byte %d: share=%v err=%v",
									salt, geom.n, geom.k, size, mask, i, pos, got != nil, err)
							}
							if !returned() {
								t.Fatalf("salt %q (%d,%d) size=%d: failed rebuild kept a pool buffer", salt, geom.n, geom.k, size)
							}
							sh[pos] ^= 1 << uint(pos%8)
						}
					}
				})
			}
		}
	}
}

// TestRebuildChecksEachInvariant isolates the checks a byte flip cannot
// reach one at a time (a flip anywhere scrambles the recovered key, so
// the first check always fires): each case hands RebuildInto a package
// that is internally consistent except for the one property named.
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
	expectCorrupt := func(name string, s *CAONTRS, have map[int][]byte, secretSize int) {
		t.Helper()
		returned := poolProbe(pool, s.ShareSize(secretSize))
		got, err := s.RebuildInto(have, secretSize, 0, arena)
		if !errors.Is(err, secretshare.ErrCorrupt) || got != nil {
			t.Errorf("%s: share=%v err=%v, want ErrCorrupt and no share", name, got != nil, err)
		}
		if !returned() {
			t.Errorf("%s: failed rebuild kept a pool buffer", name)
		}
	}

	// Zero padding (CAONT-RS): 99- and 100-byte secrets pad to the same
	// 100 bytes at k=3, so a 100-byte secret ending in a nonzero byte is a
	// hash-consistent package whose padding, read as a 99-byte secret's,
	// is not zero.
	caont, _ := NewCAONTRS(4, 3)
	secret := make([]byte, 100)
	rng.Read(secret)
	secret[99] = 0xA5
	shares, err := caont.Split(secret)
	if err != nil {
		t.Fatal(err)
	}
	expectCorrupt("CAONT-RS zero padding", caont, take(shares, 1, 2, 3), 99)

	// Malformed requests are refused with the matching error, not decoded.
	if shares, err = caont.Split(secret); err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{-1, 4} {
		if got, err := caont.RebuildInto(take(shares, 0, 1, 2), len(secret), idx, arena); !errors.Is(err, secretshare.ErrBadIndex) || got != nil {
			t.Errorf("idx %d: share=%v err=%v, want ErrBadIndex", idx, got != nil, err)
		}
	}
	if _, err := caont.RebuildInto(take(shares, 0, 1), len(secret), 2, arena); !errors.Is(err, secretshare.ErrTooFewShares) {
		t.Errorf("2 of k=3 shares: err=%v, want ErrTooFewShares", err)
	}
	if _, err := caont.RebuildInto(take(shares, 0, 1, 2), len(secret)+64, 3, arena); !errors.Is(err, secretshare.ErrShareSize) {
		t.Errorf("wrong secret size: err=%v, want ErrShareSize", err)
	}
}

// FuzzRebuildShare drives RebuildInto over arbitrary secrets, geometries,
// target indices, surviving subsets and single-byte tampering. Untampered,
// the rebuilt share must be the dispersed one; tampered, the call must
// fail with ErrCorrupt and return nothing.
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
		switch {
		case flipMask != 0:
			if !errors.Is(err, secretshare.ErrCorrupt) || got != nil {
				t.Fatalf("salt %q (%d,%d): tampered input rebuilt: share=%v err=%v", salt, geom.n, geom.k, got != nil, err)
			}
		case err != nil:
			t.Fatalf("salt %q (%d,%d): %v", salt, geom.n, geom.k, err)
		case !bytes.Equal(got, want):
			t.Fatalf("salt %q (%d,%d): rebuilt share %d differs from dispersal", salt, geom.n, geom.k, target)
		}
	})
}

// TestRebuildIntoAllocations holds the rebuild to the decode's floor:
// with a warmed arena and pool, RebuildInto may allocate no more than
// CombineInto does (TestCombineIntoAllocations — the per-key AES state),
// whether the survivors are the data shards or a parity-bearing subset
// and whether the target is a data row or a parity row. The plaintext
// lives in arena scratch and the share in a pooled buffer, so the extra
// RS row is free of allocations.
func TestRebuildIntoAllocations(t *testing.T) {
	if race.Enabled {
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
					rebuild() // warm: scratch, pool, HMAC state, inverse rows
				}
				if allocs := testing.AllocsPerRun(100, rebuild); allocs > 3 {
					t.Errorf("idx %d: RebuildInto allocates %.1f objects per secret, want <= 3", c.idx, allocs)
				}
			}
		})
	}
}
