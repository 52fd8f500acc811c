package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"cdstore/internal/race"
	"cdstore/internal/secretshare"
)

// TestSplitIntoMatchesSplit: a dirty arena reused across secrets and
// geometries gives, byte for byte, the shares the fresh arena behind
// Split does, salted or not, across sizes that exercise padding.
func TestSplitIntoMatchesSplit(t *testing.T) {
	caontrs, err := NewCAONTRS(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	salted, err := NewCAONTRSWithSalt(5, 3, []byte("org-salt"))
	if err != nil {
		t.Fatal(err)
	}
	schemes := []*CAONTRS{caontrs, salted}
	rng := rand.New(rand.NewSource(41))
	arena := secretshare.NewArena()
	for _, s := range schemes {
		for _, n := range []int{1, 31, 32, 100, 4096, 8192, 8193} {
			secret := make([]byte, n)
			rng.Read(secret)
			want, err := s.Split(secret)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.SplitInto(secret, arena)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s len=%d: %d shares, want %d", s.Name(), n, len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("%s len=%d share %d: arena path diverged", s.Name(), n, i)
				}
			}
			// The arena path must still round-trip.
			have := map[int][]byte{}
			for i := 0; i < s.K(); i++ {
				have[i] = got[i]
			}
			back, err := s.Combine(have, n)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back, secret) {
				t.Fatalf("%s len=%d: combine of arena shares failed", s.Name(), n)
			}
		}
	}
}

// TestSplitIntoPooledBuffers checks shares drawn from a pool are reused
// after recycling and stay correct.
func TestSplitIntoPooledBuffers(t *testing.T) {
	scheme, err := NewCAONTRS(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	pool := &secretshare.SharePool{}
	arena := secretshare.NewArenaWithPool(pool)
	secret := make([]byte, 4096)
	rand.New(rand.NewSource(42)).Read(secret)
	want, err := scheme.Split(secret)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		got, err := scheme.SplitInto(secret, arena)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("round %d share %d mismatch", round, i)
			}
		}
		for _, sh := range got {
			pool.Put(sh)
		}
	}
}

// TestCombineIntoMatchesCombine: a dirty arena reused across secrets and
// geometries decodes the secret the fresh arena behind Combine does,
// salted or not, across sizes that exercise padding and across k-subsets
// including degraded ones (parity shards in play).
func TestCombineIntoMatchesCombine(t *testing.T) {
	caontrs, err := NewCAONTRS(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	salted, err := NewCAONTRSWithSalt(5, 3, []byte("org-salt"))
	if err != nil {
		t.Fatal(err)
	}
	schemes := []*CAONTRS{caontrs, salted}
	rng := rand.New(rand.NewSource(44))
	arena := secretshare.NewArena()
	for _, s := range schemes {
		for _, n := range []int{1, 31, 32, 100, 4096, 8192, 8193} {
			secret := make([]byte, n)
			rng.Read(secret)
			shares, err := s.Split(secret)
			if err != nil {
				t.Fatal(err)
			}
			// All-data subset and a degraded subset leaning on parity.
			subsets := [][]int{{0, 1, 2}, {1, 2, 3}, {0, 2, 3}}
			for _, sub := range subsets {
				have := map[int][]byte{}
				for _, i := range sub {
					have[i] = shares[i]
				}
				want, err := s.Combine(have, n)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.CombineInto(have, n, arena)
				if err != nil {
					t.Fatalf("%s len=%d subset=%v: %v", s.Name(), n, sub, err)
				}
				if !bytes.Equal(got, want) || !bytes.Equal(got, secret) {
					t.Fatalf("%s len=%d subset=%v: arena decode diverged", s.Name(), n, sub)
				}
				// A nil arena allocates plainly.
				got2, err := s.CombineInto(have, n, nil)
				if err != nil || !bytes.Equal(got2, secret) {
					t.Fatalf("%s len=%d: nil-arena CombineInto failed: %v", s.Name(), n, err)
				}
			}
		}
	}
}

// TestCombineRejectsLikeCombineInto: Combine is CombineInto through a
// fresh arena, so both refuse the same malformed share maps with the same
// errors — in particular a share of a stray size beyond the k a decode
// would use, which the allocating Combine once let through.
func TestCombineRejectsLikeCombineInto(t *testing.T) {
	s, err := NewCAONTRS(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	secret := make([]byte, 1000)
	rand.New(rand.NewSource(47)).Read(secret)
	shares, err := s.Split(secret)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		have       map[int][]byte
		secretSize int
		want       error
	}{
		{"stray-size extra share", map[int][]byte{0: shares[0], 1: shares[1], 2: shares[2], 3: shares[3][:7]}, len(secret), secretshare.ErrShareSize},
		{"index out of range", map[int][]byte{0: shares[0], 1: shares[1], 2: shares[2], 4: shares[3]}, len(secret), secretshare.ErrBadIndex},
		{"negative index", map[int][]byte{-1: shares[0], 1: shares[1], 2: shares[2]}, len(secret), secretshare.ErrBadIndex},
		{"fewer than k", map[int][]byte{0: shares[0], 3: shares[3]}, len(secret), secretshare.ErrTooFewShares},
		{"wrong secretSize", map[int][]byte{0: shares[0], 1: shares[1], 2: shares[2]}, len(secret) + 64, secretshare.ErrShareSize},
		{"empty share", map[int][]byte{0: shares[0], 1: {}, 2: shares[2]}, len(secret), secretshare.ErrShareSize},
	} {
		_, errC := s.Combine(tc.have, tc.secretSize)
		_, errI := s.CombineInto(tc.have, tc.secretSize, secretshare.NewArena())
		if !errors.Is(errC, tc.want) || !errors.Is(errI, tc.want) {
			t.Errorf("%s: Combine returned %v, CombineInto %v, want %v from both",
				tc.name, errC, errI, tc.want)
		}
	}
}

// TestCombineIntoDetectsCorruption checks the arena decode surfaces
// ErrCorrupt on tampered shares — the signal decodeWithRetry keys its
// brute-force subset search on — and that a pooled result buffer is
// recycled rather than leaked on that path.
func TestCombineIntoDetectsCorruption(t *testing.T) {
	for _, salt := range [][]byte{nil, []byte("org")} {
		s, err := NewCAONTRSWithSalt(4, 3, salt)
		if err != nil {
			t.Fatal(err)
		}
		pool := &secretshare.SharePool{}
		arena := secretshare.NewArenaWithPool(pool)
		secret := make([]byte, 5000)
		rand.New(rand.NewSource(45)).Read(secret)
		shares, err := s.Split(secret)
		if err != nil {
			t.Fatal(err)
		}
		shares[1][7] ^= 0x40
		have := map[int][]byte{0: shares[0], 1: shares[1], 2: shares[2]}
		if _, err := s.CombineInto(have, len(secret), arena); !errors.Is(err, secretshare.ErrCorrupt) {
			t.Fatalf("%s: tampered share decoded: err=%v", s.Name(), err)
		}
		// The buffer drawn for the failed decode must be back in the pool:
		// a clean decode right after must not grow it.
		shares[1][7] ^= 0x40
		got, err := s.CombineInto(have, len(secret), arena)
		if err != nil || !bytes.Equal(got, secret) {
			t.Fatalf("%s: clean decode after corrupt one failed: %v", s.Name(), err)
		}
	}
}

// TestSplitIntoAllocations is the steady-state allocation regression
// test: with a warmed arena and share pool, the per-secret encode path
// (pad -> hash -> CAONT -> RS split -> RS encode) must stay at 3
// allocations. The irreducible remainder is the per-key AES state — the
// key schedule plus the stdlib CTR stream — which cannot be cached
// because the key is the content hash, and which is deliberately not
// hand-rolled away: an Encrypt-per-block CTR through the cipher.Block
// interface would hit 2 allocations but measured 8.6x slower than the
// pipelined AES-NI assembly behind cipher.NewCTR (see
// aont.PackageOAEPInto).
// Everything else in the pipeline — package scratch, hash states, share
// buffers, shard headers — is reused.
func TestSplitIntoAllocations(t *testing.T) {
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
			pool := &secretshare.SharePool{}
			arena := secretshare.NewArenaWithPool(pool)
			secret := make([]byte, 8192)
			rand.New(rand.NewSource(43)).Read(secret)
			recycle := func(shares [][]byte) {
				for _, sh := range shares {
					pool.Put(sh)
				}
			}
			// Warm up: grows the scratch, fills the pool, caches the HMAC
			// state.
			for i := 0; i < 4; i++ {
				shares, err := scheme.SplitInto(secret, arena)
				if err != nil {
					t.Fatal(err)
				}
				recycle(shares)
			}
			allocs := testing.AllocsPerRun(100, func() {
				shares, err := scheme.SplitInto(secret, arena)
				if err != nil {
					t.Fatal(err)
				}
				recycle(shares)
			})
			if allocs > 3 { // AES key schedule + stdlib CTR stream
				t.Errorf("SplitInto allocates %.1f objects per secret, want <= 3", allocs)
			}
		})
	}
}

// TestCombineIntoAllocations is the decode twin of
// TestSplitIntoAllocations: with a warmed arena and share pool, the
// per-secret decode path (validate -> RS reconstruct -> un-AONT ->
// convergent integrity check) must stay at the same budget as encode. The irreducible remainder is again the per-key AES state — the
// key here is recovered from the package, so it cannot be cached either.
// Both the all-data fast path and a degraded (parity-bearing) subset are
// pinned; the degraded path relies on the codec's cached inverse rows.
func TestCombineIntoAllocations(t *testing.T) {
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
			rand.New(rand.NewSource(46)).Read(secret)
			shares, err := scheme.Split(secret)
			if err != nil {
				t.Fatal(err)
			}
			for name, have := range map[string]map[int][]byte{
				"fast-path": {0: shares[0], 1: shares[1], 2: shares[2]},
				"degraded":  {0: shares[0], 2: shares[2], 3: shares[3]},
			} {
				pool := &secretshare.SharePool{}
				arena := secretshare.NewArenaWithPool(pool)
				// Warm up: grows the scratch, fills the pool, caches the
				// HMAC state and the degraded subset's inverse rows.
				for i := 0; i < 4; i++ {
					out, err := scheme.CombineInto(have, len(secret), arena)
					if err != nil {
						t.Fatal(err)
					}
					pool.Put(out)
				}
				allocs := testing.AllocsPerRun(100, func() {
					out, err := scheme.CombineInto(have, len(secret), arena)
					if err != nil {
						t.Fatal(err)
					}
					pool.Put(out)
				})
				if allocs > 3 { // AES key schedule + stdlib CTR stream, as for SplitInto
					t.Errorf("%s: CombineInto allocates %.1f objects per secret, want <= 3", name, allocs)
				}
			}
		})
	}
}
