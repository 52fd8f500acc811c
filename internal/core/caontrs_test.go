package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"cdstore/internal/secretshare"
)

// convergentSchemes returns CAONT-RS at (n, k), unsalted and salted.
func convergentSchemes(t testing.TB, n, k int) []*CAONTRS {
	t.Helper()
	plain, err := NewCAONTRS(n, k)
	if err != nil {
		t.Fatal(err)
	}
	salted, err := NewCAONTRSWithSalt(n, k, []byte("org"))
	if err != nil {
		t.Fatal(err)
	}
	return []*CAONTRS{plain, salted}
}

func TestConvergentDeterminism(t *testing.T) {
	// The property that enables deduplication: identical secrets yield
	// identical shares — across scheme instances, as different users would
	// construct them.
	secret := []byte("the exact same backup chunk uploaded by two different users")
	for _, salt := range [][]byte{nil, []byte("org")} {
		s1, err := NewCAONTRSWithSalt(4, 3, salt)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := NewCAONTRSWithSalt(4, 3, salt)
		if err != nil {
			t.Fatal(err)
		}
		a, err := s1.Split(secret)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s2.Split(secret)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("salt %q: share %d differs across users; dedup impossible", salt, i)
			}
		}
	}
}

func TestConvergentDistinctSecretsDistinctShares(t *testing.T) {
	for _, s := range convergentSchemes(t, 4, 3) {
		a, err := s.Split([]byte("content A ..... padding padding!"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Split([]byte("content B ..... padding padding!"))
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if bytes.Equal(a[i], b[i]) {
				t.Fatalf("salt %q: different secrets share %d collide", s.hasher.salt, i)
			}
		}
	}
}

func TestConvergentRoundTripAllSubsets(t *testing.T) {
	const n, k = 5, 3
	rng := rand.New(rand.NewSource(31))
	secret := make([]byte, 777)
	rng.Read(secret)
	for _, s := range convergentSchemes(t, n, k) {
		shares, err := s.Split(secret)
		if err != nil {
			t.Fatal(err)
		}
		want := s.ShareSize(len(secret))
		for i, sh := range shares {
			if len(sh) != want {
				t.Fatalf("salt %q share %d: %d bytes, want %d", s.hasher.salt, i, len(sh), want)
			}
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				for c := b + 1; c < n; c++ {
					got, err := s.Combine(map[int][]byte{a: shares[a], b: shares[b], c: shares[c]}, len(secret))
					if err != nil {
						t.Fatalf("salt %q {%d,%d,%d}: %v", s.hasher.salt, a, b, c, err)
					}
					if !bytes.Equal(got, secret) {
						t.Fatalf("salt %q {%d,%d,%d}: mismatch", s.hasher.salt, a, b, c)
					}
				}
			}
		}
	}
}

func TestConvergentIntegrityCheckCatchesCorruption(t *testing.T) {
	secret := make([]byte, 1024)
	rand.New(rand.NewSource(32)).Read(secret)
	for _, s := range convergentSchemes(t, 4, 3) {
		shares, err := s.Split(secret)
		if err != nil {
			t.Fatal(err)
		}
		shares[0][10] ^= 0x01
		_, err = s.Combine(map[int][]byte{0: shares[0], 1: shares[1], 2: shares[2]}, len(secret))
		if err == nil {
			t.Fatalf("salt %q: corrupted share 0 went undetected", s.hasher.salt)
		}
		// Brute-force recovery (§3.2): a different k-subset avoiding the
		// corrupted share must still decode.
		got, err := s.Combine(map[int][]byte{1: shares[1], 2: shares[2], 3: shares[3]}, len(secret))
		if err != nil {
			t.Fatalf("salt %q: clean subset failed: %v", s.hasher.salt, err)
		}
		if !bytes.Equal(got, secret) {
			t.Fatalf("salt %q: clean subset mismatch", s.hasher.salt)
		}
	}
}

func TestSaltChangesSharesButPreservesDedupWithinSalt(t *testing.T) {
	secret := []byte("organization-shared chunk data for salted dispersal tests")
	s1, err := NewCAONTRSWithSalt(4, 3, []byte("org-A"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewCAONTRSWithSalt(4, 3, []byte("org-A"))
	if err != nil {
		t.Fatal(err)
	}
	s3, err := NewCAONTRSWithSalt(4, 3, []byte("org-B"))
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s1.Split(secret)
	b, _ := s2.Split(secret)
	c, _ := s3.Split(secret)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatal("same salt must produce identical shares (intra-org dedup)")
		}
		if bytes.Equal(a[i], c[i]) {
			t.Fatal("different salts must produce different shares (cross-org isolation)")
		}
	}
	// Salted shares still decode.
	got, err := s2.Combine(map[int][]byte{0: a[0], 2: a[2], 3: a[3]}, len(secret))
	if err != nil || !bytes.Equal(got, secret) {
		t.Fatalf("salted combine failed: %v", err)
	}
}

func TestCAONTRSPackageDividesEvenly(t *testing.T) {
	// For arbitrary secret sizes the padded package must divide into k
	// equal shares exactly.
	for _, k := range []int{2, 3, 5, 7} {
		s, err := NewCAONTRS(k+2, k)
		if err != nil {
			t.Fatal(err)
		}
		for size := 1; size < 200; size++ {
			padded := s.paddedSecretSize(size)
			if padded < size {
				t.Fatalf("k=%d size=%d: padded %d < size", k, size, padded)
			}
			if (padded+HashSize)%k != 0 {
				t.Fatalf("k=%d size=%d: package %d not divisible by k", k, size, padded+HashSize)
			}
			if padded-size >= k {
				t.Fatalf("k=%d size=%d: padding %d wastes more than k-1 bytes", k, size, padded-size)
			}
		}
	}
}

func TestConvergentPropertyRoundTrip(t *testing.T) {
	for _, s := range convergentSchemes(t, 4, 2) {
		err := quick.Check(func(data []byte) bool {
			if len(data) == 0 {
				return true
			}
			shares, err := s.Split(data)
			if err != nil {
				return false
			}
			got, err := s.Combine(map[int][]byte{1: shares[1], 3: shares[3]}, len(data))
			if err != nil {
				return false
			}
			return bytes.Equal(got, data)
		}, &quick.Config{MaxCount: 120})
		if err != nil {
			t.Fatalf("salt %q: %v", s.hasher.salt, err)
		}
	}
}

func TestConvergentSchemeMetadata(t *testing.T) {
	s, _ := NewCAONTRS(6, 4)
	if s.Name() != "CAONT-RS" {
		t.Fatalf("unexpected name %q", s.Name())
	}
	if s.N() != 6 || s.K() != 4 || s.R() != 3 {
		t.Fatalf("bad (n,k,r) = (%d,%d,%d)", s.N(), s.K(), s.R())
	}
}

func TestConvergentStorageBlowupNearNOverK(t *testing.T) {
	// CAONT-RS keeps AONT-RS's blowup: n/k + (n/k)*Skey/Ssec.
	s, _ := NewCAONTRS(4, 3)
	got := float64(s.N()*s.ShareSize(8192)) / 8192
	want := 4.0/3.0*(1.0+32.0/8192.0) + 0.001
	if got > want+0.01 || got < 4.0/3.0 {
		t.Fatalf("CAONT-RS blowup %.4f outside [n/k, %.4f]", got, want)
	}
}

func TestConvergentEmptySecretRejected(t *testing.T) {
	for _, s := range convergentSchemes(t, 4, 3) {
		if _, err := s.Split(nil); err != secretshare.ErrEmptySecret {
			t.Fatalf("salt %q: want ErrEmptySecret, got %v", s.hasher.salt, err)
		}
	}
}

func TestConvergentTooFewShares(t *testing.T) {
	secret := []byte("0123456789abcdefghijklmnopqrstuv")
	for _, s := range convergentSchemes(t, 4, 3) {
		shares, _ := s.Split(secret)
		if _, err := s.Combine(map[int][]byte{0: shares[0]}, len(secret)); err != secretshare.ErrTooFewShares {
			t.Fatalf("salt %q: want ErrTooFewShares, got %v", s.hasher.salt, err)
		}
	}
}

func BenchmarkCAONTRSSplit8KB(b *testing.B) {
	s, _ := NewCAONTRS(4, 3)
	data := make([]byte, 8192)
	rand.New(rand.NewSource(40)).Read(data)
	b.SetBytes(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Split(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCAONTRSCombine8KB(b *testing.B) {
	s, _ := NewCAONTRS(4, 3)
	data := make([]byte, 8192)
	rand.New(rand.NewSource(42)).Read(data)
	shares, err := s.Split(data)
	if err != nil {
		b.Fatal(err)
	}
	sub := map[int][]byte{1: shares[1], 2: shares[2], 3: shares[3]}
	b.SetBytes(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Combine(sub, len(data)); err != nil {
			b.Fatal(err)
		}
	}
}
