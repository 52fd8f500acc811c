package bench

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cdstore/internal/secretshare"
)

// allSchemes returns one instance of every baseline scheme at (n, k):
// the five of Table 1 and CAONT-RS-Rivest.
func allSchemes(t testing.TB, n, k int) []Scheme {
	t.Helper()
	ssss, err := NewSSSS(n, k)
	if err != nil {
		t.Fatal(err)
	}
	ida, err := NewIDA(n, k)
	if err != nil {
		t.Fatal(err)
	}
	rsss, err := NewRSSS(n, k, (k-1)/2)
	if err != nil {
		t.Fatal(err)
	}
	ssms, err := NewSSMS(n, k)
	if err != nil {
		t.Fatal(err)
	}
	aontrs, err := NewAONTRS(n, k)
	if err != nil {
		t.Fatal(err)
	}
	rivest, err := NewCAONTRSRivest(n, k)
	if err != nil {
		t.Fatal(err)
	}
	return []Scheme{ssss, ida, rsss, ssms, aontrs, rivest}
}

func TestAllSchemesRoundTripAllSubsets(t *testing.T) {
	const n, k = 5, 3
	rng := rand.New(rand.NewSource(21))
	secret := make([]byte, 1000)
	rng.Read(secret)
	for _, s := range allSchemes(t, n, k) {
		shares, err := s.Split(secret)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(shares) != n {
			t.Fatalf("%s: %d shares, want %d", s.Name(), len(shares), n)
		}
		want := s.ShareSize(len(secret))
		for i, sh := range shares {
			if len(sh) != want {
				t.Fatalf("%s: share %d is %d bytes, ShareSize says %d", s.Name(), i, len(sh), want)
			}
		}
		// Every k-subset must reconstruct.
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				for c := b + 1; c < n; c++ {
					sub := map[int][]byte{a: shares[a], b: shares[b], c: shares[c]}
					got, err := s.Combine(sub, len(secret))
					if err != nil {
						t.Fatalf("%s subset {%d,%d,%d}: %v", s.Name(), a, b, c, err)
					}
					if !bytes.Equal(got, secret) {
						t.Fatalf("%s subset {%d,%d,%d}: secret mismatch", s.Name(), a, b, c)
					}
				}
			}
		}
	}
}

func TestAllSchemesRejectTooFewShares(t *testing.T) {
	secret := []byte("0123456789abcdef0123456789abcdef")
	for _, s := range allSchemes(t, 4, 3) {
		shares, err := s.Split(secret)
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Combine(map[int][]byte{0: shares[0], 1: shares[1]}, len(secret))
		if err != secretshare.ErrTooFewShares {
			t.Fatalf("%s: want ErrTooFewShares, got %v", s.Name(), err)
		}
	}
}

func TestAllSchemesRejectEmptySecret(t *testing.T) {
	for _, s := range allSchemes(t, 4, 3) {
		if _, err := s.Split(nil); err != secretshare.ErrEmptySecret {
			t.Fatalf("%s: want ErrEmptySecret, got %v", s.Name(), err)
		}
	}
}

func TestAllSchemesRejectBadIndex(t *testing.T) {
	secret := []byte("some secret content here....1234")
	for _, s := range allSchemes(t, 4, 3) {
		shares, err := s.Split(secret)
		if err != nil {
			t.Fatal(err)
		}
		bad := map[int][]byte{0: shares[0], 1: shares[1], 17: shares[2]}
		if _, err := s.Combine(bad, len(secret)); err == nil {
			t.Fatalf("%s: out-of-range index accepted", s.Name())
		}
	}
}

func TestAllSchemesRandomized(t *testing.T) {
	// The Table 1 schemes embed randomness: two Splits of the same secret
	// must differ (this is exactly why they cannot deduplicate).
	secret := make([]byte, 256)
	rand.New(rand.NewSource(5)).Read(secret)
	for _, s := range allSchemes(t, 4, 3) {
		if s.Name() == "IDA" || s.Name() == "CAONT-RS-Rivest" {
			continue // IDA is deterministic (and offers no confidentiality); CAONT-RS-Rivest is convergent
		}
		a, err := s.Split(secret)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Split(secret)
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%s: two splits of the same secret are identical; randomness missing", s.Name())
		}
	}
}

func TestIDADeterministic(t *testing.T) {
	ida, _ := NewIDA(4, 3)
	secret := []byte("deterministic dispersal input!!!")
	a, _ := ida.Split(secret)
	b, _ := ida.Split(secret)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatal("IDA must be deterministic")
		}
	}
}

func TestStorageBlowupMatchesTable1(t *testing.T) {
	// Table 1 with n=4, k=3, Ssec=8KB, Skey=32B.
	const n, k, ssec, skey = 4, 3, 8192, 32
	cases := []struct {
		scheme Scheme
		want   float64
		slack  float64
	}{}
	ssss, _ := NewSSSS(n, k)
	ida, _ := NewIDA(n, k)
	rsss1, _ := NewRSSS(n, k, 1)
	ssms, _ := NewSSMS(n, k)
	aontrs, _ := NewAONTRS(n, k)
	cases = append(cases,
		struct {
			scheme Scheme
			want   float64
			slack  float64
		}{ssss, float64(n), 0.001},
		struct {
			scheme Scheme
			want   float64
			slack  float64
		}{ida, float64(n) / k, 0.001},
		struct {
			scheme Scheme
			want   float64
			slack  float64
		}{rsss1, float64(n) / (k - 1), 0.001},
		struct {
			scheme Scheme
			want   float64
			slack  float64
		}{ssms, float64(n)/k + float64(n*skey)/ssec, 0.001},
		struct {
			scheme Scheme
			want   float64
			slack  float64
		}{aontrs, float64(n)/k + float64(n)/k*float64(skey)/ssec, 0.01},
	)
	for _, c := range cases {
		got := StorageBlowup(c.scheme, ssec)
		if math.Abs(got-c.want) > c.want*c.slack+0.01 {
			t.Errorf("%s: blowup %.4f, Table 1 predicts %.4f", c.scheme.Name(), got, c.want)
		}
	}
}

func TestConfidentialityDegrees(t *testing.T) {
	// Table 1's r column.
	const n, k = 6, 4
	ssss, _ := NewSSSS(n, k)
	ida, _ := NewIDA(n, k)
	rsss2, _ := NewRSSS(n, k, 2)
	ssms, _ := NewSSMS(n, k)
	aontrs, _ := NewAONTRS(n, k)
	if ssss.R() != k-1 {
		t.Errorf("SSSS r=%d want %d", ssss.R(), k-1)
	}
	if ida.R() != 0 {
		t.Errorf("IDA r=%d want 0", ida.R())
	}
	if rsss2.R() != 2 {
		t.Errorf("RSSS r=%d want 2", rsss2.R())
	}
	if ssms.R() != k-1 {
		t.Errorf("SSMS r=%d want %d", ssms.R(), k-1)
	}
	if aontrs.R() != k-1 {
		t.Errorf("AONT-RS r=%d want %d", aontrs.R(), k-1)
	}
}

func TestSSSSPerfectSecrecySmoke(t *testing.T) {
	// With k-1 shares fixed, varying the secret must still be consistent:
	// we can't prove perfect secrecy in a unit test, but we can check the
	// share distribution isn't trivially leaking (no share equals secret).
	ssss, _ := NewSSSS(4, 3)
	secret := bytes.Repeat([]byte{0xAA}, 64)
	shares, err := ssss.Split(secret)
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range shares {
		if bytes.Equal(sh, secret) {
			t.Fatalf("share %d equals the secret", i)
		}
	}
}

func TestRSSSParamValidation(t *testing.T) {
	if _, err := NewRSSS(4, 3, 3); err == nil {
		t.Fatal("r == k should fail")
	}
	if _, err := NewRSSS(4, 3, -1); err == nil {
		t.Fatal("negative r should fail")
	}
	if _, err := NewRSSS(3, 3, 0); err == nil {
		t.Fatal("n == k should fail")
	}
}

func TestRSSSSharesDoNotContainPlaintextPieces(t *testing.T) {
	// The reason RSSS must not use a systematic IDA.
	rsss, _ := NewRSSS(5, 3, 1)
	secret := bytes.Repeat([]byte{0x42}, 300)
	shares, err := rsss.Split(secret)
	if err != nil {
		t.Fatal(err)
	}
	pieceSize := rsss.ShareSize(len(secret))
	for i, sh := range shares {
		for off := 0; off+pieceSize <= len(secret); off += pieceSize {
			if bytes.Equal(sh, secret[off:off+pieceSize]) {
				t.Fatalf("share %d leaks plaintext piece at offset %d", i, off)
			}
		}
	}
}

func TestAONTRSCorruptionDetection(t *testing.T) {
	a, _ := NewAONTRS(4, 3)
	secret := make([]byte, 500)
	rand.New(rand.NewSource(13)).Read(secret)
	shares, err := a.Split(secret)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a data share and attempt reconstruction from shares 0..2.
	shares[1][3] ^= 0xFF
	_, err = a.Combine(map[int][]byte{0: shares[0], 1: shares[1], 2: shares[2]}, len(secret))
	if err == nil {
		t.Fatal("corrupted share went undetected")
	}
}

func TestSchemesPropertyRoundTrip(t *testing.T) {
	for _, s := range allSchemes(t, 4, 2) {
		err := quick.Check(func(data []byte) bool {
			if len(data) == 0 {
				return true
			}
			shares, err := s.Split(data)
			if err != nil {
				return false
			}
			// Use the last k shares (exercises parity paths for RS-based
			// schemes).
			sub := map[int][]byte{2: shares[2], 3: shares[3]}
			got, err := s.Combine(sub, len(data))
			if err != nil {
				return false
			}
			return bytes.Equal(got, data)
		}, &quick.Config{MaxCount: 100})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

func TestShareSizeTinySecrets(t *testing.T) {
	for _, s := range allSchemes(t, 4, 3) {
		for _, size := range []int{1, 2, 3, 4, 5, 16, 17} {
			secret := make([]byte, size)
			for i := range secret {
				secret[i] = byte(i + 1)
			}
			shares, err := s.Split(secret)
			if err != nil {
				t.Fatalf("%s size %d: %v", s.Name(), size, err)
			}
			got, err := s.Combine(map[int][]byte{0: shares[0], 2: shares[2], 3: shares[3]}, size)
			if err != nil {
				t.Fatalf("%s size %d: %v", s.Name(), size, err)
			}
			if !bytes.Equal(got, secret) {
				t.Fatalf("%s size %d: mismatch", s.Name(), size)
			}
		}
	}
}
