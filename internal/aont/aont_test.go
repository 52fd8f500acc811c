package aont

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

func randKey(t testing.TB) []byte {
	t.Helper()
	key := make([]byte, KeySize)
	if _, err := rand.Read(key); err != nil {
		t.Fatal(err)
	}
	return key
}

// oaepPackage runs PackageOAEPInto over a fresh buffer holding data.
func oaepPackage(data, h []byte) ([]byte, error) {
	pkg := make([]byte, OAEPPackageSize(len(data)))
	copy(pkg, data)
	return pkg, PackageOAEPInto(pkg, len(data), h)
}

// oaepUnpack runs UnpackOAEPInto into fresh buffers.
func oaepUnpack(pkg []byte) ([]byte, [KeySize]byte, error) {
	var h [KeySize]byte
	data := make([]byte, max(len(pkg)-HashSize, 0))
	err := UnpackOAEPInto(pkg, data, &h)
	return data, h, err
}

func TestOAEPRoundTrip(t *testing.T) {
	key := randKey(t)
	for _, size := range []int{0, 1, 16, 31, 8192, 10000} {
		data := make([]byte, size)
		mrand.New(mrand.NewSource(int64(size + 7))).Read(data)
		pkg, err := oaepPackage(data, key)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkg) != OAEPPackageSize(size) {
			t.Fatalf("size %d: package %d bytes, want %d", size, len(pkg), OAEPPackageSize(size))
		}
		got, gotKey, err := oaepUnpack(pkg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("size %d: data mismatch", size)
		}
		if !bytes.Equal(gotKey[:], key) {
			t.Fatalf("size %d: key mismatch", size)
		}
	}
}

func TestOAEPConvergentIntegrityCheck(t *testing.T) {
	// The CAONT-RS usage: h = SHA-256(X). After unpack, H(data) == h iff
	// the package is intact.
	data := []byte("the secret chunk content")
	h := sha256.Sum256(data)
	pkg, err := oaepPackage(data, h[:])
	if err != nil {
		t.Fatal(err)
	}
	got, gotH, err := oaepUnpack(pkg)
	if err != nil {
		t.Fatal(err)
	}
	check := sha256.Sum256(got)
	if !bytes.Equal(check[:], gotH[:]) {
		t.Fatal("intact package failed convergent integrity check")
	}
	// Corrupt one byte: the recovered data must no longer hash to h.
	for _, pos := range []int{0, 5, len(pkg) - 1} {
		bad := append([]byte(nil), pkg...)
		bad[pos] ^= 0x80
		gotBad, hBad, err := oaepUnpack(bad)
		if err != nil {
			continue // also acceptable: outright failure
		}
		checkBad := sha256.Sum256(gotBad)
		if bytes.Equal(checkBad[:], hBad[:]) {
			t.Fatalf("corruption at %d passed the integrity check", pos)
		}
	}
}

func TestOAEPAvalanche(t *testing.T) {
	// All-or-nothing: a one-byte change in the tail flips the derived key
	// and therefore decodes to unrelated data.
	data := make([]byte, 1024)
	mrand.New(mrand.NewSource(11)).Read(data)
	h := sha256.Sum256(data)
	pkg, _ := oaepPackage(data, h[:])
	bad := append([]byte(nil), pkg...)
	bad[len(bad)-1] ^= 0x01
	got, _, err := oaepUnpack(bad)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range got {
		if got[i] == data[i] {
			same++
		}
	}
	// Expect ~1/256 coincidence rate; 10% is a generous bound.
	if same > len(data)/10 {
		t.Fatalf("tail corruption left %d/%d bytes intact; transform is not all-or-nothing", same, len(data))
	}
}

func TestOAEPBadInputs(t *testing.T) {
	if _, err := oaepPackage([]byte("x"), []byte("short")); err != ErrBadKeySize {
		t.Fatalf("want ErrBadKeySize, got %v", err)
	}
	if _, _, err := oaepUnpack(make([]byte, HashSize-1)); err != ErrShortPackage {
		t.Fatalf("want ErrShortPackage, got %v", err)
	}
}

func TestOAEPPropertyRoundTrip(t *testing.T) {
	key := randKey(t)
	err := quick.Check(func(data []byte) bool {
		pkg, err := oaepPackage(data, key)
		if err != nil {
			return false
		}
		got, gotKey, err := oaepUnpack(pkg)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data) && bytes.Equal(gotKey[:], key)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// The benchmarks package into one reused buffer, as an encode worker does.

func BenchmarkPackageOAEP8KB(b *testing.B) {
	key := randKey(b)
	data := make([]byte, 8192)
	mrand.New(mrand.NewSource(4)).Read(data)
	pkg := make([]byte, OAEPPackageSize(len(data)))
	b.SetBytes(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(pkg, data)
		if err := PackageOAEPInto(pkg, len(data), key); err != nil {
			b.Fatal(err)
		}
	}
}
