package aont

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"math/rand"
	"testing"
)

// TestPackageOAEPMatchesStdlibCTR pins PackageOAEPInto to crypto/cipher's
// zero-IV CTR mode followed by the key-difference tail — the on-disk
// format every stored package follows.
func TestPackageOAEPMatchesStdlibCTR(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	h := make([]byte, KeySize)
	rng.Read(h)
	for _, n := range []int{1, 15, 16, 17, 31, 32, 1000, 8192} {
		data := make([]byte, n)
		rng.Read(data)
		got, err := oaepPackage(data, h)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: stdlib CTR with zero IV, then the key-difference tail.
		block, err := aes.NewCipher(h)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, OAEPPackageSize(n))
		var iv [aes.BlockSize]byte
		cipher.NewCTR(block, iv[:]).XORKeyStream(want[:n], data)
		digest := sha256.Sum256(want[:n])
		for j := 0; j < HashSize; j++ {
			want[n+j] = h[j] ^ digest[j]
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("len=%d: PackageOAEPInto diverged from stdlib CTR reference", n)
		}
	}
}

// TestPackageOAEPIntoDirtyBufferAndScratch checks that packaging over a
// reused dirty buffer produces the same package as over a fresh one, and
// that it round-trips.
func TestPackageOAEPIntoDirtyBufferAndScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	h := make([]byte, KeySize)
	rng.Read(h)
	buf := make([]byte, OAEPPackageSize(8192))
	for _, n := range []int{100, 8192, 33} {
		data := make([]byte, n)
		rng.Read(data)
		want, err := oaepPackage(data, h)
		if err != nil {
			t.Fatal(err)
		}
		pkg := buf[:OAEPPackageSize(n)]
		rng.Read(pkg) // dirty
		copy(pkg, data)
		if err := PackageOAEPInto(pkg, n, h); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pkg, want) {
			t.Fatalf("len=%d: dirty buffer changed the package", n)
		}
		back, gotH, err := oaepUnpack(pkg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) || !bytes.Equal(gotH[:], h) {
			t.Fatalf("len=%d: round trip failed", n)
		}
	}
}

// TestUnpackIntoMatchesUnpack pins the decoder to the original data
// across sizes, over a dirty reused buffer.
func TestUnpackIntoMatchesUnpack(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	h := make([]byte, KeySize)
	rng.Read(h)
	dataBuf := make([]byte, 8192)
	for _, n := range []int{1, 15, 16, 17, 31, 100, 4096, 8192} {
		data := make([]byte, n)
		rng.Read(data)
		pkg, err := oaepPackage(data, h)
		if err != nil {
			t.Fatal(err)
		}
		out := dataBuf[:n]
		rng.Read(out) // dirty
		var hOut [KeySize]byte
		if err := UnpackOAEPInto(pkg, out, &hOut); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, data) || !bytes.Equal(hOut[:], h) {
			t.Fatalf("len=%d: UnpackOAEPInto diverged", n)
		}
	}
}

// TestUnpackIntoRejectsCorruption checks the decoder's failures: a
// wrong data buffer size and a package shorter than its tail. (The OAEP
// transform carries no integrity check of its own; a flipped bit is
// caught by the convergent hash, TestOAEPConvergentIntegrityCheck.)
func TestUnpackIntoRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	key := make([]byte, KeySize)
	rng.Read(key)
	data := make([]byte, 100)
	rng.Read(data)
	opkg, err := oaepPackage(data, key)
	if err != nil {
		t.Fatal(err)
	}
	var hOut [KeySize]byte
	if err := UnpackOAEPInto(opkg, make([]byte, 10), &hOut); err == nil {
		t.Error("OAEP: wrong data buffer size accepted")
	}
	if err := UnpackOAEPInto(make([]byte, HashSize-1), nil, &hOut); err != ErrShortPackage {
		t.Errorf("OAEP: short package got %v", err)
	}
}

func TestPackageIntoValidatesSizes(t *testing.T) {
	h := make([]byte, KeySize)
	if err := PackageOAEPInto(make([]byte, 10), 5, h); err == nil {
		t.Error("OAEP: wrong package size accepted")
	}
	if err := PackageOAEPInto(make([]byte, 37), 5, h[:16]); err == nil {
		t.Error("OAEP: short key accepted")
	}
}

// TestUnpackSegmentsMatchesContiguous: a package cut into segments at
// any points — empty ones, ones shorter than the tail, a tail straddling
// several — unpacks to what the contiguous package unpacks to.
func TestUnpackSegmentsMatchesContiguous(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	h := make([]byte, KeySize)
	for _, n := range []int{0, 1, 15, 16, 17, 31, 33, 100, 4096} {
		rng.Read(h)
		data := make([]byte, n)
		rng.Read(data)
		pkg, err := oaepPackage(data, h)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 50; trial++ {
			var segs [][]byte
			for rest := pkg; len(rest) > 0 || len(segs) == 0; {
				cut := rng.Intn(min(len(rest), 40) + 1)
				segs, rest = append(segs, rest[:cut]), rest[cut:]
			}
			out := make([]byte, n)
			var hOut [KeySize]byte
			if err := UnpackOAEPSegmentsInto(segs, out, &hOut); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, data) || !bytes.Equal(hOut[:], h) {
				t.Fatalf("len=%d, %d segments: segmented unpack diverged", n, len(segs))
			}
		}
	}
	if err := UnpackOAEPSegmentsInto([][]byte{make([]byte, 20), make([]byte, HashSize-21)}, nil, new([KeySize]byte)); err != ErrShortPackage {
		t.Fatalf("short segmented package: %v", err)
	}
}
