// Package aont implements the OAEP-based all-or-nothing transform (AONT)
// CAONT-RS adopts (Bellare-Rogaway OAEP, Boyko CRYPTO '99).
//
// An AONT maps data to a "package" such that no information about the data
// can be recovered unless the entire package is available. This one masks
// the whole input with a single bulk encryption of a constant-value block,
// which is the performance edge over Rivest's per-word package transform
// (the AONT-RS baseline, internal/bench) that the CDStore paper measures in
// §5.3.
//
// The transform does not choose the key: the caller supplies it.
// Convergent dispersal passes a hash of the data (see internal/core).
package aont

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"sync"
)

const (
	// KeySize is the package key size (AES-256).
	KeySize = 32
	// HashSize is the size of the embedded SHA-256 digest.
	HashSize = sha256.Size // 32
)

// Errors returned by the package and unpack functions.
var (
	ErrBadKeySize   = errors.New("aont: key must be 32 bytes")
	ErrShortPackage = errors.New("aont: package too short")
	ErrBadLength    = errors.New("aont: original length inconsistent with package")
)

// OAEPPackageSize returns the package size PackageOAEPInto produces: the
// input plus the 32-byte tail.
func OAEPPackageSize(dataLen int) int { return dataLen + HashSize }

// PackageOAEPInto applies the OAEP-based AONT of CAONT-RS (§3.2):
//
//	Y = X XOR G(h)      G(h) = E_h(C), C the all-zero constant block
//	t = h XOR H(Y)
//
// leaving Y || t in pkg, which must be OAEPPackageSize(dataLen) bytes with
// the data already placed in pkg[:dataLen]. G is realized as AES-256 in
// CTR mode with a zero IV over the constant block, i.e. one bulk
// encryption pass — the single "large-size, constant-value block"
// encryption the paper contrasts with Rivest's per-word masking. h must
// be 32 bytes (the hash key for convergent dispersal, or a random key
// otherwise). The transform runs in place (XORKeyStream permits exact
// aliasing). Per-secret cost is the AES key schedule plus the CTR stream
// object. The stream is deliberately not hand-rolled away: cipher.NewCTR
// dispatches to pipelined AES-NI assembly that measures ~8.6x faster than
// any Encrypt-per-block loop through the cipher.Block interface (5.2 GB/s
// vs 0.6 GB/s on the reference machine), so the two small allocations of
// a fresh stream per secret buy back an order of magnitude of keystream
// throughput — the right trade for the encode hot path.
func PackageOAEPInto(pkg []byte, dataLen int, h []byte) error {
	if len(h) != KeySize {
		return ErrBadKeySize
	}
	if dataLen < 0 || len(pkg) != OAEPPackageSize(dataLen) {
		return fmt.Errorf("%w: package %d bytes, want %d", ErrBadLength, len(pkg), OAEPPackageSize(dataLen))
	}
	block, err := aes.NewCipher(h)
	if err != nil {
		return err
	}
	y := pkg[:dataLen]
	var iv [aes.BlockSize]byte
	cipher.NewCTR(block, iv[:]).XORKeyStream(y, y)
	digest := sha256.Sum256(y)
	tail := pkg[dataLen:]
	for j := 0; j < HashSize; j++ {
		tail[j] = h[j] ^ digest[j]
	}
	return nil
}

// UnpackOAEPInto inverts PackageOAEPInto: the original data is decrypted
// into data (which must be len(pkg)-HashSize bytes) and the recovered key
// into hOut. The transform itself carries no integrity check; convergent
// users verify H(data) == h afterwards (see internal/core). It is the
// one-segment case of UnpackOAEPSegmentsInto.
func UnpackOAEPInto(pkg, data []byte, hOut *[KeySize]byte) error {
	return UnpackOAEPSegmentsInto([][]byte{pkg}, data, hOut)
}

// zeroIV is the CTR stream's IV for the unpack. cipher.NewCTR copies
// it, so it is never written, and being no local it cannot escape to the
// heap: a local array did, an allocation per unpack.
var zeroIV [aes.BlockSize]byte

// digests recycles the SHA-256 states UnpackOAEPSegmentsInto hashes Y
// with, so a segmented unpack allocates no more than a contiguous one.
var digests = sync.Pool{New: func() any { return sha256.New() }}

// UnpackOAEPSegmentsInto is UnpackOAEPInto over a package held as the
// concatenation of segs — a decode's k data shards, each a view of its
// own buffer — without joining them: H(Y) is one SHA-256 over Y's
// segments, the tail t is read from the package's last HashSize bytes
// (which straddle segments when the last is shorter), and one CTR stream
// runs across the segments into data, which must be the package's length
// less HashSize. Per-call cost is the AES key schedule plus the CTR
// stream — the same deliberate floor as PackageOAEPInto, and for the same
// reason.
func UnpackOAEPSegmentsInto(segs [][]byte, data []byte, hOut *[KeySize]byte) error {
	size := 0
	for _, s := range segs {
		size += len(s)
	}
	if size < HashSize {
		return ErrShortPackage
	}
	y := size - HashSize
	if len(data) != y {
		return fmt.Errorf("%w: data buffer %d bytes, want %d", ErrBadLength, len(data), y)
	}
	d := digests.Get().(hash.Hash)
	d.Reset()
	off := 0 // package offset of the segment at hand
	for _, s := range segs {
		d.Write(s[:max(min(len(s), y-off), 0)])
		off += len(s)
	}
	d.Sum(hOut[:0])
	digests.Put(d)
	off = 0
	for _, s := range segs { // hOut = t XOR H(Y)
		for i := max(y-off, 0); i < len(s); i++ {
			hOut[off+i-y] ^= s[i]
		}
		off += len(s)
	}
	block, err := aes.NewCipher(hOut[:])
	if err != nil {
		return err
	}
	ctr := cipher.NewCTR(block, zeroIV[:])
	off = 0
	for _, s := range segs {
		n := max(min(len(s), y-off), 0)
		ctr.XORKeyStream(data[off:off+n], s[:n])
		off += n
	}
	return nil
}
