// Package aont implements all-or-nothing transforms (AONTs).
//
// An AONT maps data to a "package" such that no information about the data
// can be recovered unless the entire package is available. Two transforms
// are provided:
//
//   - Rivest's package transform (FSE '97), as used by AONT-RS
//     (Resch & Plank, FAST '11): every 16-byte word is masked with an
//     index value encrypted under the package key, a canary word is added
//     for integrity, and the key is hidden behind a hash of the masked
//     words.
//
//   - An OAEP-based AONT (Bellare-Rogaway OAEP, Boyko CRYPTO '99), the
//     transform CAONT-RS adopts: a single bulk encryption of a
//     constant-value block masks the whole input at once, which is the
//     performance edge the CDStore paper measures in §5.3.
//
// Neither transform chooses the key: the caller supplies it. AONT-RS
// passes a random key; convergent dispersal passes a hash of the data
// (see internal/core).
package aont

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

const (
	// WordSize is the Rivest transform word size (one AES block).
	WordSize = aes.BlockSize // 16
	// KeySize is the package key size (AES-256).
	KeySize = 32
	// HashSize is the size of the embedded SHA-256 digest.
	HashSize = sha256.Size // 32
)

// Canary is the constant word appended by the Rivest transform for
// integrity checking. A decode that does not reproduce it signals a
// corrupted or forged package.
var Canary = [WordSize]byte{
	0xc0, 0xff, 0xee, 0x15, 0x90, 0x0d, 0xc0, 0xff,
	0xee, 0x15, 0x90, 0x0d, 0xde, 0xad, 0xbe, 0xef,
}

// Errors returned by the unpack functions.
var (
	ErrBadKeySize   = errors.New("aont: key must be 32 bytes")
	ErrShortPackage = errors.New("aont: package too short")
	ErrCanary       = errors.New("aont: canary mismatch (package corrupted)")
	ErrBadLength    = errors.New("aont: original length inconsistent with package")
)

// RivestPackageSize returns the package size PackageRivestInto produces
// for a dataLen-byte input: the padded data words, one canary word, and the
// 32-byte key-difference block.
func RivestPackageSize(dataLen int) int {
	words := (dataLen + WordSize - 1) / WordSize
	return (words+1)*WordSize + HashSize
}

// Scratch is the reusable cipher scratch the allocation-free Rivest
// package variant threads through its per-word AES calls. Block-cipher
// inputs and outputs passed through the cipher.Block interface escape to
// the heap, so a worker keeps one Scratch alive (typically inside a
// secretshare.Arena) instead of paying two allocations per packaged
// secret.
//
// The OAEP variant deliberately does NOT use it for its bulk pass:
// cipher.NewCTR dispatches to pipelined AES-NI assembly that measures
// ~8.6x faster than any Encrypt-per-block loop through the cipher.Block
// interface (5.2 GB/s vs 0.6 GB/s on the reference machine), so the two
// small allocations of a fresh CTR stream per secret buy back an order
// of magnitude of keystream throughput — the right trade for the encode
// hot path.
type Scratch struct {
	ctr [WordSize]byte
	ks  [WordSize]byte
}

// PackageRivestInto applies Rivest's package transform under key, in
// place: pkg must be RivestPackageSize(dataLen) bytes with the data
// already placed in pkg[:dataLen]; the rest of pkg is overwritten
// (padding, canary, key block).
//
// Layout: c_1 .. c_s, c_canary, tail where c_i = d_i XOR E_key(i) and
// tail = key XOR SHA-256(c_1 .. c_canary). The data words are zero-padded
// to a whole number of 16-byte words; callers must remember the original
// length to strip the padding at unpack time. s may be nil; passing a
// reused Scratch makes the call allocation-free beyond the AES key
// schedule.
func PackageRivestInto(pkg []byte, dataLen int, key []byte, s *Scratch) error {
	if len(key) != KeySize {
		return ErrBadKeySize
	}
	if dataLen < 0 || len(pkg) != RivestPackageSize(dataLen) {
		return fmt.Errorf("%w: package %d bytes, want %d", ErrBadLength, len(pkg), RivestPackageSize(dataLen))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return err
	}
	if s == nil {
		s = new(Scratch)
	}
	words := (dataLen + WordSize - 1) / WordSize
	for i := dataLen; i < words*WordSize; i++ {
		pkg[i] = 0 // zero padding (buffer may be reused and dirty)
	}
	copy(pkg[words*WordSize:], Canary[:])

	for j := range s.ctr {
		s.ctr[j] = 0
	}
	for i := 0; i <= words; i++ {
		binary.BigEndian.PutUint64(s.ctr[8:], uint64(i+1))
		block.Encrypt(s.ks[:], s.ctr[:])
		w := pkg[i*WordSize : (i+1)*WordSize]
		for j := 0; j < WordSize; j++ {
			w[j] ^= s.ks[j]
		}
	}
	digest := sha256.Sum256(pkg[:(words+1)*WordSize])
	tail := pkg[(words+1)*WordSize:]
	for j := 0; j < HashSize; j++ {
		tail[j] = key[j] ^ digest[j]
	}
	return nil
}

// UnpackRivestInto inverts PackageRivestInto: the padded data words are
// decrypted into data (which must hold exactly the word region, i.e.
// RivestPackageSize(origLen) minus the canary word and the key block) and
// the recovered key is written into keyOut. The original data is
// data[:origLen]. It fails with ErrCanary when the package was corrupted.
// s may be nil; passing a reused Scratch makes the call allocation-free
// beyond the AES key schedule.
func UnpackRivestInto(pkg []byte, origLen int, data []byte, keyOut *[KeySize]byte, s *Scratch) error {
	if len(pkg) < WordSize+HashSize {
		return ErrShortPackage
	}
	body := pkg[:len(pkg)-HashSize]
	if len(body)%WordSize != 0 {
		return fmt.Errorf("%w: body %d bytes not word aligned", ErrShortPackage, len(body))
	}
	words := len(body)/WordSize - 1 // last word is the canary
	if origLen < 0 || origLen > words*WordSize || (words > 0 && origLen <= (words-1)*WordSize) {
		return fmt.Errorf("%w: origLen=%d words=%d", ErrBadLength, origLen, words)
	}
	if len(data) != words*WordSize {
		return fmt.Errorf("%w: data buffer %d bytes, want %d", ErrBadLength, len(data), words*WordSize)
	}
	digest := sha256.Sum256(body)
	tail := pkg[len(pkg)-HashSize:]
	for j := 0; j < HashSize; j++ {
		keyOut[j] = tail[j] ^ digest[j]
	}
	block, err := aes.NewCipher(keyOut[:])
	if err != nil {
		return err
	}
	if s == nil {
		s = new(Scratch)
	}
	for j := range s.ctr {
		s.ctr[j] = 0
	}
	for i := 0; i <= words; i++ {
		binary.BigEndian.PutUint64(s.ctr[8:], uint64(i+1))
		block.Encrypt(s.ks[:], s.ctr[:])
		src := body[i*WordSize : (i+1)*WordSize]
		if i == words {
			// The canary word is checked in place, never written out.
			for j := 0; j < WordSize; j++ {
				if src[j]^s.ks[j] != Canary[j] {
					return ErrCanary
				}
			}
			break
		}
		dst := data[i*WordSize : (i+1)*WordSize]
		for j := 0; j < WordSize; j++ {
			dst[j] = src[j] ^ s.ks[j]
		}
	}
	// Padding bytes beyond origLen must be zero.
	for _, b := range data[origLen:] {
		if b != 0 {
			return ErrCanary
		}
	}
	return nil
}

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
// object; see Scratch for why the stream is not hand-rolled away.
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
// users verify H(data) == h afterwards (see internal/core). Per-call cost
// is the AES key schedule plus the CTR stream — the same deliberate floor
// as PackageOAEPInto, and for the same reason (see Scratch).
func UnpackOAEPInto(pkg, data []byte, hOut *[KeySize]byte) error {
	if len(pkg) < HashSize {
		return ErrShortPackage
	}
	if len(data) != len(pkg)-HashSize {
		return fmt.Errorf("%w: data buffer %d bytes, want %d", ErrBadLength, len(data), len(pkg)-HashSize)
	}
	y := pkg[:len(pkg)-HashSize]
	tail := pkg[len(pkg)-HashSize:]
	digest := sha256.Sum256(y)
	for j := 0; j < HashSize; j++ {
		hOut[j] = tail[j] ^ digest[j]
	}
	block, err := aes.NewCipher(hOut[:])
	if err != nil {
		return err
	}
	var iv [aes.BlockSize]byte
	cipher.NewCTR(block, iv[:]).XORKeyStream(data, y)
	return nil
}
