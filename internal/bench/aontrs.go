package bench

import (
	"crypto/aes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"cdstore/internal/aont"
	"cdstore/internal/reedsolomon"
	"cdstore/internal/secretshare"
)

// rivestWordSize is the Rivest transform word size (one AES block).
const rivestWordSize = aes.BlockSize

// rivestCanary is the constant word appended by the Rivest transform for
// integrity checking. A decode that does not reproduce it signals a
// corrupted or forged package.
var rivestCanary = [rivestWordSize]byte{
	0xc0, 0xff, 0xee, 0x15, 0x90, 0x0d, 0xc0, 0xff,
	0xee, 0x15, 0x90, 0x0d, 0xde, 0xad, 0xbe, 0xef,
}

var errCanary = errors.New("bench: canary mismatch (package corrupted)")

// rivestPackageSize returns the package size packageRivest produces for a
// dataLen-byte input: the padded data words, one canary word, and the
// 32-byte key-difference block.
func rivestPackageSize(dataLen int) int {
	words := (dataLen + rivestWordSize - 1) / rivestWordSize
	return (words+1)*rivestWordSize + aont.HashSize
}

// packageRivest applies Rivest's package transform (FSE '97), as used by
// AONT-RS (Resch & Plank, FAST '11), under key, in place: pkg must be
// rivestPackageSize(dataLen) bytes with the data already placed in
// pkg[:dataLen]; the rest of pkg is overwritten (padding, canary, key
// block).
//
// Layout: c_1 .. c_s, c_canary, tail where c_i = d_i XOR E_key(i) and
// tail = key XOR SHA-256(c_1 .. c_canary). Every 16-byte word costs one
// AES invocation — the per-word masking CAONT-RS's single bulk pass
// (aont.PackageOAEPInto) outruns in Figure 5. The data words are
// zero-padded to a whole number of words; callers must remember the
// original length to strip the padding at unpack time.
func packageRivest(pkg []byte, dataLen int, key []byte) error {
	if len(key) != aont.KeySize {
		return aont.ErrBadKeySize
	}
	if dataLen < 0 || len(pkg) != rivestPackageSize(dataLen) {
		return fmt.Errorf("%w: package %d bytes, want %d", aont.ErrBadLength, len(pkg), rivestPackageSize(dataLen))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return err
	}
	words := (dataLen + rivestWordSize - 1) / rivestWordSize
	for i := dataLen; i < words*rivestWordSize; i++ {
		pkg[i] = 0 // zero padding (buffer may be reused and dirty)
	}
	copy(pkg[words*rivestWordSize:], rivestCanary[:])

	var ctr, ks [rivestWordSize]byte
	for i := 0; i <= words; i++ {
		binary.BigEndian.PutUint64(ctr[8:], uint64(i+1))
		block.Encrypt(ks[:], ctr[:])
		w := pkg[i*rivestWordSize : (i+1)*rivestWordSize]
		for j := range w {
			w[j] ^= ks[j]
		}
	}
	digest := sha256.Sum256(pkg[:(words+1)*rivestWordSize])
	tail := pkg[(words+1)*rivestWordSize:]
	for j := range tail {
		tail[j] = key[j] ^ digest[j]
	}
	return nil
}

// unpackRivest inverts packageRivest: the padded data words are decrypted
// into data (which must hold exactly the word region, i.e.
// rivestPackageSize(origLen) minus the canary word and the key block) and
// the recovered key is written into keyOut. The original data is
// data[:origLen]. It fails with errCanary when the package was corrupted.
func unpackRivest(pkg []byte, origLen int, data []byte, keyOut *[aont.KeySize]byte) error {
	if len(pkg) < rivestWordSize+aont.HashSize {
		return aont.ErrShortPackage
	}
	body := pkg[:len(pkg)-aont.HashSize]
	if len(body)%rivestWordSize != 0 {
		return fmt.Errorf("%w: body %d bytes not word aligned", aont.ErrShortPackage, len(body))
	}
	words := len(body)/rivestWordSize - 1 // last word is the canary
	if origLen < 0 || origLen > words*rivestWordSize || (words > 0 && origLen <= (words-1)*rivestWordSize) {
		return fmt.Errorf("%w: origLen=%d words=%d", aont.ErrBadLength, origLen, words)
	}
	if len(data) != words*rivestWordSize {
		return fmt.Errorf("%w: data buffer %d bytes, want %d", aont.ErrBadLength, len(data), words*rivestWordSize)
	}
	digest := sha256.Sum256(body)
	tail := pkg[len(pkg)-aont.HashSize:]
	for j := range keyOut {
		keyOut[j] = tail[j] ^ digest[j]
	}
	block, err := aes.NewCipher(keyOut[:])
	if err != nil {
		return err
	}
	var ctr, ks [rivestWordSize]byte
	for i := 0; i <= words; i++ {
		binary.BigEndian.PutUint64(ctr[8:], uint64(i+1))
		block.Encrypt(ks[:], ctr[:])
		src := body[i*rivestWordSize : (i+1)*rivestWordSize]
		if i == words {
			// The canary word is checked in place, never written out.
			for j := range src {
				if src[j]^ks[j] != rivestCanary[j] {
					return errCanary
				}
			}
			break
		}
		dst := data[i*rivestWordSize : (i+1)*rivestWordSize]
		for j := range dst {
			dst[j] = src[j] ^ ks[j]
		}
	}
	// Padding bytes beyond origLen must be zero.
	for _, b := range data[origLen:] {
		if b != 0 {
			return errCanary
		}
	}
	return nil
}

// AONTRS is the AONT-RS scheme of Resch and Plank (FAST '11), as deployed
// by Cleversafe: the secret is passed through Rivest's all-or-nothing
// package transform under a fresh random key, and the package is divided
// into k shares and erasure-coded into n with a systematic Reed-Solomon
// code.
//
// Properties (Table 1): r = k-1 (computational), storage blowup
// n/k + (n/k)*Skey/Ssec. Randomness makes shares of identical secrets
// distinct — the deduplication blocker that motivates CAONT-RS.
type AONTRS struct {
	n, k  int
	codec *reedsolomon.Codec
}

// NewAONTRS constructs an (n, k) AONT-RS scheme.
func NewAONTRS(n, k int) (*AONTRS, error) {
	c, err := reedsolomon.New(n, k)
	if err != nil {
		return nil, err
	}
	return &AONTRS{n: n, k: k, codec: c}, nil
}

// Name implements Scheme.
func (a *AONTRS) Name() string { return "AONT-RS" }

// N implements Scheme.
func (a *AONTRS) N() int { return a.n }

// K implements Scheme.
func (a *AONTRS) K() int { return a.k }

// R implements Scheme.
func (a *AONTRS) R() int { return a.k - 1 }

// ShareSize implements Scheme: the Rivest package (padded words + canary +
// key block) split across k shares.
func (a *AONTRS) ShareSize(secretSize int) int {
	return a.codec.ShardSize(rivestPackageSize(secretSize))
}

// Split implements Scheme: a fresh random key per call (that is what
// AONT-RS is).
func (a *AONTRS) Split(secret []byte) ([][]byte, error) {
	if len(secret) == 0 {
		return nil, secretshare.ErrEmptySecret
	}
	key, err := randBytes(aont.KeySize)
	if err != nil {
		return nil, err
	}
	return a.splitWithKey(secret, key)
}

// splitWithKey disperses the secret under a caller-supplied 32-byte
// package key: the deterministic core CAONT-RS-Rivest supplies a
// content-derived key to.
func (a *AONTRS) splitWithKey(secret, key []byte) ([][]byte, error) {
	if len(secret) == 0 {
		return nil, secretshare.ErrEmptySecret
	}
	pkg := make([]byte, rivestPackageSize(len(secret)))
	copy(pkg, secret)
	if err := packageRivest(pkg, len(secret), key); err != nil {
		return nil, err
	}
	shards := a.codec.Split(pkg)
	if err := a.codec.Encode(shards); err != nil {
		return nil, err
	}
	return shards, nil
}

// Combine implements Scheme. The canary embedded by the package transform
// detects corrupted reconstructions and surfaces as
// secretshare.ErrCorrupt.
func (a *AONTRS) Combine(shares map[int][]byte, secretSize int) ([]byte, error) {
	secret, _, err := a.combineWithKey(shares, secretSize)
	return secret, err
}

// combineWithKey is Combine that also returns the recovered package key,
// which the convergent variant checks against the content hash. The k
// reconstructed data shards are the package.
func (a *AONTRS) combineWithKey(shares map[int][]byte, secretSize int) (secret []byte, key [aont.KeySize]byte, err error) {
	pkg, err := reconstructData(a.codec, shares, a.n, a.k, a.ShareSize(secretSize))
	if err != nil {
		return nil, key, err
	}
	pkgLen := rivestPackageSize(secretSize)
	data := make([]byte, pkgLen-rivestWordSize-aont.HashSize)
	if err := unpackRivest(pkg[:pkgLen], secretSize, data, &key); err != nil {
		return nil, key, fmt.Errorf("%w: %v", secretshare.ErrCorrupt, err)
	}
	return data[:secretSize], key, nil
}

// CAONTRSRivest is the prior convergent-dispersal instantiation from the
// authors' HotStorage '14 paper: AONT-RS with the random key replaced by
// the SHA-256 hash of the secret. CDStore's evaluation (Figure 5) uses it
// as the baseline that the OAEP-based CAONT-RS outperforms, because
// Rivest's transform pays one AES invocation per 16-byte word.
type CAONTRSRivest struct {
	*AONTRS
}

// NewCAONTRSRivest constructs an (n, k) CAONT-RS-Rivest scheme.
func NewCAONTRSRivest(n, k int) (*CAONTRSRivest, error) {
	inner, err := NewAONTRS(n, k)
	if err != nil {
		return nil, err
	}
	return &CAONTRSRivest{inner}, nil
}

// Name implements Scheme.
func (c *CAONTRSRivest) Name() string { return "CAONT-RS-Rivest" }

// Split implements Scheme deterministically: the package key is H(X).
func (c *CAONTRSRivest) Split(secret []byte) ([][]byte, error) {
	key := sha256.Sum256(secret)
	return c.splitWithKey(secret, key[:])
}

// Combine implements Scheme: beyond the Rivest canary, the convergent
// check key == H(secret), the integrity check of Equation (1).
func (c *CAONTRSRivest) Combine(shares map[int][]byte, secretSize int) ([]byte, error) {
	secret, key, err := c.combineWithKey(shares, secretSize)
	if err != nil {
		return nil, err
	}
	if h := sha256.Sum256(secret); !hmac.Equal(h[:], key[:]) {
		return nil, secretshare.ErrCorrupt
	}
	return secret, nil
}
