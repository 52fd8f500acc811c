// Package core implements convergent dispersal, the CDStore paper's
// primary contribution (§3.2): secret sharing whose embedded randomness is
// replaced by a deterministic cryptographic hash of the secret, so that
// identical secrets always produce identical shares and deduplication
// becomes possible — while an attacker holding fewer than k shares can
// infer neither the secret nor the hash.
//
// Two instantiations are provided:
//
//   - CAONTRS — the paper's new scheme: OAEP-based AONT keyed with
//     h = H(X), followed by systematic Reed-Solomon coding. One bulk AES
//     pass per secret.
//
//   - CAONTRSRivest — the prior HotStorage '14 instantiation: AONT-RS
//     with its random key replaced by H(X). One AES invocation per
//     16-byte word; the baseline CAONT-RS beats in Figure 5.
//
// Both satisfy secretshare.Scheme, and both guarantee the placement
// invariant CDStore relies on: share i of a secret is always stored on
// cloud i, so equal secrets dedup inside every cloud.
package core

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"

	"cdstore/internal/aont"
	"cdstore/internal/reedsolomon"
	"cdstore/internal/secretshare"
)

// HashSize is the size of the convergent hash key (SHA-256).
const HashSize = sha256.Size

// CAONTRS is the paper's CAONT-RS scheme: convergent OAEP-based AONT plus
// systematic Reed-Solomon codes. It is deterministic: Split depends only
// on the secret content (and the optional salt), never on randomness.
type CAONTRS struct {
	n, k   int
	codec  *reedsolomon.Codec
	hasher convergentHasher
}

// NewCAONTRS constructs an (n, k) CAONT-RS scheme with no salt.
func NewCAONTRS(n, k int) (*CAONTRS, error) { return NewCAONTRSWithSalt(n, k, nil) }

// NewCAONTRSWithSalt constructs an (n, k) CAONT-RS scheme whose hash key
// is salted (§3.2: "a (optionally salted) hash function"). All clients of
// one organization must share the salt or deduplication breaks; distinct
// organizations can use distinct salts to defeat cross-tenant dictionary
// probing.
func NewCAONTRSWithSalt(n, k int, salt []byte) (*CAONTRS, error) {
	c, err := reedsolomon.New(n, k)
	if err != nil {
		return nil, err
	}
	cs := &CAONTRS{n: n, k: k, codec: c}
	cs.hasher.salt = append([]byte(nil), salt...)
	return cs, nil
}

// Name implements secretshare.Scheme.
func (c *CAONTRS) Name() string { return "CAONT-RS" }

// N implements secretshare.Scheme.
func (c *CAONTRS) N() int { return c.n }

// K implements secretshare.Scheme.
func (c *CAONTRS) K() int { return c.k }

// R implements secretshare.Scheme: computational confidentiality of
// degree k-1, inherited from AONT-RS.
func (c *CAONTRS) R() int { return c.k - 1 }

// paddedSecretSize returns the secret length after zero padding such that
// the CAONT package (padded secret + 32-byte tail) divides evenly into k
// shares (§3.2: "we pad zeroes to the secret if necessary").
func (c *CAONTRS) paddedSecretSize(secretSize int) int {
	pkg := secretSize + HashSize
	shareSize := (pkg + c.k - 1) / c.k
	return shareSize*c.k - HashSize
}

// ShareSize implements secretshare.Scheme.
func (c *CAONTRS) ShareSize(secretSize int) int {
	return (c.paddedSecretSize(secretSize) + HashSize) / c.k
}

// Split implements secretshare.Scheme: Figure 3's encoding pipeline.
func (c *CAONTRS) Split(secret []byte) ([][]byte, error) {
	return c.SplitInto(secret, nil)
}

// SplitInto implements secretshare.ArenaScheme: the same pipeline with
// every reusable temporary drawn from the caller's arena — package
// scratch, hash states, share buffers — so the steady-state cost per
// secret is exactly the per-key AES state (key schedule + CTR stream,
// which cannot be cached because the key is the content hash; asserted
// at <= 3 allocations by TestSplitIntoAllocations). A nil arena behaves
// like Split.
func (c *CAONTRS) SplitInto(secret []byte, a *secretshare.Arena) ([][]byte, error) {
	if len(secret) == 0 {
		return nil, secretshare.ErrEmptySecret
	}
	p := c.paddedSecretSize(len(secret))
	pkgLen := p + HashSize
	var pkg []byte
	if a != nil {
		pkg = a.Scratch(pkgLen)
	} else {
		pkg = make([]byte, pkgLen)
	}
	n := copy(pkg, secret)
	for i := n; i < p; i++ {
		pkg[i] = 0 // zero padding (arena scratch may be dirty)
	}
	var h []byte
	if a != nil {
		c.hasher.sumInto(pkg[:p], &a.HashKey)
		h = a.HashKey[:]
	} else {
		var hk [HashSize]byte
		c.hasher.sumInto(pkg[:p], &hk)
		h = hk[:]
	}
	if err := aont.PackageOAEPInto(pkg, p, h); err != nil {
		return nil, err
	}
	var shards [][]byte
	if a != nil {
		shards = a.Shards(c.n, c.codec.ShardSize(pkgLen))
	} else {
		shards = make([][]byte, c.n)
		for i := range shards {
			shards[i] = make([]byte, c.codec.ShardSize(pkgLen))
		}
	}
	if err := c.codec.SplitInto(pkg, shards); err != nil {
		return nil, err
	}
	if err := c.codec.Encode(shards); err != nil {
		return nil, err
	}
	return shards, nil
}

// CombineInto implements secretshare.ArenaScheme: Figure 3's decoding
// pipeline with every reusable temporary drawn from the caller's arena,
// mirroring SplitInto. The k data shards are RS-reconstructed directly
// into contiguous arena scratch — for CAONT-RS the package length is
// exactly k share sizes, so the reconstructed shards ARE the package and
// no Join pass exists — then the OAEP unpack decrypts into a pool-drawn
// buffer the returned secret aliases. Steady state is the per-key AES
// state again (key schedule + CTR stream; asserted at <= 3 allocations
// by TestCombineIntoAllocations). A nil arena behaves like Combine. On
// any error, including a failed integrity check, the pool buffer is
// recycled before returning.
func (c *CAONTRS) CombineInto(shares map[int][]byte, secretSize int, a *secretshare.Arena) ([]byte, error) {
	if a == nil {
		return c.Combine(shares, secretSize)
	}
	if err := secretshare.ValidateShareMap(shares, c.n, c.k, c.ShareSize(secretSize)); err != nil {
		return nil, err
	}
	p := c.paddedSecretSize(secretSize)
	padded := a.ResultBuf(p)
	if err := c.decodeInto(shares, secretSize, a.Scratch(p+HashSize), padded, a); err != nil {
		a.Recycle(padded)
		return nil, err
	}
	return padded[:secretSize], nil
}

// decodeInto is the decode-and-verify both CombineInto and RebuildInto
// run on a validated share map: RS-reconstruct the k data shards into
// pkg (the package length is exactly k share sizes), OAEP-unpack into
// padded, then the integrity check h == H(X) and the zero-padding check.
// When it returns nil, pkg is bit for bit the package SplitInto builds
// from padded[:secretSize].
func (c *CAONTRS) decodeInto(shares map[int][]byte, secretSize int, pkg, padded []byte, a *secretshare.Arena) error {
	if err := c.codec.ReconstructDataInto(shares, a.ShardViews(pkg, c.k)); err != nil {
		return err
	}
	if err := aont.UnpackOAEPInto(pkg, padded, &a.KeyOut); err != nil {
		return err
	}
	c.hasher.sumInto(padded, &a.HashKey)
	if !hmac.Equal(a.HashKey[:], a.KeyOut[:]) {
		return secretshare.ErrCorrupt
	}
	for _, b := range padded[secretSize:] {
		if b != 0 {
			return secretshare.ErrCorrupt
		}
	}
	return nil
}

// RebuildInto implements secretshare.Rebuilder: the decode-and-verify of
// CombineInto with the plaintext staged in arena scratch beside the
// package (it is only ever hashed), then share idx of the verified
// package — one copy or one parity row. Steady state is CombineInto's
// per-key AES state and nothing more (TestRebuildIntoAllocations).
func (c *CAONTRS) RebuildInto(shares map[int][]byte, secretSize, idx int, a *secretshare.Arena) ([]byte, error) {
	if a == nil {
		a = secretshare.NewArena()
	}
	if err := secretshare.ValidateShareMap(shares, c.n, c.k, c.ShareSize(secretSize)); err != nil {
		return nil, err
	}
	p := c.paddedSecretSize(secretSize)
	buf := a.Scratch(p + HashSize + p)
	pkg, padded := buf[:p+HashSize], buf[p+HashSize:]
	if err := c.decodeInto(shares, secretSize, pkg, padded, a); err != nil {
		return nil, err
	}
	return secretshare.RebuildShare(c.codec, pkg, idx, a)
}

// Combine implements secretshare.Scheme: Figure 3's decoding pipeline,
// including the integrity check H(X) == h. A failed check returns
// secretshare.ErrCorrupt so callers can retry with a different k-subset
// of shares (the brute-force recovery of §3.2).
func (c *CAONTRS) Combine(shares map[int][]byte, secretSize int) ([]byte, error) {
	idxs, size, err := checkShareMap(shares, c.n, c.k)
	if err != nil {
		return nil, err
	}
	if size != c.ShareSize(secretSize) {
		return nil, fmt.Errorf("%w: share size %d inconsistent with secret size %d",
			secretshare.ErrShareSize, size, secretSize)
	}
	have := make(map[int][]byte, c.k)
	for _, i := range idxs {
		have[i] = shares[i]
	}
	data, err := c.codec.ReconstructData(have)
	if err != nil {
		return nil, err
	}
	paddedSize := c.paddedSecretSize(secretSize)
	pkg, err := c.codec.Join(data, paddedSize+HashSize)
	if err != nil {
		return nil, err
	}
	padded, h, err := aont.UnpackOAEP(pkg)
	if err != nil {
		return nil, err
	}
	if !hmac.Equal(c.hasher.sum(padded), h) {
		return nil, secretshare.ErrCorrupt
	}
	for _, b := range padded[secretSize:] {
		if b != 0 {
			return nil, secretshare.ErrCorrupt
		}
	}
	return padded[:secretSize:secretSize], nil
}

// checkShareMap mirrors secretshare's internal validation for use by the
// convergent schemes.
func checkShareMap(shares map[int][]byte, n, k int) ([]int, int, error) {
	idxs := make([]int, 0, len(shares))
	for i := range shares {
		if i < 0 || i >= n {
			return nil, 0, fmt.Errorf("%w: %d", secretshare.ErrBadIndex, i)
		}
		idxs = append(idxs, i)
	}
	if len(idxs) < k {
		return nil, 0, secretshare.ErrTooFewShares
	}
	for i := 1; i < len(idxs); i++ {
		for j := i; j > 0 && idxs[j-1] > idxs[j]; j-- {
			idxs[j-1], idxs[j] = idxs[j], idxs[j-1]
		}
	}
	idxs = idxs[:k]
	size := -1
	for _, i := range idxs {
		if size == -1 {
			size = len(shares[i])
		}
		if len(shares[i]) != size || size == 0 {
			return nil, 0, secretshare.ErrShareSize
		}
	}
	return idxs, size, nil
}
