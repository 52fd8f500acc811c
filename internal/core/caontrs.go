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
	return c.SplitInto(secret, secretshare.NewArena())
}

// SplitInto implements secretshare.ArenaScheme: the same pipeline with
// every reusable temporary drawn from the caller's arena — package
// scratch, hash states, share buffers — so the steady-state cost per
// secret is exactly the per-key AES state (key schedule + CTR stream,
// which cannot be cached because the key is the content hash; asserted
// at <= 3 allocations by TestSplitIntoAllocations). A nil arena
// allocates plainly.
func (c *CAONTRS) SplitInto(secret []byte, a *secretshare.Arena) ([][]byte, error) {
	if len(secret) == 0 {
		return nil, secretshare.ErrEmptySecret
	}
	if a == nil {
		a = secretshare.NewArena()
	}
	p := c.paddedSecretSize(len(secret))
	pkgLen := p + HashSize
	pkg := a.Scratch(pkgLen)
	n := copy(pkg, secret)
	for i := n; i < p; i++ {
		pkg[i] = 0 // zero padding (arena scratch may be dirty)
	}
	c.hasher.sumInto(pkg[:p], &a.HashKey)
	if err := aont.PackageOAEPInto(pkg, p, a.HashKey[:]); err != nil {
		return nil, err
	}
	shards := a.Shards(c.n, c.codec.ShardSize(pkgLen))
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
// no join pass exists — then the OAEP unpack decrypts into a pool-drawn
// buffer the returned secret aliases. Steady state is the per-key AES
// state again (key schedule + CTR stream; asserted at <= 3 allocations
// by TestCombineIntoAllocations). A nil arena allocates plainly. A
// failed integrity check returns secretshare.ErrCorrupt so callers can
// retry with a different k-subset of shares (the brute-force recovery of
// §3.2). On any error the pool buffer is recycled before returning.
func (c *CAONTRS) CombineInto(shares map[int][]byte, secretSize int, a *secretshare.Arena) ([]byte, error) {
	if a == nil {
		a = secretshare.NewArena()
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

// RebuildInto implements secretshare.ArenaScheme: the decode-and-verify of
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

// Combine implements secretshare.Scheme: CombineInto through a fresh
// arena.
func (c *CAONTRS) Combine(shares map[int][]byte, secretSize int) ([]byte, error) {
	return c.CombineInto(shares, secretSize, secretshare.NewArena())
}
