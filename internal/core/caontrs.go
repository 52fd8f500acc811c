// Package core implements convergent dispersal, the CDStore paper's
// primary contribution (§3.2): secret sharing whose embedded randomness is
// replaced by a deterministic cryptographic hash of the secret, so that
// identical secrets always produce identical shares and deduplication
// becomes possible — while an attacker holding fewer than k shares can
// infer neither the secret nor the hash.
//
// CAONTRS is the one codec the client runs: an OAEP-based AONT keyed with
// h = H(X), followed by systematic Reed-Solomon coding, one bulk AES pass
// per secret. Share i of a secret is always stored on cloud i, so equal
// secrets dedup inside every cloud. The earlier instantiation the paper
// compares it against (CAONT-RS-Rivest, Figure 5) lives with the other
// baselines in internal/bench.
package core

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"slices"

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

// Name identifies the scheme in the paper's comparisons (bench.Scheme).
func (c *CAONTRS) Name() string { return "CAONT-RS" }

// N returns the total number of shares produced.
func (c *CAONTRS) N() int { return c.n }

// K returns the reconstruction threshold.
func (c *CAONTRS) K() int { return c.k }

// R returns the confidentiality degree: computational, k-1, inherited
// from AONT-RS.
func (c *CAONTRS) R() int { return c.k - 1 }

// paddedSecretSize returns the secret length after zero padding such that
// the CAONT package (padded secret + 32-byte tail) divides evenly into k
// shares (§3.2: "we pad zeroes to the secret if necessary").
func (c *CAONTRS) paddedSecretSize(secretSize int) int {
	pkg := secretSize + HashSize
	shareSize := (pkg + c.k - 1) / c.k
	return shareSize*c.k - HashSize
}

// ShareSize is the size of each of the n shares of a secretSize-byte
// secret.
func (c *CAONTRS) ShareSize(secretSize int) int {
	return (c.paddedSecretSize(secretSize) + HashSize) / c.k
}

// Split is Figure 3's encoding pipeline: SplitInto through a fresh arena.
func (c *CAONTRS) Split(secret []byte) ([][]byte, error) {
	return c.SplitInto(secret, secretshare.NewArena())
}

// SplitInto is Split with every reusable temporary drawn from the
// caller's arena — package scratch, hash states, share buffers — so the
// steady-state cost per secret is exactly the per-key AES state (key
// schedule + CTR stream, which cannot be cached because the key is the
// content hash; asserted at <= 3 allocations by TestSplitIntoAllocations).
// The returned shares alias pool-owned memory; the caller returns each one
// to the arena's SharePool when done. A nil arena allocates plainly.
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

// CombineInto is Figure 3's decoding pipeline with every reusable
// temporary drawn from the caller's arena, mirroring SplitInto: it
// reconstructs a secret of secretSize bytes from at least k shares, given
// as a map from share index (0..n-1) to content. The package is exactly k
// share sizes, so its k data shards are its segments, and the OAEP unpack
// reads them where they lie (aont.UnpackOAEPSegmentsInto): a data share
// in the map is read in place, and only a missing one is RS-computed, into
// arena scratch — no package is assembled. The unpack decrypts into a
// pool-drawn buffer the returned secret aliases, and the integrity check
// h == H(X) and the zero-padding check run on it. Steady state is the
// per-key AES state again (key schedule + CTR stream; asserted at <= 3
// allocations by TestCombineIntoAllocations). A nil arena allocates
// plainly. A failed integrity check returns secretshare.ErrCorrupt so
// callers can retry with a different k-subset of shares (the brute-force
// recovery of §3.2). On any error the pool buffer is recycled before
// returning.
func (c *CAONTRS) CombineInto(shares map[int][]byte, secretSize int, a *secretshare.Arena) ([]byte, error) {
	if a == nil {
		a = secretshare.NewArena()
	}
	if err := secretshare.ValidateShareMap(shares, c.n, c.k, c.ShareSize(secretSize)); err != nil {
		return nil, err
	}
	p := c.paddedSecretSize(secretSize)
	segs, padded := a.ShardViews(a.Scratch(p+HashSize), c.k), a.ResultBuf(p)
	err := c.codec.DataShardsInto(shares, segs)
	if err == nil {
		err = aont.UnpackOAEPSegmentsInto(segs, padded, &a.KeyOut)
	}
	if err == nil {
		c.hasher.sumInto(padded, &a.HashKey)
		if !hmac.Equal(a.HashKey[:], a.KeyOut[:]) || slices.ContainsFunc(padded[secretSize:], func(b byte) bool { return b != 0 }) {
			err = secretshare.ErrCorrupt
		}
	}
	if err != nil {
		a.Recycle(padded)
		return nil, err
	}
	return padded[:secretSize], nil
}

// RebuildInto returns share idx of the secret the given shares belong to
// — a copy, or one Reed-Solomon row over k of them (reedsolomon's
// RebuildRowInto) — in a buffer from the arena's SharePool: a lost share
// is rebuilt "as in Reed-Solomon codes" (§3.1), without reconstructing
// the package. Nothing is decoded, so nothing is checked here: from k
// shares of one dispersal the row is bit for bit the share Split made,
// and the caller must know that they are, as Repair does by checking
// each against its cloud's recipe fingerprint, every recipe of one
// backup version. Steady state allocates nothing
// (TestRebuildIntoAllocations).
func (c *CAONTRS) RebuildInto(shares map[int][]byte, secretSize, idx int, a *secretshare.Arena) ([]byte, error) {
	if a == nil {
		a = secretshare.NewArena()
	}
	if idx < 0 || idx >= c.n {
		return nil, fmt.Errorf("%w: %d", secretshare.ErrBadIndex, idx)
	}
	size := c.ShareSize(secretSize)
	if err := secretshare.ValidateShareMap(shares, c.n, c.k, size); err != nil {
		return nil, err
	}
	share := a.ResultBuf(size)
	if err := c.codec.RebuildRowInto(shares, idx, share); err != nil {
		a.Recycle(share)
		return nil, err
	}
	return share, nil
}

// Combine is CombineInto through a fresh arena.
func (c *CAONTRS) Combine(shares map[int][]byte, secretSize int) ([]byte, error) {
	return c.CombineInto(shares, secretSize, secretshare.NewArena())
}
