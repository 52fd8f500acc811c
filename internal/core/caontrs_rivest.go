package core

import (
	"crypto/hmac"

	"cdstore/internal/secretshare"
)

// CAONTRSRivest is the prior convergent-dispersal instantiation from the
// authors' HotStorage '14 paper: AONT-RS (Rivest's package transform +
// Reed-Solomon) with the random key replaced by the SHA-256 hash of the
// secret. CDStore's evaluation (Figure 5) uses it as the baseline that
// the OAEP-based CAONT-RS outperforms, because Rivest's transform pays
// one AES invocation per 16-byte word.
type CAONTRSRivest struct {
	n, k   int
	inner  *secretshare.AONTRS
	hasher convergentHasher
}

// NewCAONTRSRivest constructs an (n, k) CAONT-RS-Rivest scheme.
func NewCAONTRSRivest(n, k int) (*CAONTRSRivest, error) {
	return NewCAONTRSRivestWithSalt(n, k, nil)
}

// NewCAONTRSRivestWithSalt constructs the scheme with a salted hash key.
func NewCAONTRSRivestWithSalt(n, k int, salt []byte) (*CAONTRSRivest, error) {
	inner, err := secretshare.NewAONTRS(n, k)
	if err != nil {
		return nil, err
	}
	c := &CAONTRSRivest{n: n, k: k, inner: inner}
	c.hasher.salt = append([]byte(nil), salt...)
	return c, nil
}

// Name implements secretshare.Scheme.
func (c *CAONTRSRivest) Name() string { return "CAONT-RS-Rivest" }

// N implements secretshare.Scheme.
func (c *CAONTRSRivest) N() int { return c.n }

// K implements secretshare.Scheme.
func (c *CAONTRSRivest) K() int { return c.k }

// R implements secretshare.Scheme.
func (c *CAONTRSRivest) R() int { return c.k - 1 }

// ShareSize implements secretshare.Scheme.
func (c *CAONTRSRivest) ShareSize(secretSize int) int { return c.inner.ShareSize(secretSize) }

// Split implements secretshare.Scheme deterministically.
func (c *CAONTRSRivest) Split(secret []byte) ([][]byte, error) {
	return c.SplitInto(secret, secretshare.NewArena())
}

// SplitInto implements secretshare.ArenaScheme (a nil arena allocates
// plainly). The convergent key is derived into the arena's key scratch
// through the pooled hasher, so key derivation allocates nothing per
// secret — same discipline as CAONTRS.SplitInto.
func (c *CAONTRSRivest) SplitInto(secret []byte, a *secretshare.Arena) ([][]byte, error) {
	if len(secret) == 0 {
		return nil, secretshare.ErrEmptySecret
	}
	if a == nil {
		a = secretshare.NewArena()
	}
	c.hasher.sumInto(secret, &a.HashKey)
	return c.inner.SplitWithKeyInto(secret, a.HashKey[:], a)
}

// Combine implements secretshare.Scheme: CombineInto through a fresh
// arena.
func (c *CAONTRSRivest) Combine(shares map[int][]byte, secretSize int) ([]byte, error) {
	return c.CombineInto(shares, secretSize, secretshare.NewArena())
}

// CombineInto implements secretshare.ArenaScheme (a nil arena allocates
// plainly): the inner AONT-RS decode runs through the arena (leaving the
// recovered package key in the arena's KeyOut), then — beyond the Rivest
// canary — the convergent check key == H(secret), the integrity check of
// Equation (1), is derived through the pooled hasher into the arena's key
// scratch. On a failed check the pool buffer is recycled before
// ErrCorrupt surfaces.
func (c *CAONTRSRivest) CombineInto(shares map[int][]byte, secretSize int, a *secretshare.Arena) ([]byte, error) {
	if a == nil {
		a = secretshare.NewArena()
	}
	secret, key, err := c.inner.CombineWithKeyInto(shares, secretSize, a)
	if err != nil {
		return nil, err
	}
	c.hasher.sumInto(secret, &a.HashKey)
	if !hmac.Equal(a.HashKey[:], key) {
		a.Recycle(secret)
		return nil, secretshare.ErrCorrupt
	}
	return secret, nil
}

// RebuildInto implements secretshare.ArenaScheme: the inner AONT-RS rebuild
// plus the convergent check key == H(secret) CombineInto applies; a share
// built from a package that fails it is recycled, never returned.
func (c *CAONTRSRivest) RebuildInto(shares map[int][]byte, secretSize, idx int, a *secretshare.Arena) ([]byte, error) {
	if a == nil {
		a = secretshare.NewArena()
	}
	share, secret, key, err := c.inner.RebuildWithKeyInto(shares, secretSize, idx, a)
	if err != nil {
		return nil, err
	}
	c.hasher.sumInto(secret, &a.HashKey)
	if !hmac.Equal(a.HashKey[:], key) {
		a.Recycle(share)
		return nil, secretshare.ErrCorrupt
	}
	return share, nil
}
