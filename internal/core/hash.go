package core

import (
	"crypto/hmac"
	"crypto/sha256"
	"hash"
	"sync"
)

// convergentHasher derives the convergent key h = H(salt || X): plain
// SHA-256 without a salt, HMAC-SHA-256 keyed by the salt with one —
// both deterministic in the content (§3.2). Salted hashing draws its
// HMAC state from a pool and resets it, so sumInto allocates on neither
// branch — the form the zero-allocation encode path needs.
type convergentHasher struct {
	salt []byte
	pool sync.Pool
}

// sumInto writes the key into a caller array without allocating.
func (h *convergentHasher) sumInto(data []byte, out *[HashSize]byte) {
	if len(h.salt) == 0 {
		*out = sha256.Sum256(data)
		return
	}
	m, _ := h.pool.Get().(hash.Hash)
	if m == nil {
		m = hmac.New(sha256.New, h.salt)
	}
	m.Reset()
	m.Write(data)
	m.Sum(out[:0])
	h.pool.Put(m)
}
