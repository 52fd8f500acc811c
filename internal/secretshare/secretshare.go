// Package secretshare holds what a dispersal codec needs beyond its
// transform: the per-worker Arena and the SharePool its share and secret
// buffers come from, the errors a decode reports and the one share-map
// check every Combine runs. The client's codec is CAONT-RS
// (internal/core); the paper's baseline schemes (internal/bench) use the
// errors and the check too.
package secretshare

import (
	"errors"
	"fmt"
)

// Errors shared by the dispersal schemes.
var (
	ErrEmptySecret  = errors.New("secretshare: empty secret")
	ErrTooFewShares = errors.New("secretshare: fewer than k shares")
	ErrShareSize    = errors.New("secretshare: inconsistent share sizes")
	ErrBadIndex     = errors.New("secretshare: share index out of range")
	ErrCorrupt      = errors.New("secretshare: reconstructed secret failed integrity check")
)

// ValidateShareMap is the one share-map check every Combine runs,
// allocation-free for the arena decode paths: index range, at least k
// shares, and every provided share exactly wantSize bytes — not only the k
// a decode will use, so a decode through pooled buffers never meets a
// stray size.
func ValidateShareMap(shares map[int][]byte, n, k, wantSize int) error {
	count := 0
	for i, s := range shares {
		if i < 0 || i >= n {
			return fmt.Errorf("%w: %d", ErrBadIndex, i)
		}
		if wantSize == 0 || len(s) != wantSize {
			return fmt.Errorf("%w: share %d has %d bytes, want %d", ErrShareSize, i, len(s), wantSize)
		}
		count++
	}
	if count < k {
		return ErrTooFewShares
	}
	return nil
}
