// Package secretshare implements the family of secret sharing algorithms
// surveyed in Table 1 of the CDStore paper:
//
//	SSSS    Shamir's secret sharing           r = k-1, blowup n
//	IDA     Rabin's information dispersal     r = 0,   blowup n/k
//	RSSS    ramp secret sharing               r in (0, k-1), blowup n/(k-r)
//	SSMS    secret sharing made short         r = k-1, blowup n/k + n*Skey/Ssec
//	AONT-RS all-or-nothing transform + RS     r = k-1, blowup n/k + (n/k)*Skey/Ssec
//
// All five use embedded randomness, so identical secrets produce distinct
// shares and deduplication is impossible; the convergent variants that fix
// this live in internal/core and satisfy the same Scheme interface.
package secretshare

import (
	"crypto/rand"
	"errors"
	"fmt"
	"sort"
)

// Scheme is an (n, k, r) secret sharing algorithm: a secret is dispersed
// into n shares, any k reconstruct it, and no information is revealed by
// r or fewer shares.
type Scheme interface {
	// Name identifies the algorithm (e.g. "SSSS", "CAONT-RS").
	Name() string
	// N returns the total number of shares produced.
	N() int
	// K returns the reconstruction threshold.
	K() int
	// R returns the confidentiality degree.
	R() int
	// ShareSize returns the size of each share for a secret of the given
	// size (all shares of one secret have equal size).
	ShareSize(secretSize int) int
	// Split disperses the secret into n shares.
	Split(secret []byte) ([][]byte, error)
	// Combine reconstructs a secret of secretSize bytes from at least k
	// shares, given as a map from share index (0..n-1) to content.
	Combine(shares map[int][]byte, secretSize int) ([]byte, error)
}

// Errors shared by the scheme implementations.
var (
	ErrEmptySecret  = errors.New("secretshare: empty secret")
	ErrTooFewShares = errors.New("secretshare: fewer than k shares")
	ErrShareSize    = errors.New("secretshare: inconsistent share sizes")
	ErrBadIndex     = errors.New("secretshare: share index out of range")
	ErrCorrupt      = errors.New("secretshare: reconstructed secret failed integrity check")
)

// StorageBlowup returns total share bytes / secret bytes for a scheme and
// secret size — the metric Table 1 compares.
func StorageBlowup(s Scheme, secretSize int) float64 {
	return float64(s.N()*s.ShareSize(secretSize)) / float64(secretSize)
}

// randBytes fills a fresh buffer of the given size from crypto/rand.
func randBytes(size int) ([]byte, error) {
	b := make([]byte, size)
	if _, err := rand.Read(b); err != nil {
		return nil, fmt.Errorf("secretshare: reading randomness: %w", err)
	}
	return b, nil
}

// ValidateShareMap is the one share-map check every Combine runs (here
// and in internal/core), allocation-free for the arena decode paths:
// index range, at least k shares, and every provided share exactly
// wantSize bytes — not only the k a decode will use, so a decode through
// pooled buffers never meets a stray size.
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

// lowestK validates a share map with ValidateShareMap and returns the k
// lowest share indices in ascending order — the subset the schemes that
// interpolate or split shares by hand decode from (the Reed-Solomon
// codec picks the same subset itself).
func lowestK(shares map[int][]byte, n, k, wantSize int) ([]int, error) {
	if err := ValidateShareMap(shares, n, k, wantSize); err != nil {
		return nil, err
	}
	idxs := make([]int, 0, len(shares))
	for i := range shares {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	return idxs[:k], nil
}
