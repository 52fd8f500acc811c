package secretshare

import (
	"fmt"

	"cdstore/internal/reedsolomon"
)

// RSSS is the ramp secret sharing scheme of Blakley and Meadows
// (CRYPTO '84), the generalization sweeping the trade-off between IDA
// (r = 0) and SSSS (r = k-1): the secret is divided evenly into k-r
// pieces, r uniformly random pieces are appended, and the k pieces are
// dispersed into n shares with an information dispersal algorithm.
//
// The IDA here must be non-systematic — a systematic code would emit
// secret pieces verbatim — so RSSS uses a Cauchy generator matrix, every
// square submatrix of which is invertible; this yields both any-k
// reconstruction and the ramp secrecy guarantee for up to r shares.
//
// Properties (Table 1): confidentiality degree r, storage blowup n/(k-r).
type RSSS struct {
	n, k, r int
	codec   *reedsolomon.NonSystematicCodec
}

// NewRSSS constructs an (n, k, r) ramp scheme with 0 <= r < k.
func NewRSSS(n, k, r int) (*RSSS, error) {
	if r < 0 || r >= k {
		return nil, fmt.Errorf("secretshare: RSSS requires 0 <= r < k, got r=%d k=%d", r, k)
	}
	c, err := reedsolomon.NewNonSystematic(n, k)
	if err != nil {
		return nil, err
	}
	return &RSSS{n: n, k: k, r: r, codec: c}, nil
}

// Name implements Scheme.
func (s *RSSS) Name() string { return fmt.Sprintf("RSSS(r=%d)", s.r) }

// N implements Scheme.
func (s *RSSS) N() int { return s.n }

// K implements Scheme.
func (s *RSSS) K() int { return s.k }

// R implements Scheme.
func (s *RSSS) R() int { return s.r }

// ShareSize implements Scheme: ceil(secretSize / (k-r)).
func (s *RSSS) ShareSize(secretSize int) int {
	d := s.k - s.r
	sz := (secretSize + d - 1) / d
	if sz == 0 {
		sz = 1
	}
	return sz
}

// Split implements Scheme.
func (s *RSSS) Split(secret []byte) ([][]byte, error) {
	if len(secret) == 0 {
		return nil, ErrEmptySecret
	}
	pieceSize := s.ShareSize(len(secret))
	pieces := make([][]byte, s.k)
	for i := 0; i < s.k-s.r; i++ {
		p := make([]byte, pieceSize)
		lo := i * pieceSize
		if lo < len(secret) {
			hi := lo + pieceSize
			if hi > len(secret) {
				hi = len(secret)
			}
			copy(p, secret[lo:hi])
		}
		pieces[i] = p
	}
	for i := s.k - s.r; i < s.k; i++ {
		p, err := randBytes(pieceSize)
		if err != nil {
			return nil, err
		}
		pieces[i] = p
	}
	return s.codec.Encode(pieces)
}

// Combine implements Scheme.
func (s *RSSS) Combine(shares map[int][]byte, secretSize int) ([]byte, error) {
	idxs, err := lowestK(shares, s.n, s.k, s.ShareSize(secretSize))
	if err != nil {
		return nil, err
	}
	have := make(map[int][]byte, s.k)
	for _, i := range idxs {
		have[i] = shares[i]
	}
	pieces, err := s.codec.Decode(have)
	if err != nil {
		return nil, err
	}
	secret := make([]byte, 0, secretSize)
	for i := 0; i < s.k-s.r && len(secret) < secretSize; i++ {
		need := secretSize - len(secret)
		if need > len(pieces[i]) {
			need = len(pieces[i])
		}
		secret = append(secret, pieces[i][:need]...)
	}
	if len(secret) != secretSize {
		return nil, fmt.Errorf("secretshare: RSSS recovered %d bytes, want %d", len(secret), secretSize)
	}
	return secret, nil
}
