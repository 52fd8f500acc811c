package secretshare

import (
	"fmt"

	"cdstore/internal/gf256"
)

// SSSS is Shamir's secret sharing scheme (CACM '79), applied byte-wise
// over GF(2^8) and vectorized across the whole secret: for each byte
// position a fresh random polynomial of degree k-1 has the secret byte as
// its constant term, and share i holds the evaluation at x = i+1.
//
// Properties (Table 1): r = k-1 (information-theoretic), storage blowup n
// (each share is as large as the secret — the price of perfect secrecy).
type SSSS struct {
	n, k  int
	field *gf256.Field
}

// NewSSSS constructs an (n, k) Shamir scheme. n is limited to 255 because
// evaluation points are the nonzero field elements.
func NewSSSS(n, k int) (*SSSS, error) {
	if k <= 0 || n <= k || n > 255 {
		return nil, fmt.Errorf("secretshare: SSSS requires 0 < k < n <= 255, got n=%d k=%d", n, k)
	}
	return &SSSS{n: n, k: k, field: gf256.Default()}, nil
}

// Name implements Scheme.
func (s *SSSS) Name() string { return "SSSS" }

// N implements Scheme.
func (s *SSSS) N() int { return s.n }

// K implements Scheme.
func (s *SSSS) K() int { return s.k }

// R implements Scheme. Shamir achieves the maximum confidentiality degree.
func (s *SSSS) R() int { return s.k - 1 }

// ShareSize implements Scheme: every share is as large as the secret.
func (s *SSSS) ShareSize(secretSize int) int { return secretSize }

// Split implements Scheme.
func (s *SSSS) Split(secret []byte) ([][]byte, error) {
	if len(secret) == 0 {
		return nil, ErrEmptySecret
	}
	// coeffs[j] is the byte-slice of degree-(j+1) coefficients.
	coeffs := make([][]byte, s.k-1)
	for j := range coeffs {
		c, err := randBytes(len(secret))
		if err != nil {
			return nil, err
		}
		coeffs[j] = c
	}
	shares := make([][]byte, s.n)
	for i := 0; i < s.n; i++ {
		x := byte(i + 1)
		out := make([]byte, len(secret))
		copy(out, secret)
		// Horner-free evaluation: out += coeffs[j] * x^(j+1).
		xp := byte(1)
		for j := 0; j < s.k-1; j++ {
			xp = s.field.Mul(xp, x)
			s.field.MulAddSlice(xp, coeffs[j], out)
		}
		shares[i] = out
	}
	return shares, nil
}

// Combine implements Scheme using Lagrange interpolation at x = 0.
func (s *SSSS) Combine(shares map[int][]byte, secretSize int) ([]byte, error) {
	idxs, err := lowestK(shares, s.n, s.k, secretSize)
	if err != nil {
		return nil, err
	}
	secret := make([]byte, secretSize)
	for a, ia := range idxs {
		xa := byte(ia + 1)
		// Lagrange basis polynomial evaluated at 0:
		// l_a = prod_{b != a} x_b / (x_b - x_a).
		num, den := byte(1), byte(1)
		for b, ib := range idxs {
			if a == b {
				continue
			}
			xb := byte(ib + 1)
			num = s.field.Mul(num, xb)
			den = s.field.Mul(den, xb^xa)
		}
		s.field.MulAddSlice(s.field.Div(num, den), shares[ia], secret)
	}
	return secret, nil
}
