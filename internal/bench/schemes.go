package bench

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"fmt"
	"sort"

	"cdstore/internal/gf256"
	"cdstore/internal/reedsolomon"
	"cdstore/internal/secretshare"
)

// The secret sharing family Table 1 of the CDStore paper surveys, kept
// here because only the paper's experiments run it:
//
//	SSSS    Shamir's secret sharing           r = k-1, blowup n
//	IDA     Rabin's information dispersal     r = 0,   blowup n/k
//	RSSS    ramp secret sharing               r in (0, k-1), blowup n/(k-r)
//	SSMS    secret sharing made short         r = k-1, blowup n/k + n*Skey/Ssec
//	AONT-RS all-or-nothing transform + RS     r = k-1, blowup n/k + (n/k)*Skey/Ssec
//
// All five use embedded randomness, so identical secrets produce distinct
// shares and deduplication is impossible. CAONT-RS (internal/core, the
// one codec the client runs) and the earlier convergent instantiation
// CAONT-RS-Rivest (aontrs.go) fix this, and satisfy Scheme too.

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

// StorageBlowup returns total share bytes / secret bytes for a scheme and
// secret size — the metric Table 1 compares.
func StorageBlowup(s Scheme, secretSize int) float64 {
	return float64(s.N()*s.ShareSize(secretSize)) / float64(secretSize)
}

// randBytes fills a fresh buffer of the given size from crypto/rand.
func randBytes(size int) ([]byte, error) {
	b := make([]byte, size)
	if _, err := rand.Read(b); err != nil {
		return nil, fmt.Errorf("bench: reading randomness: %w", err)
	}
	return b, nil
}

// lowestK validates a share map with secretshare.ValidateShareMap and
// returns the k lowest share indices in ascending order — the subset the
// schemes that interpolate or split shares by hand decode from (the
// Reed-Solomon codec picks the same subset itself).
func lowestK(shares map[int][]byte, n, k, wantSize int) ([]int, error) {
	if err := secretshare.ValidateShareMap(shares, n, k, wantSize); err != nil {
		return nil, err
	}
	idxs := make([]int, 0, len(shares))
	for i := range shares {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	return idxs[:k], nil
}

// reconstructData validates shares and rebuilds the k data shards of a
// systematic code side by side in one buffer of k share sizes.
func reconstructData(codec *reedsolomon.Codec, shares map[int][]byte, n, k, size int) ([]byte, error) {
	if err := secretshare.ValidateShareMap(shares, n, k, size); err != nil {
		return nil, err
	}
	buf := make([]byte, k*size)
	data := make([][]byte, k)
	for i := range data {
		data[i] = buf[i*size : (i+1)*size]
	}
	if err := codec.ReconstructDataInto(shares, data); err != nil {
		return nil, err
	}
	return buf, nil
}

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
		return nil, fmt.Errorf("bench: SSSS requires 0 < k < n <= 255, got n=%d k=%d", n, k)
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
		return nil, secretshare.ErrEmptySecret
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

// IDA is Rabin's information dispersal algorithm (JACM '89): the secret is
// split into k pieces which are erasure-coded into n shares with a
// systematic Reed-Solomon code.
//
// Properties (Table 1): r = 0 (any single share reveals information —
// with a systematic code the first k shares are plaintext pieces), storage
// blowup n/k, the minimum possible.
type IDA struct {
	n, k  int
	codec *reedsolomon.Codec
}

// NewIDA constructs an (n, k) information dispersal algorithm.
func NewIDA(n, k int) (*IDA, error) {
	c, err := reedsolomon.New(n, k)
	if err != nil {
		return nil, err
	}
	return &IDA{n: n, k: k, codec: c}, nil
}

// Name implements Scheme.
func (d *IDA) Name() string { return "IDA" }

// N implements Scheme.
func (d *IDA) N() int { return d.n }

// K implements Scheme.
func (d *IDA) K() int { return d.k }

// R implements Scheme: IDA provides no confidentiality.
func (d *IDA) R() int { return 0 }

// ShareSize implements Scheme.
func (d *IDA) ShareSize(secretSize int) int { return d.codec.ShardSize(secretSize) }

// Split implements Scheme.
func (d *IDA) Split(secret []byte) ([][]byte, error) {
	if len(secret) == 0 {
		return nil, secretshare.ErrEmptySecret
	}
	shards := d.codec.Split(secret)
	if err := d.codec.Encode(shards); err != nil {
		return nil, err
	}
	return shards, nil
}

// Combine implements Scheme: the first secretSize bytes of the k
// reconstructed data shards.
func (d *IDA) Combine(shares map[int][]byte, secretSize int) ([]byte, error) {
	buf, err := reconstructData(d.codec, shares, d.n, d.k, d.ShareSize(secretSize))
	if err != nil {
		return nil, err
	}
	return buf[:secretSize], nil
}

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
	codec   *nonSystematicCodec
}

// NewRSSS constructs an (n, k, r) ramp scheme with 0 <= r < k.
func NewRSSS(n, k, r int) (*RSSS, error) {
	if r < 0 || r >= k {
		return nil, fmt.Errorf("bench: RSSS requires 0 <= r < k, got r=%d k=%d", r, k)
	}
	c, err := newNonSystematic(n, k)
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
		return nil, secretshare.ErrEmptySecret
	}
	pieceSize := s.ShareSize(len(secret))
	pieces := make([][]byte, s.k)
	for i := 0; i < s.k-s.r; i++ {
		p := make([]byte, pieceSize)
		if lo := i * pieceSize; lo < len(secret) {
			copy(p, secret[lo:min(lo+pieceSize, len(secret))])
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
		secret = append(secret, pieces[i][:min(secretSize-len(secret), len(pieces[i]))]...)
	}
	if len(secret) != secretSize {
		return nil, fmt.Errorf("bench: RSSS recovered %d bytes, want %d", len(secret), secretSize)
	}
	return secret, nil
}

// SSMS is Krawczyk's "secret sharing made short" (CRYPTO '93): encrypt
// the secret under a fresh random key, disperse the ciphertext with IDA,
// and disperse the short key with SSSS. Confidentiality is computational
// (it rests on the cipher), but the blowup drops from Shamir's n to
// n/k + n*Skey/Ssec.
//
// Share layout: [ IDA ciphertext share | 32-byte SSSS key share ].
type SSMS struct {
	n, k int
	ida  *IDA
	sss  *SSSS
}

// ssmsKeySize is the size of the random data key (AES-256).
const ssmsKeySize = 32

// NewSSMS constructs an (n, k) SSMS scheme.
func NewSSMS(n, k int) (*SSMS, error) {
	ida, err := NewIDA(n, k)
	if err != nil {
		return nil, err
	}
	sss, err := NewSSSS(n, k)
	if err != nil {
		return nil, err
	}
	return &SSMS{n: n, k: k, ida: ida, sss: sss}, nil
}

// Name implements Scheme.
func (s *SSMS) Name() string { return "SSMS" }

// N implements Scheme.
func (s *SSMS) N() int { return s.n }

// K implements Scheme.
func (s *SSMS) K() int { return s.k }

// R implements Scheme: computational confidentiality at the maximum degree.
func (s *SSMS) R() int { return s.k - 1 }

// ShareSize implements Scheme.
func (s *SSMS) ShareSize(secretSize int) int {
	return s.ida.ShareSize(secretSize) + ssmsKeySize
}

// Split implements Scheme.
func (s *SSMS) Split(secret []byte) ([][]byte, error) {
	if len(secret) == 0 {
		return nil, secretshare.ErrEmptySecret
	}
	key, err := randBytes(ssmsKeySize)
	if err != nil {
		return nil, err
	}
	ct, err := ctrCrypt(key, secret)
	if err != nil {
		return nil, err
	}
	dataShares, err := s.ida.Split(ct)
	if err != nil {
		return nil, err
	}
	keyShares, err := s.sss.Split(key)
	if err != nil {
		return nil, err
	}
	shares := make([][]byte, s.n)
	for i := range shares {
		sh := make([]byte, 0, len(dataShares[i])+ssmsKeySize)
		sh = append(sh, dataShares[i]...)
		shares[i] = append(sh, keyShares[i]...)
	}
	return shares, nil
}

// Combine implements Scheme.
func (s *SSMS) Combine(shares map[int][]byte, secretSize int) ([]byte, error) {
	idxs, err := lowestK(shares, s.n, s.k, s.ShareSize(secretSize))
	if err != nil {
		return nil, err
	}
	dataPart := make(map[int][]byte, s.k)
	keyPart := make(map[int][]byte, s.k)
	for _, i := range idxs {
		sh := shares[i]
		dataPart[i] = sh[:len(sh)-ssmsKeySize]
		keyPart[i] = sh[len(sh)-ssmsKeySize:]
	}
	key, err := s.sss.Combine(keyPart, ssmsKeySize)
	if err != nil {
		return nil, err
	}
	ct, err := s.ida.Combine(dataPart, secretSize)
	if err != nil {
		return nil, err
	}
	return ctrCrypt(key, ct)
}

// ctrCrypt encrypts or decrypts data with AES-256-CTR under key and a zero
// IV. The key is used exactly once per secret, so the fixed IV is safe.
func ctrCrypt(key, data []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(data))
	var iv [aes.BlockSize]byte
	cipher.NewCTR(block, iv[:]).XORKeyStream(out, data)
	return out, nil
}
