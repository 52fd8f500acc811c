package secretshare

import "cdstore/internal/reedsolomon"

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
func (d *IDA) ShareSize(secretSize int) int {
	sz := (secretSize + d.k - 1) / d.k
	if sz == 0 {
		sz = 1
	}
	return sz
}

// Split implements Scheme.
func (d *IDA) Split(secret []byte) ([][]byte, error) {
	if len(secret) == 0 {
		return nil, ErrEmptySecret
	}
	shards := d.codec.Split(secret)
	if err := d.codec.Encode(shards); err != nil {
		return nil, err
	}
	return shards, nil
}

// Combine implements Scheme: the k data shards are reconstructed side by
// side in one buffer, whose first secretSize bytes are the secret.
func (d *IDA) Combine(shares map[int][]byte, secretSize int) ([]byte, error) {
	size := d.ShareSize(secretSize)
	if err := ValidateShareMap(shares, d.n, d.k, size); err != nil {
		return nil, err
	}
	buf := make([]byte, d.k*size)
	data := make([][]byte, d.k)
	for i := range data {
		data[i] = buf[i*size : (i+1)*size]
	}
	if err := d.codec.ReconstructDataInto(shares, data); err != nil {
		return nil, err
	}
	return buf[:secretSize], nil
}
