package secretshare

import (
	"crypto/aes"
	"crypto/cipher"
)

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

// SSMSKeySize is the size of the random data key (AES-256).
const SSMSKeySize = 32

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
	return s.ida.ShareSize(secretSize) + SSMSKeySize
}

// Split implements Scheme.
func (s *SSMS) Split(secret []byte) ([][]byte, error) {
	if len(secret) == 0 {
		return nil, ErrEmptySecret
	}
	key, err := randBytes(SSMSKeySize)
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
	for i := 0; i < s.n; i++ {
		sh := make([]byte, 0, len(dataShares[i])+SSMSKeySize)
		sh = append(sh, dataShares[i]...)
		sh = append(sh, keyShares[i]...)
		shares[i] = sh
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
		dataPart[i] = sh[:len(sh)-SSMSKeySize]
		keyPart[i] = sh[len(sh)-SSMSKeySize:]
	}
	key, err := s.sss.Combine(keyPart, SSMSKeySize)
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
