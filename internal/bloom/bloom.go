// Package bloom implements a Bloom filter (Bloom, CACM '70), the
// probabilistic membership structure LevelDB attaches to its SSTables to
// skip disk reads for absent keys — and which internal/lsmkv attaches to
// its tables for the same reason (§4.4 of the CDStore paper).
package bloom

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
)

// Filter is a Bloom filter over byte-string keys. The zero value is not
// usable; call New or NewWithEstimates.
type Filter struct {
	bits  []byte
	nbits uint64
	k     uint32 // number of hash probes
	n     uint64 // number of inserted keys (approximate population)
}

// New creates a filter with nbits bits and k hash probes.
func New(nbits uint64, k uint32) *Filter {
	if nbits == 0 {
		nbits = 8
	}
	if k == 0 {
		k = 1
	}
	return &Filter{bits: make([]byte, (nbits+7)/8), nbits: nbits, k: k}
}

// NewWithEstimates creates a filter sized for n expected keys at the given
// target false-positive rate (0 < fp < 1).
func NewWithEstimates(n uint64, fp float64) *Filter {
	if n == 0 {
		n = 1
	}
	if fp <= 0 || fp >= 1 {
		fp = 0.01
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(fp) / (math.Ln2 * math.Ln2)))
	k := uint32(math.Round(float64(m) / float64(n) * math.Ln2))
	if k == 0 {
		k = 1
	}
	return New(m, k)
}

// baseHashes derives two independent 64-bit hashes of key; probe i uses
// h1 + i*h2 (Kirsch-Mitzenmacher double hashing).
func baseHashes(key []byte) (uint64, uint64) {
	h := fnv.New128a()
	h.Write(key)
	var sum [16]byte
	h.Sum(sum[:0])
	h1 := binary.BigEndian.Uint64(sum[:8])
	h2 := binary.BigEndian.Uint64(sum[8:]) | 1 // force odd so probes cycle
	return h1, h2
}

// Add inserts key into the filter.
func (f *Filter) Add(key []byte) {
	h1, h2 := baseHashes(key)
	for i := uint32(0); i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.nbits
		f.bits[pos/8] |= 1 << (pos % 8)
	}
	f.n++
}

// MayContain reports whether key might be in the filter. False positives
// occur at roughly the configured rate; false negatives never.
func (f *Filter) MayContain(key []byte) bool {
	h1, h2 := baseHashes(key)
	for i := uint32(0); i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.nbits
		if f.bits[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
	}
	return true
}

// Marshal serializes the filter (nbits, k, n, bit array).
func (f *Filter) Marshal() []byte {
	out := make([]byte, 8+4+8+len(f.bits))
	binary.BigEndian.PutUint64(out[0:], f.nbits)
	binary.BigEndian.PutUint32(out[8:], f.k)
	binary.BigEndian.PutUint64(out[12:], f.n)
	copy(out[20:], f.bits)
	return out
}

// ErrCorrupt is returned by Unmarshal for malformed input.
var ErrCorrupt = errors.New("bloom: corrupt filter encoding")

// Unmarshal reverses Marshal.
func Unmarshal(data []byte) (*Filter, error) {
	if len(data) < 20 {
		return nil, ErrCorrupt
	}
	nbits := binary.BigEndian.Uint64(data[0:])
	k := binary.BigEndian.Uint32(data[8:])
	n := binary.BigEndian.Uint64(data[12:])
	bits := data[20:]
	if uint64(len(bits)) != (nbits+7)/8 || k == 0 || nbits == 0 {
		return nil, ErrCorrupt
	}
	f := &Filter{bits: append([]byte(nil), bits...), nbits: nbits, k: k, n: n}
	return f, nil
}
