package storage

import (
	"hash/fnv"
	"math/rand"
)

// Corrupt rewrites every stored object accepted by match through
// transform, persisting the result (a one-shot "damage what is already
// on disk" pass). transform receives the object's current bytes and
// returns the replacement; returning nil deletes the object (container
// loss). It returns the names of the objects it changed, in order.
func Corrupt(b Backend, match func(name string) bool, transform func(name string, data []byte) []byte) ([]string, error) {
	names, err := b.List()
	if err != nil {
		return nil, err
	}
	var changed []string
	for _, name := range names {
		if match != nil && !match(name) {
			continue
		}
		data, err := b.Get(name)
		if err != nil {
			return changed, err
		}
		out := transform(name, data)
		if out == nil {
			if err := b.Delete(name); err != nil {
				return changed, err
			}
			changed = append(changed, name)
			continue
		}
		if err := b.Put(name, out); err != nil {
			return changed, err
		}
		changed = append(changed, name)
	}
	return changed, nil
}

// FlipBit returns a transform for Corrupt that XORs one bit at a
// deterministic position derived from seed and the object name —
// the classic silent-corruption model (invalidates the container CRC).
func FlipBit(seed int64) func(name string, data []byte) []byte {
	return func(name string, data []byte) []byte {
		if len(data) == 0 {
			return data
		}
		h := fnv.New64a()
		h.Write([]byte(name))
		r := rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
		out := append([]byte(nil), data...)
		bit := r.Intn(len(out) * 8)
		out[bit/8] ^= 1 << (bit % 8)
		return out
	}
}
