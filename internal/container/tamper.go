package container

import (
	"encoding/binary"
	"hash/crc32"
)

// Tamper support for fault-injection tests: silent corruption that keeps
// the container frame structurally valid (magic, lengths, CRC all
// consistent), so only per-entry re-fingerprinting (§3.3) can catch it.
// Used with storage.Corrupt as the transform for scrub and e2e
// corruption tests.

// TamperEntries returns a copy of a serialized container with the data
// bytes of every stride-th entry XORed by x (stride <= 1 tampers every
// entry) and the CRC recomputed over the result. The copy parses
// cleanly and passes CRC verification; the tampered entries' bytes no
// longer match their fingerprint keys. It returns the tampered
// serialization and the entries changed, which are views of it; a raw
// value that does not parse, or has nothing to tamper, is returned
// unchanged. raw itself is never written to.
func TamperEntries(name string, raw []byte, stride int, x byte) ([]byte, []Entry) {
	out := append([]byte(nil), raw...)
	c, err := Unmarshal(name, out)
	if err != nil {
		return raw, nil
	}
	if stride <= 1 {
		stride = 1
	}
	var tampered []Entry
	for i := range c.Entries {
		d := c.Entries[i].Data
		if i%stride != 0 || len(d) == 0 {
			continue
		}
		for j := 0; j < len(d); j += 16 {
			d[j] ^= x
		}
		tampered = append(tampered, c.Entries[i])
	}
	if len(tampered) == 0 {
		return raw, nil
	}
	body := out[:len(out)-trailerSize]
	binary.BigEndian.PutUint32(out[len(body):], crc32.ChecksumIEEE(body))
	return out, tampered
}
