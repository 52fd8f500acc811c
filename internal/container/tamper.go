package container

// Tamper support for fault-injection tests: silent corruption that keeps
// the container frame structurally valid (magic, lengths, CRC all
// consistent), so only per-entry re-fingerprinting (§3.3) can catch it.
// Used with storage.Corrupt as the transform for scrub and e2e
// corruption tests.

// TamperEntries re-marshals a serialized container with the data bytes
// of every stride-th entry XORed by x (stride <= 1 tampers every
// entry). The result parses cleanly and passes CRC verification; the
// tampered entries' bytes no longer match their fingerprint keys. It
// returns the tampered serialization and the keys of the entries
// changed; a raw value that does not parse is returned unchanged.
func TamperEntries(name string, raw []byte, stride int, x byte) ([]byte, []Entry) {
	c, err := Unmarshal(name, raw)
	if err != nil {
		return raw, nil
	}
	if stride <= 1 {
		stride = 1
	}
	var tampered []Entry
	for i := range c.Entries {
		if i%stride != 0 || len(c.Entries[i].Data) == 0 {
			continue
		}
		d := append([]byte(nil), c.Entries[i].Data...)
		for j := 0; j < len(d); j += 16 {
			d[j] ^= x
		}
		c.Entries[i].Data = d
		tampered = append(tampered, c.Entries[i])
	}
	if len(tampered) == 0 {
		return raw, nil
	}
	return c.Marshal(), tampered
}
