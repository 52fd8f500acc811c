package container

import "cdstore/internal/metadata"

// Rewrite replaces the persisted container c with a new one holding only
// the entries keep marks (survivors keep their order and bytes), in
// three steps: persist the new container, run commit — which repoints the
// index at newName for the surviving keys — and delete the old container
// only once commit has returned nil. A failure at any step leaves every
// index entry naming a container that exists and at worst one container
// nothing points at, which the next pass drops whole. newName is "" when
// nothing survives (commit still runs, with no keys); with nothing to
// drop, nothing is touched and c's own name comes back. The second
// result is the number of bytes reclaimed.
func (s *Store) Rewrite(c *Container, keep []bool, commit func(newName string, kept []metadata.Fingerprint) error) (string, int64, error) {
	var kept []metadata.Fingerprint
	var liveBytes int
	var dropped int64
	for i := range c.Entries {
		if size := entryOverhead + len(c.Entries[i].Data); keep[i] {
			kept = append(kept, c.Entries[i].Key)
			liveBytes += size
		} else {
			dropped += int64(size)
		}
	}
	if dropped == 0 {
		return c.Name, 0, nil // nothing to reclaim
	}
	newName := ""
	if len(kept) > 0 {
		// A writer with room for exactly the survivors, whatever the
		// store's capacity: a rewrite never splits a container.
		newName = containerName(c.Type, c.UserID, s.nextSeq.Add(1)-1)
		w := NewWriter(newName, c.Type, c.UserID, headerSize+liveBytes+trailerSize)
		for i := range c.Entries {
			if !keep[i] {
				continue
			}
			if err := w.Add(c.Entries[i].Key, c.Entries[i].Data); err != nil {
				return "", 0, err
			}
		}
		if err := s.persist(w); err != nil {
			return "", 0, err
		}
	}
	if err := commit(newName, kept); err != nil {
		return "", 0, err
	}
	if err := s.Delete(c.Name); err != nil {
		return "", 0, err
	}
	return newName, dropped, nil
}
