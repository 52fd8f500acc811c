package container

import (
	"strings"

	"cdstore/internal/metadata"
)

// ListContainers returns the names of all persisted containers of the
// given type ("share" or "recipe" prefix), in name order.
func (s *Store) ListContainers(typ Type) ([]string, error) {
	names, err := s.backend.List()
	if err != nil {
		return nil, err
	}
	prefix := typ.String() + "-"
	var out []string
	for _, n := range names {
		if strings.HasPrefix(n, prefix) {
			out = append(out, n)
		}
	}
	return out, nil
}

// Rewrite replaces a persisted container with a new one holding only the
// entries whose keys pass keep. It returns the new container's name (""
// when every entry was dropped and the container simply deleted) and the
// number of bytes reclaimed. The caller is responsible for repointing
// index entries at the new name before deleting references to the old.
func (s *Store) Rewrite(name string, keep func(metadata.Fingerprint) bool) (string, int64, error) {
	c, err := s.get(name)
	if err != nil {
		return "", 0, err
	}
	var live []Entry
	var liveBytes int
	var dropped int64
	for i := range c.Entries {
		if keep(c.Entries[i].Key) {
			live = append(live, c.Entries[i])
			liveBytes += entryOverhead + len(c.Entries[i].Data)
		} else {
			dropped += int64(len(c.Entries[i].Data)) + entryOverhead
		}
	}
	if dropped == 0 {
		return name, 0, nil // nothing to reclaim
	}
	if len(live) == 0 {
		if err := s.Delete(name); err != nil {
			return "", 0, err
		}
		return "", dropped, nil
	}
	// A writer with room for exactly the survivors, whatever the store's
	// capacity: a rewrite never splits a container.
	newName := containerName(c.Type, c.UserID, s.nextSeq.Add(1)-1)
	w := NewWriter(newName, c.Type, c.UserID, headerSize+liveBytes+trailerSize)
	for i := range live {
		if err := w.Add(live[i].Key, live[i].Data); err != nil {
			return "", 0, err
		}
	}
	if err := s.persist(w); err != nil {
		return "", 0, err
	}
	if err := s.Delete(name); err != nil {
		return "", 0, err
	}
	return newName, dropped, nil
}
