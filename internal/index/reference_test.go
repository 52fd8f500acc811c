package index

import "encoding/binary"

// marshalShareEntry is the frozen reference encoder of the share entry
// layout (view.go), kept beside referenceUnmarshal: production code only
// derives encodings from an entryView. It walks the Refs map, so the ref
// order of its output varies from run to run.
func marshalShareEntry(e *ShareEntry) []byte {
	out := make([]byte, 0, 4+len(e.Container)+4+4+len(e.Refs)*12+1)
	out = binary.BigEndian.AppendUint32(out, uint32(len(e.Container)))
	out = append(out, e.Container...)
	out = binary.BigEndian.AppendUint32(out, e.Size)
	out = binary.BigEndian.AppendUint32(out, uint32(len(e.Refs)))
	for u, c := range e.Refs {
		out = binary.BigEndian.AppendUint64(out, u)
		out = binary.BigEndian.AppendUint32(out, c)
	}
	if e.Damaged {
		out = append(out, shareFlagDamaged)
	}
	return out
}

// PutShare stores or replaces an entry wholesale: how tests seed an
// index with a given state.
func (ix *Index) PutShare(e *ShareEntry) error {
	sh := &ix.shards[shardOf(e.Fingerprint)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.put(e.Fingerprint, marshalShareEntry(e))
}
