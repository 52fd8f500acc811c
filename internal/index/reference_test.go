package index

import (
	"encoding/binary"
	"fmt"

	"cdstore/internal/metadata"
)

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

// ReserveShare is the blocking, one-fingerprint form of TryReserveShare,
// the reference the batched put path is tested against: if another
// session's reservation is in flight it waits for the outcome and
// re-classifies. reserved=true means the caller must place the bytes
// and CommitShare (or AbortShare). Per the deadlock rule (shard.go), do
// not call this while holding uncommitted reservations.
func (ix *Index) ReserveShare(fp metadata.Fingerprint, userID uint64, size uint32) (reserved bool, err error) {
	for {
		st, err := ix.TryReserveShare(fp, userID, size)
		if err != nil {
			return false, err
		}
		switch st {
		case StatusReserved:
			return true, nil
		case StatusDuplicate:
			return false, nil
		case StatusPending:
			ix.WaitShare(fp)
		}
	}
}

// CommitShare is the one-fingerprint reference of CommitShares: it
// persists a reserved share's entry now that its bytes live in the named
// container, then wakes any sessions waiting on the reservation (they
// re-classify and find a committed duplicate).
func (ix *Index) CommitShare(fp metadata.Fingerprint, containerName string) error {
	sh := &ix.shards[shardOf(fp)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	pe, ok := sh.pending[fp]
	if !ok {
		return fmt.Errorf("index: commit of unreserved share %s", fp)
	}
	delete(sh.pending, fp)
	close(pe.done)
	if err := durable(ix.shares, sh.put(fp, pe.view.withContainer(containerName).raw)); err != nil {
		return err
	}
	if pe.repair {
		ix.repairs.Add(1)
	}
	return nil
}
