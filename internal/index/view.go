package index

import (
	"encoding/binary"
	"fmt"
)

// Persisted share entry:
//
//	[clen:4][container][size:4][nrefs:4] nrefs × [user:8][count:4] [flags:1]?
//
// The flags byte is optional so entries persisted before it existed
// still decode; it is only written when a flag is set, keeping the
// common healthy entry at its old size.

// shareFlagDamaged is the bit MarkSharesDamaged sets in the flags byte.
const shareFlagDamaged = 1 << 0

const refSize = 12

// entryView answers questions about a persisted share entry in place,
// without materialising a ShareEntry. raw usually aliases memtable or
// block-cache bytes (lsmkv.DB.Peek), so a view is READ-ONLY: every
// with* method builds a fresh encoding and never writes through raw.
type entryView struct {
	raw  []byte
	refs int // offset of the first ref record
	n    int // number of ref records
}

// parseEntry validates raw's framing; it is the only decoder of the
// format (unmarshalShareEntry materialises from a view).
func parseEntry(raw []byte) (entryView, error) {
	if len(raw) < 12 {
		return entryView{}, fmt.Errorf("index: short share entry")
	}
	clen := int(binary.BigEndian.Uint32(raw))
	if 4+clen+8 > len(raw) {
		return entryView{}, fmt.Errorf("index: corrupt share entry")
	}
	v := entryView{raw: raw, refs: 4 + clen + 8}
	v.n = int(binary.BigEndian.Uint32(raw[v.refs-4:]))
	switch len(raw) - v.refs {
	case v.n * refSize: // legacy layout, no flags byte
	case v.n*refSize + 1:
		if flags := raw[len(raw)-1]; flags&^byte(shareFlagDamaged) != 0 {
			return entryView{}, fmt.Errorf("index: unknown share entry flags %#x", flags)
		}
	default:
		return entryView{}, fmt.Errorf("index: corrupt share refs")
	}
	return v, nil
}

func (v entryView) container() []byte { return v.raw[4 : v.refs-8] }
func (v entryView) size() uint32      { return binary.BigEndian.Uint32(v.raw[v.refs-8:]) }

func (v entryView) damaged() bool {
	return len(v.raw) > v.refs+v.n*refSize && v.raw[len(v.raw)-1]&shareFlagDamaged != 0
}

// ref returns the i-th (user, count) record.
func (v entryView) ref(i int) (uint64, uint32) {
	p := v.refs + i*refSize
	return binary.BigEndian.Uint64(v.raw[p:]), binary.BigEndian.Uint32(v.raw[p+8:])
}

// find returns the position of user's ref record, or -1.
func (v entryView) find(user uint64) int {
	for i := 0; i < v.n; i++ {
		if binary.BigEndian.Uint64(v.raw[v.refs+i*refSize:]) == user {
			return i
		}
	}
	return -1
}

func (v entryView) owned(user uint64) bool { return v.find(user) >= 0 }

// count returns user's reference count; 0 for a non-owner and for an
// owner holding only the upload marker.
func (v entryView) count(user uint64) uint32 {
	if i := v.find(user); i >= 0 {
		_, c := v.ref(i)
		return c
	}
	return 0
}

// total is the sum of all users' reference counts.
func (v entryView) total() int {
	t := 0
	for i := 0; i < v.n; i++ {
		_, c := v.ref(i)
		t += int(c)
	}
	return t
}

// withRef adds delta to user's reference count, recording user as an
// owner first if absent (delta 0 is the §4.4 upload marker: ownership
// without a recipe reference yet). An unchanged entry is returned as is.
func (v entryView) withRef(user uint64, delta uint32) entryView {
	i := v.find(user)
	if i >= 0 && delta == 0 {
		return v
	}
	out := make([]byte, len(v.raw), len(v.raw)+refSize)
	copy(out, v.raw)
	if i >= 0 {
		_, c := v.ref(i)
		binary.BigEndian.PutUint32(out[v.refs+i*refSize+8:], c+delta)
		return entryView{raw: out, refs: v.refs, n: v.n}
	}
	end := v.refs + v.n*refSize
	out = binary.BigEndian.AppendUint64(out[:end], user)
	out = binary.BigEndian.AppendUint32(out, delta)
	out = append(out, v.raw[end:]...) // the flags byte, if any, stays last
	binary.BigEndian.PutUint32(out[v.refs-4:], uint32(v.n+1))
	return entryView{raw: out, refs: v.refs, n: v.n + 1}
}

// withoutRef takes m references from user, dropping the user as an
// owner when no more than m are held. A non-owner leaves the entry
// unchanged.
func (v entryView) withoutRef(user uint64, m uint32) entryView {
	i := v.find(user)
	if i < 0 {
		return v
	}
	p := v.refs + i*refSize
	if _, c := v.ref(i); c > m {
		out := append([]byte(nil), v.raw...)
		binary.BigEndian.PutUint32(out[p+8:], c-m)
		return entryView{raw: out, refs: v.refs, n: v.n}
	}
	out := make([]byte, 0, len(v.raw)-refSize)
	out = append(out, v.raw[:p]...)
	out = append(out, v.raw[p+refSize:]...)
	binary.BigEndian.PutUint32(out[v.refs-4:], uint32(v.n-1))
	return entryView{raw: out, refs: v.refs, n: v.n - 1}
}

// withContainer returns the entry as healthy bytes placed in container
// name: size and refs kept, damaged flag cleared.
func (v entryView) withContainer(name string) entryView { return v.placed(name, false) }

// withDamaged returns the entry flagged damaged with its container
// reference dropped (the bytes are gone); refs are kept, since every
// recipe referencing the share is still valid.
func (v entryView) withDamaged() entryView { return v.placed("", true) }

func (v entryView) placed(name string, damaged bool) entryView {
	out := make([]byte, 0, 4+len(name)+8+v.n*refSize+1)
	out = binary.BigEndian.AppendUint32(out, uint32(len(name)))
	out = append(out, name...)
	out = append(out, v.raw[v.refs-8:v.refs+v.n*refSize]...)
	if damaged {
		out = append(out, shareFlagDamaged)
	}
	return entryView{raw: out, refs: 4 + len(name) + 8, n: v.n}
}

// newEntry encodes a fresh container-less entry owned by user at count
// 0: the state of a reservation before its bytes are placed.
func newEntry(size uint32, user uint64) entryView {
	out := make([]byte, 4, 4+8+refSize)
	out = binary.BigEndian.AppendUint32(out, size)
	out = binary.BigEndian.AppendUint32(out, 1)
	out = binary.BigEndian.AppendUint64(out, user)
	out = binary.BigEndian.AppendUint32(out, 0)
	return entryView{raw: out, refs: 12, n: 1}
}
