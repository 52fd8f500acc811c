// Package lsmkv is an embedded log-structured merge-tree key-value store,
// the repo's stand-in for LevelDB (§4.4: "Our prototype manages file and
// share indices using LevelDB ... maintains key-value pairs in an LSM
// tree ... uses a Bloom filter and a block cache to speed up lookups").
//
// Writes land in a write-ahead log and an in-memory hash memtable; full
// memtables are sorted and flushed to immutable sorted-string tables
// (SSTables) with per-table Bloom filters; reads consult the memtable
// then tables newest to oldest through an LRU block cache;
// background-free, explicit compaction merges tables and drops deletion
// tombstones.
package lsmkv

import (
	"bytes"
	"slices"
	"strings"
)

// memtable is the in-memory write buffer: a hash map, because the
// traffic is point reads and overwrites. Key order is produced only by
// entries(), at flush and scan time. Values may be tombstones (deleted
// markers) which the DB layer interprets. It has no lock of its own:
// the DB's mutex orders every access.
type memtable struct {
	m    map[string]*memValue
	size int // total key+value bytes, for flush threshold accounting
}

type memValue struct {
	value     []byte
	tombstone bool
}

func newMemtable() *memtable {
	return &memtable{m: make(map[string]*memValue)}
}

// put inserts or replaces key with a copy of value; tombstone marks a
// deletion. A stored value is never written again — an overwrite swaps
// in a new slice — so slices handed out by get stay valid.
func (t *memtable) put(key, value []byte, tombstone bool) {
	value = append([]byte(nil), value...)
	if e, ok := t.m[string(key)]; ok {
		t.size += len(value) - len(e.value)
		e.value, e.tombstone = value, tombstone
		return
	}
	t.m[string(key)] = &memValue{value: value, tombstone: tombstone}
	t.size += len(key) + len(value)
}

// get returns (value, tombstone, found). value aliases the stored bytes.
func (t *memtable) get(key []byte) ([]byte, bool, bool) {
	e, ok := t.m[string(key)]
	if !ok {
		return nil, false, false
	}
	return e.value[:len(e.value):len(e.value)], e.tombstone, true
}

// approximateSize returns the stored key+value byte volume.
func (t *memtable) approximateSize() int { return t.size }

// entries returns all entries in key order (including tombstones).
func (t *memtable) entries() []kvEntry {
	out := t.snapshot(nil)
	sortEntries(out)
	return out
}

// snapshot returns the entries whose key has the given prefix (tombstones
// included), unsorted, so a scan can sort them after letting go of the
// store lock. Values are shared with the table: never written again.
func (t *memtable) snapshot(prefix []byte) []kvEntry {
	var out []kvEntry
	want := string(prefix)
	for k, e := range t.m {
		if strings.HasPrefix(k, want) {
			out = append(out, kvEntry{key: []byte(k), value: e.value, tombstone: e.tombstone})
		}
	}
	return out
}

func sortEntries(es []kvEntry) {
	slices.SortFunc(es, func(a, b kvEntry) int { return bytes.Compare(a.key, b.key) })
}

// kvEntry is one key-value record flowing between memtable, WAL, and
// SSTables.
type kvEntry struct {
	key       []byte
	value     []byte
	tombstone bool
}
