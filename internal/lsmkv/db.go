package lsmkv

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cdstore/internal/cache"
)

// Options configures a DB.
type Options struct {
	// MemtableBytes is the flush threshold for the in-memory table.
	// Default 4MB.
	MemtableBytes int
	// MaxTables triggers a full compaction when the number of SSTables
	// exceeds it. Default 6.
	MaxTables int
	// SyncWAL fsyncs the write-ahead log on every mutation. Slow but
	// maximally durable. Default false (flush on Close/Flush).
	SyncWAL bool
}

// blockCacheBytes bounds a DB's SSTable block cache.
const blockCacheBytes = 8 << 20

func (o *Options) withDefaults() Options {
	out := Options{MemtableBytes: 4 << 20, MaxTables: 6}
	if o != nil {
		if o.MemtableBytes > 0 {
			out.MemtableBytes = o.MemtableBytes
		}
		if o.MaxTables > 0 {
			out.MaxTables = o.MaxTables
		}
		out.SyncWAL = o.SyncWAL
	}
	return out
}

// ErrNotFound is returned by Get for absent keys.
var ErrNotFound = errors.New("lsmkv: key not found")

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("lsmkv: database is closed")

// DB is an LSM-tree key-value store rooted at a directory.
type DB struct {
	mu     sync.RWMutex
	dir    string
	opts   Options
	mem    *memtable
	wal    *wal
	tables []*ssTable // oldest first; later tables shadow earlier ones
	nextID int
	cache  *cache.LRU
	closed bool
}

// Open opens (or creates) a database in dir, replaying any write-ahead
// log left by a previous process.
func Open(dir string, opts *Options) (*DB, error) {
	o := opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	db := &DB{
		dir:   dir,
		opts:  o,
		mem:   newMemtable(),
		cache: cache.NewLRU(blockCacheBytes),
	}
	// Load existing tables in ID order.
	names, err := filepath.Glob(filepath.Join(dir, "*.sst"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	for _, name := range names {
		t, err := openSSTable(name, db.cache)
		if err != nil {
			return nil, err
		}
		db.tables = append(db.tables, t)
		if id := tableID(name); id >= db.nextID {
			db.nextID = id + 1
		}
	}
	// Replay the WAL into the memtable, then cut any torn tail so the
	// appends that follow are reachable by the next replay.
	walPath := filepath.Join(dir, "wal.log")
	valid, err := replayWAL(walPath, func(op byte, key, value []byte) error {
		db.mem.put(key, value, op == walOpDelete)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if fi, err := os.Stat(walPath); err == nil && fi.Size() > valid {
		if err := os.Truncate(walPath, valid); err != nil {
			return nil, err
		}
	}
	db.wal, err = openWAL(walPath, o.SyncWAL)
	if err != nil {
		return nil, err
	}
	return db, nil
}

func tableID(path string) int {
	base := strings.TrimSuffix(filepath.Base(path), ".sst")
	id, err := strconv.Atoi(base)
	if err != nil {
		return -1
	}
	return id
}

// Put stores value under key, overwriting any previous value.
func (db *DB) Put(key, value []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("lsmkv: empty key")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if err := db.wal.append(walOpPut, key, value); err != nil {
		return err
	}
	db.mem.put(key, value, false)
	return db.maybeFlushLocked()
}

// PutBatch stores every keys[i]/values[i] pair atomically with respect
// to durability: the whole group is appended to the WAL and made durable
// with a single flush (and, under SyncWAL, a single fsync) before any
// entry is acknowledged. This is the group-commit primitive — same
// durability point as N calls to Put, ~N× fewer fsyncs.
//
// On error nothing is acknowledged; replay after a crash recovers the
// durable prefix of the group (records are individually checksummed).
func (db *DB) PutBatch(keys, values [][]byte) error {
	if len(keys) != len(values) {
		return fmt.Errorf("lsmkv: PutBatch got %d keys, %d values", len(keys), len(values))
	}
	if len(keys) == 0 {
		return nil
	}
	for _, k := range keys {
		if len(k) == 0 {
			return fmt.Errorf("lsmkv: empty key")
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if err := db.wal.appendBatch(walOpPut, keys, values); err != nil {
		return err
	}
	for i := range keys {
		db.mem.put(keys[i], values[i], false)
	}
	return db.maybeFlushLocked()
}

// Delete removes key. Deleting an absent key is not an error.
func (db *DB) Delete(key []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("lsmkv: empty key")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if err := db.wal.append(walOpDelete, key, nil); err != nil {
		return err
	}
	db.mem.put(key, nil, true)
	return db.maybeFlushLocked()
}

// Get returns a copy of the value stored under key, or ErrNotFound.
func (db *DB) Get(key []byte) ([]byte, error) {
	v, err := db.Peek(key)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), v...), nil
}

// Peek is Get without the copy, for callers that only inspect the
// value: the returned slice aliases the memtable or a cached SSTable
// block and MUST NOT be written to. It stays valid (stored values are
// replaced, never overwritten in place) but pins its block while held.
func (db *DB) Peek(key []byte) ([]byte, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return nil, ErrClosed
	}
	if v, tomb, ok := db.mem.get(key); ok {
		if tomb {
			return nil, ErrNotFound
		}
		return v, nil
	}
	for i := len(db.tables) - 1; i >= 0; i-- {
		v, tomb, ok, err := db.tables[i].get(key)
		if err != nil {
			return nil, err
		}
		if ok {
			if tomb {
				return nil, ErrNotFound
			}
			return v, nil
		}
	}
	return nil, ErrNotFound
}

// maybeFlushLocked flushes the memtable when it exceeds the threshold and
// compacts when too many tables accumulate. Caller holds db.mu.
func (db *DB) maybeFlushLocked() error {
	if db.mem.approximateSize() < db.opts.MemtableBytes {
		return nil
	}
	if err := db.flushLocked(); err != nil {
		return err
	}
	if len(db.tables) > db.opts.MaxTables {
		return db.compactLocked()
	}
	return nil
}

// Sync hands every buffered WAL record to the operating system without
// building an SSTable: a cheap checkpoint after which the process can
// die and replay-on-open restores every acknowledged write. It does not
// fsync; Options.SyncWAL governs that at each commit.
func (db *DB) Sync() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.wal.flush()
}

// Flush persists the memtable to a new SSTable and truncates the WAL.
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.flushLocked()
}

func (db *DB) flushLocked() error {
	entries := db.mem.entries()
	if len(entries) == 0 {
		return nil
	}
	path := filepath.Join(db.dir, fmt.Sprintf("%08d.sst", db.nextID))
	if err := writeSSTable(path, entries); err != nil {
		return err
	}
	t, err := openSSTable(path, db.cache)
	if err != nil {
		return err
	}
	db.nextID++
	db.tables = append(db.tables, t)
	db.mem = newMemtable()
	// Empty the WAL: its contents are now durable in the table.
	return db.wal.reset()
}

// Compact merges every SSTable (and the memtable) into a single table,
// dropping tombstones and shadowed versions.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if err := db.flushLocked(); err != nil {
		return err
	}
	return db.compactLocked()
}

func (db *DB) compactLocked() error {
	if len(db.tables) <= 1 {
		return nil
	}
	// Newest version wins: iterate oldest->newest into a map-like merge.
	merged := make(map[string]kvEntry)
	for _, t := range db.tables {
		err := t.iterate(func(e kvEntry) error {
			merged[string(e.key)] = e
			return nil
		})
		if err != nil {
			return err
		}
	}
	keys := make([]string, 0, len(merged))
	for k, e := range merged {
		if e.tombstone {
			continue // full compaction: drop deletions entirely
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	entries := make([]kvEntry, 0, len(keys))
	for _, k := range keys {
		entries = append(entries, merged[k])
	}
	path := filepath.Join(db.dir, fmt.Sprintf("%08d.sst", db.nextID))
	if len(entries) > 0 {
		if err := writeSSTable(path, entries); err != nil {
			return err
		}
	}
	old := db.tables
	db.tables = nil
	if len(entries) > 0 {
		t, err := openSSTable(path, db.cache)
		if err != nil {
			return err
		}
		db.tables = []*ssTable{t}
	}
	db.nextID++
	for _, t := range old {
		t.close()
		os.Remove(t.path)
	}
	db.cache.Purge() // cached blocks of removed tables are dead
	return nil
}

// Scan calls fn with every live key-value pair whose key has the given
// prefix, in key order. fn's slices are only valid during the call.
// Returning a non-nil error from fn stops the scan. fn must not call
// Put, Delete, Flush, or Compact on the same DB — Scan holds the store's
// read lock, so a write from inside fn deadlocks; collect during the
// scan and write afterwards.
func (db *DB) Scan(prefix []byte, fn func(key, value []byte) error) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	// Merge: collect newest version of each key across tables + memtable.
	merged := make(map[string]kvEntry)
	for _, t := range db.tables {
		err := t.iterate(func(e kvEntry) error {
			if bytes.HasPrefix(e.key, prefix) {
				merged[string(e.key)] = e
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	for _, e := range db.mem.entries() {
		if bytes.HasPrefix(e.key, prefix) {
			merged[string(e.key)] = e
		}
	}
	keys := make([]string, 0, len(merged))
	for k, e := range merged {
		if !e.tombstone {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		e := merged[k]
		if err := fn(e.key, e.value); err != nil {
			return err
		}
	}
	return nil
}

// Count returns the number of live keys (linear scan; intended for tests
// and stats, not hot paths).
func (db *DB) Count() (int, error) {
	n := 0
	err := db.Scan(nil, func(_, _ []byte) error { n++; return nil })
	return n, err
}

// Stats describes the store's current shape.
type Stats struct {
	Tables        int
	MemtableBytes int
	CacheHits     uint64
	CacheMisses   uint64
	// WALSyncs counts fsyncs issued by the write-ahead log since Open.
	// Under SyncWAL, a PutBatch of N records costs one sync, not N —
	// the observable that group commit is working.
	WALSyncs uint64
}

// Stats returns operational counters.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	h, m := db.cache.Stats()
	return Stats{
		Tables:        len(db.tables),
		MemtableBytes: db.mem.approximateSize(),
		CacheHits:     h,
		CacheMisses:   m,
		WALSyncs:      db.wal.syncs.Load(),
	}
}

// Close flushes and releases the database.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	var firstErr error
	if err := db.wal.close(); err != nil {
		firstErr = err
	}
	for _, t := range db.tables {
		if err := t.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
