package lsmkv

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
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
	// SyncWAL fsyncs the write-ahead log at every Put, PutBatch, Delete
	// and Commit. Slow but maximally durable. Default false (the log is
	// handed to the OS on Sync/Flush/Close).
	SyncWAL bool
}

// blockCachePerMemtable sizes a DB's SSTable block cache by its memtable
// bound (8 MiB at the default): a store opened to buffer more writes
// keeps proportionally more of what it flushed within a point read's reach.
const blockCachePerMemtable = 2

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
		cache: cache.NewLRU(int64(blockCachePerMemtable * o.MemtableBytes)),
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
	db.wal, err = openWAL(walPath)
	if err != nil {
		return nil, err
	}
	return db, nil
}

func tableID(path string) int {
	id, err := strconv.Atoi(strings.TrimSuffix(filepath.Base(path), ".sst"))
	if err != nil {
		return -1
	}
	return id
}

// Put stores value under key, overwriting any previous value.
func (db *DB) Put(key, value []byte) error {
	return db.PutBatch([][]byte{key}, [][]byte{value})
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
	if err := db.Append(keys, values); err != nil {
		return err
	}
	return db.Commit()
}

// Delete removes key. Deleting an absent key is not an error.
func (db *DB) Delete(key []byte) error {
	if err := db.AppendDelete(key); err != nil {
		return err
	}
	return db.Commit()
}

// Append is PutBatch without the durability point: the records are
// readable when it returns, and the next Commit — by any caller — makes
// them durable with everything appended before them. A caller writing
// several groups (the share index: one per stripe) pays for it once.
func (db *DB) Append(keys, values [][]byte) error {
	if len(keys) != len(values) {
		return fmt.Errorf("lsmkv: got %d keys, %d values", len(keys), len(values))
	}
	return db.append(walOpPut, keys, values)
}

// AppendDelete is Delete without the durability point; see Append.
func (db *DB) AppendDelete(key []byte) error {
	return db.append(walOpDelete, [][]byte{key}, [][]byte{nil})
}

func (db *DB) append(op byte, keys, values [][]byte) error {
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
	for i, k := range keys {
		if err := db.wal.writeRecord(op, k, values[i]); err != nil {
			return err
		}
	}
	for i, k := range keys {
		db.mem.put(k, values[i], op == walOpDelete)
	}
	return db.maybeFlushLocked()
}

// Commit is the durability point of every record appended so far: under
// SyncWAL one fsync however many records and Append calls; otherwise
// nothing (Sync, Flush and Close hand the buffer over).
func (db *DB) Commit() error {
	if !db.opts.SyncWAL {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.wal.commit()
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
	return db.wal.w.Flush()
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
	if err := db.addTable(entries); err != nil {
		return err
	}
	db.mem = newMemtable()
	// Empty the WAL: its contents are now durable in the table.
	return db.wal.reset()
}

// addTable writes entries (sorted, not empty) as the newest SSTable.
func (db *DB) addTable(entries []kvEntry) error {
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
	return nil
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
	entries, _, err := mergeRange(nil, math.MaxInt, db.tables, nil, nil, nil)
	if err != nil {
		return err
	}
	// Full compaction: deletions are dropped entirely.
	entries = slices.DeleteFunc(entries, func(e kvEntry) bool { return e.tombstone })
	old := db.tables
	db.tables = nil
	if len(entries) > 0 {
		if err := db.addTable(entries); err != nil {
			db.tables = old
			return err
		}
	}
	for _, t := range old {
		t.close()
		os.Remove(t.path)
	}
	db.cache.Purge() // cached blocks of removed tables are dead
	return nil
}

// mergeRange appends to out, in key order and up to limit entries, the
// newest version (tombstones included) of every key >= from with the
// given prefix: later tables shadow earlier ones and mem, sorted, shadows
// them all. It seeks — nothing before from is read — and returns what it
// left of mem.
func mergeRange(out []kvEntry, limit int, tables []*ssTable, mem []kvEntry, prefix, from []byte) ([]kvEntry, []kvEntry, error) {
	its := make([]tableIter, len(tables))
	for i, t := range tables {
		var err error
		if its[i], err = t.seek(from); err != nil {
			return out, mem, err
		}
	}
	for len(out) < limit {
		// The smallest key at any source's head; of equal keys the
		// newest source's version.
		var best *kvEntry
		for i := range its {
			if its[i].valid && (best == nil || bytes.Compare(its[i].cur.key, best.key) <= 0) {
				best = &its[i].cur
			}
		}
		if len(mem) > 0 && (best == nil || bytes.Compare(mem[0].key, best.key) <= 0) {
			best = &mem[0]
		}
		if best == nil || !bytes.HasPrefix(best.key, prefix) {
			break
		}
		out = append(out, *best)
		key := out[len(out)-1].key
		for i := range its {
			if its[i].valid && bytes.Equal(its[i].cur.key, key) {
				if err := its[i].advance(); err != nil {
					return out, mem, err
				}
			}
		}
		if len(mem) > 0 && bytes.Equal(mem[0].key, key) {
			mem = mem[1:]
		}
	}
	return out, mem, nil
}

// scanChunk is how many entries a Scan merges per hold of the store lock:
// enough to amortise the seeks that start a range, few enough (a few
// hundred microseconds) that writers never queue behind a whole scan.
const scanChunk = 1024

// Scan calls fn with every live key-value pair whose key has the given
// prefix, in key order. fn's slices are only valid during the call.
// Returning a non-nil error from fn stops the scan.
//
// The scan seeks to the prefix and reads nothing outside it. It sees the
// memtable as of the call and the tables as they are when it reaches
// each range of scanChunk keys: the store lock is released between
// ranges and while fn runs, so writes proceed during a scan (fn's own
// included). A key live throughout is visited exactly once; one written
// or deleted meanwhile at most once, in either state.
func (db *DB) Scan(prefix []byte, fn func(key, value []byte) error) error {
	db.mu.RLock()
	mem := db.mem.snapshot(prefix)
	db.mu.RUnlock()
	sortEntries(mem)

	chunk := make([]kvEntry, 0, scanChunk)
	from := prefix
	for {
		db.mu.RLock()
		if db.closed {
			db.mu.RUnlock()
			return ErrClosed
		}
		var err error
		chunk, mem, err = mergeRange(chunk[:0], scanChunk, db.tables, mem, prefix, from)
		db.mu.RUnlock()
		if err != nil {
			return err
		}
		for _, e := range chunk {
			if e.tombstone {
				continue
			}
			if err := fn(e.key, e.value); err != nil {
				return err
			}
		}
		if len(chunk) < scanChunk {
			return nil
		}
		// Resume at the successor of the last key merged.
		from = append(bytes.Clone(chunk[len(chunk)-1].key), 0)
	}
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
