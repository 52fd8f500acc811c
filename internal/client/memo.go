package client

import (
	"sync"

	"cdstore/internal/secretshare"
)

// restoreMemoBytes bounds the session memo (Client.memo), so a session
// restoring the same row many times — in one file or across files —
// fetches, decodes and verifies it once, and one repairing it rebuilds it
// once: restores then pay egress and CPU for distinct bytes only, the
// dedup-aware read the paper's cost argument wants. It is also the most
// plaintext a session keeps beyond the window in flight.
const restoreMemoBytes = 32 << 20

// memoEntryFloor is the least an entry is charged, whatever its value's
// length, so that its bookkeeping (struct and map slot, under 200 bytes)
// stays a fraction of its charge. It bounds 32-byte repair rows at 64k a
// session; every secret of the default chunkers (2 KiB and up, a file's
// last chunk aside) is charged its length.
const memoEntryFloor = 512

// rowMemo is the session's memo of rows (see rowKey), the one place a
// Client remembers what its session learned about a row. A row key is
// hashed over a target, so the two kinds of entry never share a key:
//
//   - a restore's (key over noTarget) holds a decoded secret that passed
//     the scheme's integrity checks in this session, so a hit is a read
//     of bytes the session verified; it says nothing about what the
//     clouds hold now;
//   - a repair's (key over its target) holds the 32-byte fingerprint of
//     the share a finished Repair rebuilt and the target acknowledged;
//     it claims the target held that share then, which the next repair
//     asks the target to confirm before trusting it.
//
// Entries own their buffers, drawn from the decode workers' pool, and an
// evicted buffer goes back to it. Each is charged max(len(value),
// memoEntryFloor), and the pool rounds a buffer up by under a quarter, so
// the heap behind the budget stays under 1.6 times it for any value size
// (go1.24, amd64): 1.59 at worst, for values just over the floor (a
// 513-byte secret takes a 640-byte buffer), 1.04 for 4 KiB secrets and
// 0.6 for 32-byte rows.
//
// Eviction follows the running restores' plans, not recency alone. An
// entry carries a pin count: the positions that running restores, which
// know every row their file reads, have still to write from it (see
// rowUse). A pinned entry is never evicted; among the others the least
// recently used goes first, and a value that finds only pinned entries
// in its way is not kept at all. So a file larger than the budget,
// restored after one it shares most of its rows with, keeps the shared
// rows the memo held when it started instead of pushing them out with
// its first new ones. A repair pins nothing: its rows are settled before
// it runs.
//
// It is not a storage.LRU because a reader must copy an entry out under
// the same lock an eviction recycles its buffer under, and because a hit,
// a pin, a release or a steady-state donation must not allocate.
type rowMemo struct {
	mu       sync.Mutex
	capacity int64 // restoreMemoBytes; a field so tests can tighten it
	used     int64 // charges of every entry
	pinned   int64 // charges of the entries with pins, within used
	rows     map[rowKey]*memoEntry
	// lru is the sentinel of the circular recency list of unpinned
	// entries: lru.next is the most recently used, lru.prev the next to be
	// evicted. A pinned entry is off the list.
	lru  memoEntry
	pool *secretshare.SharePool
}

type memoEntry struct {
	key        rowKey
	value      []byte
	pins       int
	prev, next *memoEntry
}

// charge is what an entry of value counts against the budget.
func charge(value []byte) int64 { return int64(max(len(value), memoEntryFloor)) }

// rowUse is one restore's hold on a distinct row of its file: the
// positions still to be written, and the row's memo entry while it
// carries them as pins (nil otherwise). A pinned entry is neither evicted
// nor recycled, nor its value replaced, so the restore reads its value
// in place, without the lock, until it gives the pins back.
type rowUse struct {
	key   rowKey
	left  int
	entry *memoEntry
}

func newRowMemo(capacity int64, pool *secretshare.SharePool) *rowMemo {
	m := &rowMemo{capacity: capacity, rows: make(map[rowKey]*memoEntry), pool: pool}
	m.lru.prev, m.lru.next = &m.lru, &m.lru
	return m
}

func (m *rowMemo) unlink(e *memoEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (m *rowMemo) pushFront(e *memoEntry) {
	e.prev, e.next = &m.lru, m.lru.next
	e.prev.next, e.next.prev = e, e
}

// pin adds n > 0 pins to e, taking it out of eviction's reach.
func (m *rowMemo) pin(e *memoEntry, n int) {
	if e.pins == 0 {
		m.unlink(e)
		m.pinned += charge(e.value)
	}
	e.pins += n
}

// unpin releases n of e's pins; an entry left with none becomes the most
// recently used.
func (m *rowMemo) unpin(e *memoEntry, n int) {
	if e.pins -= n; e.pins == 0 {
		m.pinned -= charge(e.value)
		m.pushFront(e)
	}
}

// pinFile pins every entry a restore's file reads by the number of times
// it reads it, recording each pinned entry in its row's use.
func (m *rowMemo) pinFile(uses []rowUse) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range uses {
		if e, ok := m.rows[uses[i].key]; ok {
			m.pin(e, uses[i].left)
			uses[i].entry = e
		}
	}
}

// release gives back every pin a restore still holds, by its rows' uses.
func (m *rowMemo) release(uses []rowUse) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, u := range uses {
		if u.entry != nil && u.left > 0 && m.held(u.entry) {
			m.unpin(u.entry, u.left)
		}
	}
}

// held reports whether e is still the memo's entry for its key: drop may
// have forgotten it since a restore pinned it.
func (m *rowMemo) held(e *memoEntry) bool { return m.rows[e.key] == e }

// touch reports whether the memo holds key, making it the most recently
// used entry if so and unpinned.
func (m *rowMemo) touch(key rowKey) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.rows[key]
	if ok && e.pins == 0 {
		m.unlink(e)
		m.pushFront(e)
	}
	return ok
}

// appendTo appends key's value to dst, making an unpinned entry the most
// recently used. The copy is what lets an eviction recycle the entry's
// buffer the moment the lock is released: it is how a reader holding no
// pin on the entry reads it.
func (m *rowMemo) appendTo(dst []byte, key rowKey) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.rows[key]
	if !ok {
		return dst, false
	}
	dst = append(dst, e.value...)
	if e.pins == 0 {
		m.unlink(e)
		m.pushFront(e)
	}
	return dst, true
}

// unpinOne gives back one of a restore's pins on e, once it has read the
// value in place.
func (m *rowMemo) unpinOne(e *memoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.held(e) {
		m.unpin(e, 1)
	}
}

// donate hands the memo a value in a buffer from its pool — a verified
// secret or a rebuilt row's fingerprint — with pins for the uses the
// donor's file still has for it, and returns key's entry if it now
// carries them, nil otherwise. The memo owns the buffer from here on: it
// keeps it as key's entry, evicting unpinned entries from the cold end to
// stay within capacity, or — the row is already held (the pins go to that
// entry), or the value does not fit beside the pinned entries — returns
// it to the pool.
func (m *rowMemo) donate(key rowKey, value []byte, pins int) *memoEntry {
	c := charge(value)
	m.mu.Lock()
	defer m.mu.Unlock()
	e, held := m.rows[key]
	if held {
		m.pool.Put(value)
	} else {
		if m.pinned+c > m.capacity {
			m.pool.Put(value)
			return nil
		}
		// e is nil here: an evicted entry's struct serves the new one.
		for m.used+c > m.capacity {
			e = m.lru.prev
			m.unlink(e)
			delete(m.rows, e.key)
			m.used -= charge(e.value)
			m.pool.Put(e.value)
		}
		if e == nil {
			e = new(memoEntry)
		}
		e.key, e.value, e.pins = key, value, 0
		m.rows[key] = e
		m.used += c
		m.pushFront(e)
	}
	if pins == 0 {
		return nil
	}
	m.pin(e, pins)
	return e
}

// drop forgets every entry, pinned or not; the buffers are left to the
// garbage collector.
func (m *rowMemo) drop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.rows)
	m.lru.prev, m.lru.next = &m.lru, &m.lru
	m.used, m.pinned = 0, 0
}
