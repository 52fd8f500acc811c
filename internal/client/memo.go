package client

import (
	"sync"

	"cdstore/internal/secretshare"
)

// restoreMemoBytes bounds the session memo of decoded secrets
// (Client.secrets), so a session restoring the same row many times — in
// one file or across files — fetches, decodes and verifies it once:
// restores then pay egress and CPU for distinct bytes only, the
// dedup-aware read the paper's cost argument wants. It is also the most
// plaintext a session keeps beyond the window in flight.
const restoreMemoBytes = 32 << 20

// secretMemo is the session's memo of decoded secrets, keyed by row (see
// rowKey). Only a secret that passed the scheme's integrity checks in
// this session is ever donated, so a hit is a read of bytes the session
// verified; it says nothing about what the clouds hold now. Entries own
// their buffers, and an evicted buffer goes back to the pool the decode
// workers draw from. The budget counts secret bytes: the pool hands a
// decode any idle buffer large enough, so the memory behind the entries
// can exceed it by up to the ratio of the largest secret to the mean one
// (nothing for fixed-size chunks, two for the default chunkers).
//
// Eviction follows the running restores' plans, not recency alone. An
// entry carries a pin count: the positions that running restores, which
// know every row their file reads, have still to write from it (see
// rowUse). A pinned entry is never evicted; among the others the least
// recently used goes first, and a secret that finds only pinned entries
// in its way is not kept at all. So a file larger than the budget,
// restored after one it shares most of its rows with, keeps the shared
// rows the memo held when it started instead of pushing them out with
// its first new ones.
//
// It is not a cache.LRU because a reader must copy an entry out under the
// same lock an eviction recycles its buffer under, and because a hit, a
// pin, a release or a steady-state donation must not allocate.
type secretMemo struct {
	mu       sync.Mutex
	capacity int64 // restoreMemoBytes; a field so tests can tighten it
	used     int64
	pinned   int64 // bytes of the entries with pins, within used
	rows     map[rowKey]*memoEntry
	// lru is the sentinel of the circular recency list of unpinned
	// entries: lru.next is the most recently used, lru.prev the next to be
	// evicted. A pinned entry is off the list.
	lru  memoEntry
	pool *secretshare.SharePool
}

type memoEntry struct {
	key        rowKey
	secret     []byte
	pins       int
	prev, next *memoEntry
}

// rowUse is one restore's hold on a distinct row of its file: the
// positions still to be written, and whether the row's memo entry carries
// them as pins.
type rowUse struct {
	key    rowKey
	left   int
	pinned bool
}

func newSecretMemo(capacity int64, pool *secretshare.SharePool) *secretMemo {
	m := &secretMemo{capacity: capacity, rows: make(map[rowKey]*memoEntry), pool: pool}
	m.lru.prev, m.lru.next = &m.lru, &m.lru
	return m
}

func (m *secretMemo) unlink(e *memoEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (m *secretMemo) pushFront(e *memoEntry) {
	e.prev, e.next = &m.lru, m.lru.next
	e.prev.next, e.next.prev = e, e
}

// pin adds n > 0 pins to e, taking it out of eviction's reach.
func (m *secretMemo) pin(e *memoEntry, n int) {
	if e.pins == 0 {
		m.unlink(e)
		m.pinned += int64(len(e.secret))
	}
	e.pins += n
}

// unpin releases n of e's pins; an entry left with none becomes the most
// recently used.
func (m *secretMemo) unpin(e *memoEntry, n int) {
	if e.pins -= n; e.pins == 0 {
		m.pinned -= int64(len(e.secret))
		m.pushFront(e)
	}
}

// pinFile pins every entry a restore's file reads by the number of times
// it reads it, marking those rows pinned in uses.
func (m *secretMemo) pinFile(uses []rowUse) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range uses {
		if e, ok := m.rows[uses[i].key]; ok {
			m.pin(e, uses[i].left)
			uses[i].pinned = true
		}
	}
}

// release gives back every pin a restore still holds, by its rows' uses.
func (m *secretMemo) release(uses []rowUse) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, u := range uses {
		if !u.pinned || u.left == 0 {
			continue
		}
		if e, ok := m.rows[u.key]; ok {
			m.unpin(e, u.left)
		}
	}
}

// touch reports whether the memo holds key, making it the most recently
// used entry if so and unpinned.
func (m *secretMemo) touch(key rowKey) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.rows[key]
	if ok && e.pins == 0 {
		m.unlink(e)
		m.pushFront(e)
	}
	return ok
}

// appendTo appends key's secret to dst, releasing one of its pins if the
// reader held one. The copy is what lets an eviction recycle the entry's
// buffer the moment the lock is released.
func (m *secretMemo) appendTo(dst []byte, key rowKey, release bool) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.rows[key]
	if !ok {
		return dst, false
	}
	dst = append(dst, e.secret...)
	if release {
		m.unpin(e, 1)
	}
	return dst, true
}

// donate hands the memo a verified secret in a buffer from its pool,
// with pins for the uses the donor's file still has for it, and reports
// whether key's entry now carries them. The memo owns the buffer from
// here on: it keeps it as key's entry, evicting unpinned entries from the
// cold end to stay within capacity, or — the row is already held (the
// pins go to that entry), or the secret does not fit beside the pinned
// entries — returns it to the pool.
func (m *secretMemo) donate(key rowKey, secret []byte, pins int) bool {
	charge := int64(len(secret))
	m.mu.Lock()
	defer m.mu.Unlock()
	e, held := m.rows[key]
	if held {
		m.pool.Put(secret)
	} else {
		if m.pinned+charge > m.capacity {
			m.pool.Put(secret)
			return false
		}
		// e is nil here: an evicted entry's struct serves the new one.
		for m.used+charge > m.capacity {
			e = m.lru.prev
			m.unlink(e)
			delete(m.rows, e.key)
			m.used -= int64(len(e.secret))
			m.pool.Put(e.secret)
		}
		if e == nil {
			e = new(memoEntry)
		}
		e.key, e.secret, e.pins = key, secret, 0
		m.rows[key] = e
		m.used += charge
		m.pushFront(e)
	}
	if pins > 0 {
		m.pin(e, pins)
	}
	return pins > 0
}

// drop forgets every entry, pinned or not; the buffers are left to the
// garbage collector.
func (m *secretMemo) drop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.rows)
	m.lru.prev, m.lru.next = &m.lru, &m.lru
	m.used, m.pinned = 0, 0
}
