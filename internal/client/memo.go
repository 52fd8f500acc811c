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

// secretMemo is the session's LRU of decoded secrets, keyed by row (see
// rowKey). Only a secret that passed the scheme's integrity checks in
// this session is ever donated, so a hit is a read of bytes the session
// verified; it says nothing about what the clouds hold now. Entries own
// their buffers, and an evicted buffer goes back to the pool the decode
// workers draw from. The budget counts secret bytes: the pool hands a
// decode any idle buffer large enough, so the memory behind the entries
// can exceed it by up to the ratio of the largest secret to the mean one
// (nothing for fixed-size chunks, two for the default chunkers).
//
// It is not a cache.LRU because a reader must copy an entry out under the
// same lock an eviction recycles its buffer under, and because a hit or a
// steady-state donation must not allocate.
type secretMemo struct {
	mu       sync.Mutex
	capacity int64 // restoreMemoBytes; a field so tests can tighten it
	used     int64
	rows     map[rowKey]*memoEntry
	// lru is the sentinel of the circular recency list: lru.next is the
	// most recently used entry, lru.prev the next to be evicted.
	lru  memoEntry
	pool *secretshare.SharePool
}

type memoEntry struct {
	key        rowKey
	secret     []byte
	prev, next *memoEntry
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

// touch reports whether the memo holds key, making it the most recently
// used entry if so.
func (m *secretMemo) touch(key rowKey) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.rows[key]
	if ok {
		m.unlink(e)
		m.pushFront(e)
	}
	return ok
}

// appendTo appends key's secret to dst. The copy is what lets an eviction
// recycle the entry's buffer the moment the lock is released.
func (m *secretMemo) appendTo(dst []byte, key rowKey) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.rows[key]
	if !ok {
		return dst, false
	}
	return append(dst, e.secret...), true
}

// donate hands the memo a verified secret in a buffer from its pool. The
// memo owns the buffer from here on: it keeps it as key's entry, evicting
// from the cold end to stay within capacity, or — the row is already held,
// or the secret alone exceeds the budget — returns it to the pool.
func (m *secretMemo) donate(key rowKey, secret []byte) {
	charge := int64(len(secret))
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, held := m.rows[key]; held || charge > m.capacity {
		m.pool.Put(secret)
		return
	}
	var e *memoEntry // an evicted entry's struct serves the new one
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
	e.key, e.secret = key, secret
	m.rows[key] = e
	m.pushFront(e)
	m.used += charge
}

// drop forgets every entry; the buffers are left to the garbage collector.
func (m *secretMemo) drop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	clear(m.rows)
	m.lru.prev, m.lru.next = &m.lru, &m.lru
	m.used = 0
}
