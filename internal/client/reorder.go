package client

import (
	"sync"
	"sync/atomic"
)

// reorderRing resequences decode results for the restore writer. The
// previous shape — a shared results channel feeding a pending
// map[pos]decodedSecret — made every decode worker contend on one
// channel lock and cost a map insert+delete per secret even when
// results arrived nearly in order (the common case: windows decode
// roughly front to back). The ring shards that contention: position pos
// lives in slot pos%capacity under that slot's own mutex+cond, so
// workers completing different positions never touch the same lock, and
// the in-order consumer pays one slot handoff per secret, no hashing.
//
// Positions must be dispatched to producers in ascending order (the
// fetcher walks them sequentially), though producers may complete them
// in any order. Capacity should exceed the maximum producer lead over
// the consumer — pipeline window + decode threads covers it: at most
// one window queued in the jobs channel plus one job in each worker's
// hands — but correctness does not depend on that sizing: a producer
// running ahead of the consumer's current lap blocks on its slot until
// the consumer catches up.
type reorderRing struct {
	slots []reorderSlot
	// base is the consumer's next position; a producer holding a
	// position >= base+capacity waits for the consumer's lap.
	base    atomic.Uint64
	aborted atomic.Bool
}

type reorderSlot struct {
	mu   sync.Mutex
	cond sync.Cond
	full bool
	val  decodedSecret
}

func newReorderRing(capacity int) *reorderRing {
	if capacity < 1 {
		capacity = 1
	}
	r := &reorderRing{slots: make([]reorderSlot, capacity)}
	for i := range r.slots {
		r.slots[i].cond.L = &r.slots[i].mu
	}
	return r
}

// put parks d in its position's slot, blocking while the position is
// ahead of the consumer's current lap (which also covers a slot still
// holding an unconsumed result from a lap ago: consuming that result is
// exactly what advances the lap, and it signals this slot). It returns
// false once the ring is aborted; the caller abandons the result.
func (r *reorderRing) put(d decodedSecret) bool {
	cap := uint64(len(r.slots))
	s := &r.slots[d.seq%cap]
	s.mu.Lock()
	for (s.full || d.seq >= r.base.Load()+cap) && !r.aborted.Load() {
		s.cond.Wait()
	}
	if r.aborted.Load() {
		s.mu.Unlock()
		return false
	}
	s.val = d
	s.full = true
	s.cond.Broadcast()
	s.mu.Unlock()
	return true
}

// take removes and returns the result for position pos — the consumer
// must call it with strictly ascending positions from 0 — blocking
// until a producer delivers it. It returns ok=false once the ring is
// aborted with the slot still empty.
func (r *reorderRing) take(pos uint64) (decodedSecret, bool) {
	s := &r.slots[pos%uint64(len(r.slots))]
	s.mu.Lock()
	for !s.full && !r.aborted.Load() {
		s.cond.Wait()
	}
	if !s.full {
		s.mu.Unlock()
		return decodedSecret{}, false
	}
	d := s.val
	s.val = decodedSecret{}
	s.full = false
	// Advancing base past pos makes pos+capacity eligible, and that
	// producer waits on this very slot's cond (same residue), so the
	// broadcast below is its wakeup.
	r.base.Store(pos + 1)
	s.cond.Broadcast()
	s.mu.Unlock()
	return d, true
}

// abort unblocks every producer and consumer; subsequent put/take on
// empty slots fail fast. Filled slots may still be taken (the writer
// never does — it unwinds on the pending error instead).
func (r *reorderRing) abort() {
	r.aborted.Store(true)
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}
