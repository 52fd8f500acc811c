package storage

import (
	"container/list"
	"sync"
)

// LRU is a fixed-capacity least-recently-used cache of charged entries,
// the one in-memory cache of a server: the lsmkv block cache and the
// container module's read cache (§4.5 keeps the most recently accessed
// containers in an LRU cache), both charged in bytes. It is safe for
// concurrent use.
type LRU struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	ll       *list.List
	items    map[string]*list.Element

	hits, misses uint64
}

type entry struct {
	key    string
	value  interface{}
	charge int64
}

// NewLRU creates a cache holding entries whose charges sum to at most
// capacity; a capacity below 1 is taken as 1.
func NewLRU(capacity int64) *LRU {
	if capacity <= 0 {
		capacity = 1
	}
	return &LRU{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// AddCharged inserts key charging the given number of units against
// capacity (e.g. the byte size of a cached block). A charge larger than
// the whole capacity is rejected silently — caching it would evict
// everything for no benefit.
func (c *LRU) AddCharged(key string, value interface{}, charge int64) {
	if charge > c.capacity {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		c.used += charge - e.charge
		e.value, e.charge = value, charge
		c.ll.MoveToFront(el)
	} else {
		e := &entry{key: key, value: value, charge: charge}
		c.items[key] = c.ll.PushFront(e)
		c.used += charge
	}
	for c.used > c.capacity {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.used -= e.charge
	}
}

// Get returns the cached value and whether it was present, promoting the
// entry to most-recently-used.
func (c *LRU) Get(key string) (interface{}, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*entry).value, true
	}
	c.misses++
	return nil, false
}

// Remove deletes key from the cache if present, returning whether it was.
func (c *LRU) Remove(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, key)
	c.used -= e.charge
	return true
}

// Stats returns the cumulative hit and miss counts.
func (c *LRU) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Purge empties the cache.
func (c *LRU) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
	c.used = 0
}
