package secretshare

import (
	"math/rand"
	"testing"
)

// TestSharePoolMixedSizes: a content-defined backup asks for share buffers
// of many sizes in no order. Once the pool has seen each size, Get must
// be served from it — the old LIFO freelist threw away every smaller
// buffer it met on the way to one that fit, so such a sequence allocated
// on almost every call.
func TestSharePoolMixedSizes(t *testing.T) {
	var pool SharePool
	rng := rand.New(rand.NewSource(4))
	sizes := make([]int, 512)
	for i := range sizes {
		sizes[i] = 700 + rng.Intn(4800) // shares of 2-16 KB secrets at k=3
	}
	cycle := func() {
		held := make([][]byte, 0, 16)
		for _, size := range sizes {
			b := pool.Get(size)
			if len(b) != size {
				t.Fatalf("Get(%d) returned %d bytes", size, len(b))
			}
			if held = append(held, b); len(held) == cap(held) { // a batch leaves for its cloud
				for _, h := range held {
					pool.Put(h)
				}
				held = held[:0]
			}
		}
		for _, h := range held {
			pool.Put(h)
		}
	}
	cycle()                                                   // fills every class the sizes fall in
	if allocs := testing.AllocsPerRun(5, cycle); allocs > 1 { // the held slice
		t.Fatalf("a warmed pool allocated %.0f times over %d mixed-size Gets", allocs, len(sizes))
	}
}

// TestSharePoolEdges: a buffer is never handed out shorter than asked,
// whatever capacity it came back with; zero-size requests work; the idle
// bound holds across classes.
func TestSharePoolEdges(t *testing.T) {
	var pool SharePool
	for n := 1; n < 70000; n++ { // every class boundary on the way
		c, capacity := sizeClass(n)
		below, smaller := sizeClass(max(capacity/2, 1))
		if capacity < n || capacity*4 > n*5+4 || c >= len(pool.bufs) {
			t.Fatalf("sizeClass(%d) = class %d, capacity %d", n, c, capacity)
		}
		if c2, cap2 := sizeClass(capacity); c2 != c || cap2 != capacity || below > c || smaller > capacity {
			t.Fatalf("sizeClass(%d): capacity %d is not its own class (%d, %d)", n, capacity, c2, cap2)
		}
	}
	pool.Put(make([]byte, 1000)) // capacity between two classes: serves up to 896
	if b := pool.Get(1000); cap(b) != 1024 || len(b) != 1000 {
		t.Fatalf("Get(1000) = len %d cap %d", len(b), cap(b))
	}
	if b := pool.Get(896); cap(b) != 1000 {
		t.Fatalf("Get(896) did not reuse the 1000-byte buffer (cap %d)", cap(b))
	}
	if b := pool.Get(0); len(b) != 0 {
		t.Fatalf("Get(0) = %d bytes", len(b))
	}
	pool.Put(nil)
	for i := 0; i < poolMaxIdle+100; i++ {
		pool.Put(make([]byte, 64<<(i%4)))
	}
	if b := pool.Get(81); cap(b) != 96 { // no 64- or 80-byte buffer may serve it
		t.Fatalf("Get(81) handed out capacity %d", cap(b))
	}
	if pool.idle != poolMaxIdle {
		t.Fatalf("%d idle buffers, bound is %d", pool.idle, poolMaxIdle)
	}
	pool.Drop()
	if b := pool.Get(64); pool.idle != 0 || cap(b) != 64 {
		t.Fatalf("after Drop: %d idle, fresh cap %d", pool.idle, cap(b))
	}
}
