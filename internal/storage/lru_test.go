package storage

import (
	"fmt"
	"sync"
	"testing"
)

func TestAddGet(t *testing.T) {
	c := NewLRU(3)
	c.AddCharged("a", 1, 1)
	c.AddCharged("b", 2, 1)
	v, ok := c.Get("a")
	if !ok || v.(int) != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	if _, ok := c.Get("zzz"); ok {
		t.Fatal("absent key reported present")
	}
}

func TestEvictionOrder(t *testing.T) {
	c := NewLRU(2)
	c.AddCharged("a", 1, 1)
	c.AddCharged("b", 2, 1)
	c.Get("a")              // promote a
	c.AddCharged("c", 3, 1) // must evict b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c should be present")
	}
}

func TestChargedEviction(t *testing.T) {
	c := NewLRU(100)
	c.AddCharged("big", "x", 60)
	c.AddCharged("big2", "y", 50) // 110 > 100: evicts big
	if _, ok := c.Get("big"); ok {
		t.Fatal("big should have been evicted by byte charge")
	}
	if c.used != 50 {
		t.Fatalf("used = %d, want 50", c.used)
	}
}

func TestOversizedChargeRejected(t *testing.T) {
	c := NewLRU(10)
	c.AddCharged("keep", 1, 1)
	c.AddCharged("huge", "x", 100)
	if _, ok := c.Get("huge"); ok {
		t.Fatal("oversized entry should not be cached")
	}
	if _, ok := c.Get("keep"); !ok {
		t.Fatal("existing entry should not be disturbed by oversized insert")
	}
}

func TestUpdateExistingKeyAdjustsCharge(t *testing.T) {
	c := NewLRU(10)
	c.AddCharged("k", "v1", 4)
	c.AddCharged("k", "v2", 6)
	if c.used != 6 {
		t.Fatalf("used = %d, want 6", c.used)
	}
	v, _ := c.Get("k")
	if v.(string) != "v2" {
		t.Fatal("value not updated")
	}
	if c.ll.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.ll.Len())
	}
}

func TestRemove(t *testing.T) {
	c := NewLRU(5)
	c.AddCharged("a", 1, 1)
	if !c.Remove("a") {
		t.Fatal("Remove(a) = false")
	}
	if c.Remove("a") {
		t.Fatal("double remove returned true")
	}
	if c.used != 0 || c.ll.Len() != 0 {
		t.Fatal("cache not empty after remove")
	}
}

func TestStats(t *testing.T) {
	c := NewLRU(2)
	c.AddCharged("a", 1, 1)
	c.Get("a")
	c.Get("a")
	c.Get("missing")
	h, m := c.Stats()
	if h != 2 || m != 1 {
		t.Fatalf("stats = (%d,%d), want (2,1)", h, m)
	}
}

func TestPurge(t *testing.T) {
	c := NewLRU(5)
	for i := 0; i < 5; i++ {
		c.AddCharged(fmt.Sprint(i), i, 1)
	}
	c.Purge()
	if c.ll.Len() != 0 || c.used != 0 {
		t.Fatal("purge did not empty cache")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := NewLRU(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				key := fmt.Sprintf("k-%d", (g*31+i)%200)
				c.AddCharged(key, i, 1)
				c.Get(key)
				if i%97 == 0 {
					c.Remove(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.ll.Len() > 128 {
		t.Fatalf("cache grew beyond capacity: %d", c.ll.Len())
	}
}

func TestZeroCapacityClamped(t *testing.T) {
	c := NewLRU(0)
	c.AddCharged("a", 1, 1)
	if c.ll.Len() != 1 {
		t.Fatal("capacity 0 should clamp to 1 entry")
	}
}
