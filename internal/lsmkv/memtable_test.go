package lsmkv

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func TestMemtablePutGet(t *testing.T) {
	s := newMemtable()
	s.put([]byte("b"), []byte("2"), false)
	s.put([]byte("a"), []byte("1"), false)
	s.put([]byte("c"), []byte("3"), false)
	for _, kv := range [][2]string{{"a", "1"}, {"b", "2"}, {"c", "3"}} {
		v, tomb, ok := s.get([]byte(kv[0]))
		if !ok || tomb || string(v) != kv[1] {
			t.Fatalf("get(%s) = %q, %v, %v", kv[0], v, tomb, ok)
		}
	}
	if _, _, ok := s.get([]byte("zzz")); ok {
		t.Fatal("absent key found")
	}
}

func TestMemtableOverwriteAndTombstone(t *testing.T) {
	s := newMemtable()
	s.put([]byte("k"), []byte("v1"), false)
	s.put([]byte("k"), []byte("v2"), false)
	v, _, _ := s.get([]byte("k"))
	if string(v) != "v2" {
		t.Fatal("overwrite failed")
	}
	s.put([]byte("k"), nil, true)
	_, tomb, ok := s.get([]byte("k"))
	if !ok || !tomb {
		t.Fatal("tombstone not recorded")
	}
	if len(s.m) != 1 {
		t.Fatalf("count = %d, want 1 (overwrites must not duplicate)", len(s.m))
	}
}

func TestMemtableEntriesSorted(t *testing.T) {
	s := newMemtable()
	rng := rand.New(rand.NewSource(1))
	want := make([]string, 0, 200)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key-%04d", rng.Intn(10000))
		if !seen[k] {
			seen[k] = true
			want = append(want, k)
		}
		s.put([]byte(k), []byte("v"), false)
	}
	sort.Strings(want)
	got := s.entries()
	if len(got) != len(want) {
		t.Fatalf("entries = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if string(got[i].key) != want[i] {
			t.Fatalf("entry %d = %s, want %s", i, got[i].key, want[i])
		}
		if i > 0 && bytes.Compare(got[i-1].key, got[i].key) >= 0 {
			t.Fatal("entries not strictly sorted")
		}
	}
}

func TestMemtableSizeAccounting(t *testing.T) {
	s := newMemtable()
	s.put([]byte("abc"), []byte("12345"), false)
	if s.approximateSize() != 8 {
		t.Fatalf("size = %d, want 8", s.approximateSize())
	}
	s.put([]byte("abc"), []byte("1"), false)
	if s.approximateSize() != 4 {
		t.Fatalf("size after shrink = %d, want 4", s.approximateSize())
	}
}
