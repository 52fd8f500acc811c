package lsmkv

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cdstore/internal/cache"
)

func buildTable(t *testing.T, entries []kvEntry) *ssTable {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.sst")
	if err := writeSSTable(path, entries); err != nil {
		t.Fatal(err)
	}
	tab, err := openSSTable(path, cache.NewLRU(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tab.close() })
	return tab
}

func sortedEntries(n int) []kvEntry {
	out := make([]kvEntry, n)
	for i := range out {
		out[i] = kvEntry{
			key:   []byte(fmt.Sprintf("key-%06d", i)),
			value: bytes.Repeat([]byte{byte(i)}, 50),
		}
	}
	return out
}

func TestSSTableGetAcrossBlocks(t *testing.T) {
	// 500 entries x ~70B > several 4KB blocks.
	entries := sortedEntries(500)
	tab := buildTable(t, entries)
	if len(tab.blocks) < 2 {
		t.Fatalf("table has %d blocks; test requires multiple", len(tab.blocks))
	}
	for i := 0; i < 500; i += 7 {
		v, tomb, ok, err := tab.get([]byte(fmt.Sprintf("key-%06d", i)))
		if err != nil || !ok || tomb {
			t.Fatalf("key %d: ok=%v tomb=%v err=%v", i, ok, tomb, err)
		}
		if !bytes.Equal(v, entries[i].value) {
			t.Fatalf("key %d: wrong value", i)
		}
	}
	// Keys before the first, between blocks, and after the last.
	for _, k := range []string{"aaa", "key-000003x", "zzz"} {
		_, _, ok, err := tab.get([]byte(k))
		if err != nil || ok {
			t.Fatalf("absent key %q: ok=%v err=%v", k, ok, err)
		}
	}
}

func TestSSTableTombstonesPreserved(t *testing.T) {
	entries := []kvEntry{
		{key: []byte("alive"), value: []byte("v")},
		{key: []byte("dead"), value: nil, tombstone: true},
	}
	tab := buildTable(t, entries)
	_, tomb, ok, err := tab.get([]byte("dead"))
	if err != nil || !ok || !tomb {
		t.Fatalf("tombstone lost: ok=%v tomb=%v err=%v", ok, tomb, err)
	}
}

func TestSSTableIterateOrder(t *testing.T) {
	entries := sortedEntries(200)
	tab := buildTable(t, entries)
	i := 0
	it, err := tab.seek(nil)
	for ; err == nil && it.valid; err = it.advance() {
		if !bytes.Equal(it.cur.key, entries[i].key) {
			t.Fatalf("iterate order broken at %d", i)
		}
		i++
	}
	if err != nil || i != 200 {
		t.Fatalf("iterated %d entries, err=%v", i, err)
	}
	// A seek lands on the first key at or after its target, in whichever
	// block that is, and past the last key on nothing.
	for _, c := range []struct{ target, want string }{
		{"a", "key-000000"}, {"key-000057", "key-000057"}, {"key-0000570", "key-000058"},
		{"key-000199", "key-000199"}, {"key-0001990", ""}, {"z", ""},
	} {
		it, err := tab.seek([]byte(c.target))
		if err != nil || it.valid != (c.want != "") || (it.valid && string(it.cur.key) != c.want) {
			t.Fatalf("seek(%q) = %q valid=%v err=%v, want %q", c.target, it.cur.key, it.valid, err, c.want)
		}
	}
}

func TestSSTableBloomSkipsAbsentKeys(t *testing.T) {
	tab := buildTable(t, sortedEntries(100))
	if !tab.filter.MayContain([]byte("key-000050")) {
		t.Fatal("bloom filter missing a present key")
	}
	miss := 0
	for i := 0; i < 1000; i++ {
		if !tab.filter.MayContain([]byte(fmt.Sprintf("absent-%d", i))) {
			miss++
		}
	}
	if miss < 900 {
		t.Fatalf("bloom filter rejected only %d/1000 absent keys", miss)
	}
}

func TestSSTableCorruptFooterRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sst")
	if err := writeSSTable(path, sortedEntries(10)); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	for _, mutate := range []func([]byte) []byte{
		func(b []byte) []byte { return b[:footerSize-1] },                                     // too small
		func(b []byte) []byte { o := append([]byte{}, b...); o[len(o)-1] ^= 0xFF; return o },  // magic
		func(b []byte) []byte { o := append([]byte{}, b...); o[len(o)-6] ^= 0xFF; return o },  // crc field
		func(b []byte) []byte { o := append([]byte{}, b...); o[len(o)-40] ^= 0xFF; return o }, // offsets
	} {
		bad := filepath.Join(t.TempDir(), "bad.sst")
		if err := os.WriteFile(bad, mutate(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := openSSTable(bad, nil); err == nil {
			t.Fatal("corrupt table opened successfully")
		}
	}
}

func TestSSTableEmptyKeyspaceEdges(t *testing.T) {
	// Single-entry table: index has one block.
	tab := buildTable(t, []kvEntry{{key: []byte("only"), value: []byte("v")}})
	v, _, ok, err := tab.get([]byte("only"))
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("single entry get: %q %v %v", v, ok, err)
	}
	if len(tab.blocks) != 1 {
		t.Fatalf("blocks = %d", len(tab.blocks))
	}
}
