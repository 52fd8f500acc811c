package container

import (
	"bytes"
	"fmt"
	"testing"

	"cdstore/internal/metadata"
	"cdstore/internal/storage"
)

func fp(s string) metadata.Fingerprint { return metadata.FingerprintOf([]byte(s)) }

// addShare appends one share through the batched put path and returns
// the container that holds it.
func addShare(s *Store, userID uint64, key metadata.Fingerprint, data []byte) (string, error) {
	names, err := s.AddShares(userID, []Entry{{Key: key, Data: data}})
	if err != nil {
		return "", err
	}
	return names[0], nil
}

func TestContainerMarshalRoundTrip(t *testing.T) {
	c := &Container{
		Name:   "share-u1-000000000000",
		Type:   ShareContainer,
		UserID: 1,
		Entries: []Entry{
			{Key: fp("a"), Data: []byte("share data a")},
			{Key: fp("b"), Data: []byte("share data b, longer")},
			{Key: fp("c"), Data: []byte{}},
		},
	}
	enc := c.Marshal()
	got, err := Unmarshal(c.Name, enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != c.Type || got.UserID != c.UserID || len(got.Entries) != 3 {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range c.Entries {
		if got.Entries[i].Key != c.Entries[i].Key || !bytes.Equal(got.Entries[i].Data, c.Entries[i].Data) {
			t.Fatalf("entry %d mismatch", i)
		}
	}
	if d := got.Find(fp("b")); !bytes.Equal(d, []byte("share data b, longer")) {
		t.Fatalf("Find(b) = %q", d)
	}
	if got.Find(fp("zzz")) != nil {
		t.Fatal("Find of absent key returned data")
	}
}

func TestContainerCorruption(t *testing.T) {
	c := &Container{Type: ShareContainer, UserID: 7, Entries: []Entry{{Key: fp("x"), Data: []byte("data")}}}
	enc := c.Marshal()
	cases := map[string]func([]byte) []byte{
		"too small":   func(b []byte) []byte { return b[:8] },
		"crc flip":    func(b []byte) []byte { o := append([]byte(nil), b...); o[10] ^= 1; return o },
		"bad magic":   func(b []byte) []byte { o := append([]byte(nil), b...); o[0] ^= 1; return o },
		"truncated":   func(b []byte) []byte { return b[:len(b)-8] },
		"extra bytes": func(b []byte) []byte { return append(append([]byte(nil), b...), 1, 2, 3) },
	}
	for name, mut := range cases {
		if _, err := Unmarshal("t", mut(enc)); err == nil {
			t.Fatalf("%s: corruption accepted", name)
		}
	}
}

func TestWriterCapacity(t *testing.T) {
	w := NewWriter("c1", ShareContainer, 1, 1000)
	if err := w.Add(fp("a"), make([]byte, 500)); err != nil {
		t.Fatal(err)
	}
	if w.Full() {
		t.Fatal("should not be full yet")
	}
	// A second 500-byte entry would exceed the 1000-byte cap: rejected,
	// and the writer stays under capacity (the Store then rotates to a
	// fresh container).
	if err := w.Add(fp("b"), make([]byte, 500)); err != ErrFull {
		t.Fatalf("want ErrFull, got %v", err)
	}
	if w.Full() {
		t.Fatal("rejected entry must not fill the container")
	}
	// Entries that fit keep being accepted.
	if err := w.Add(fp("c"), make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 2 {
		t.Fatalf("Len = %d, want 2", w.Len())
	}
}

func TestWriterOversizedFirstEntryAllowed(t *testing.T) {
	// §4.5: a very large file recipe gets its own oversized container.
	w := NewWriter("c1", RecipeContainer, 1, 1000)
	big := make([]byte, 5000)
	if err := w.Add(fp("huge"), big); err != nil {
		t.Fatalf("oversized first entry rejected: %v", err)
	}
	if !w.Full() {
		t.Fatal("oversized container should report full")
	}
}

func TestWriterFindInBuffer(t *testing.T) {
	w := NewWriter("c1", ShareContainer, 1, 0)
	w.Add(fp("k"), []byte("v"))
	if d := w.Find(fp("k")); !bytes.Equal(d, []byte("v")) {
		t.Fatalf("Find = %q", d)
	}
	if w.Find(fp("absent")) != nil {
		t.Fatal("absent key found")
	}
}

func TestStoreAddGetFlush(t *testing.T) {
	backend := storage.NewMemory()
	s, err := NewStore(backend, &StoreOptions{Capacity: 2048})
	if err != nil {
		t.Fatal(err)
	}
	// Buffered share readable before any flush.
	name, err := addShare(s, 1, fp("s1"), []byte("share one"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.GetEntry(name, fp("s1"))
	if err != nil || !bytes.Equal(got, []byte("share one")) {
		t.Fatalf("buffered read: %q, %v", got, err)
	}
	// Nothing on the backend yet.
	if names, _ := backend.List(); len(names) != 0 {
		t.Fatalf("premature flush: %v", names)
	}
	// Fill past capacity: flush happens automatically.
	for i := 0; i < 10; i++ {
		if _, err := addShare(s, 1, fp(fmt.Sprintf("fill-%d", i)), make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
	}
	if names, _ := backend.List(); len(names) == 0 {
		t.Fatal("no automatic flush after exceeding capacity")
	}
	// Explicit flush persists the remainder, and all entries stay readable.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err = s.GetEntry(name, fp("s1"))
	if err != nil || !bytes.Equal(got, []byte("share one")) {
		t.Fatalf("post-flush read: %q, %v", got, err)
	}
}

func TestStorePerUserContainers(t *testing.T) {
	s, err := NewStore(storage.NewMemory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	n1, _ := addShare(s, 1, fp("a"), []byte("x"))
	n2, _ := addShare(s, 2, fp("b"), []byte("y"))
	if n1 == n2 {
		t.Fatal("users must not share containers (spatial locality, §4.5)")
	}
}

func TestStoreRecipes(t *testing.T) {
	s, err := NewStore(storage.NewMemory(), &StoreOptions{Capacity: 128})
	if err != nil {
		t.Fatal(err)
	}
	key := metadata.FileKey(1, "/backup.tar")
	recipe := bytes.Repeat([]byte("r"), 4096) // oversized: own container
	name, err := s.AddRecipe(1, key, recipe)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.GetEntry(name, key)
	if err != nil || !bytes.Equal(got, recipe) {
		t.Fatalf("recipe read failed: %v", err)
	}
}

func TestStoreSequenceRecovery(t *testing.T) {
	backend := storage.NewMemory()
	s1, _ := NewStore(backend, nil)
	name1, _ := addShare(s1, 1, fp("a"), []byte("x"))
	s1.Flush()
	// Re-open: new containers must not collide with existing names.
	s2, _ := NewStore(backend, nil)
	name2, _ := addShare(s2, 1, fp("b"), []byte("y"))
	if name1 == name2 {
		t.Fatalf("container name collision after reopen: %s", name1)
	}
	// Old entry still readable via new store.
	got, err := s2.GetEntry(name1, fp("a"))
	if err != nil || !bytes.Equal(got, []byte("x")) {
		t.Fatalf("read across restart: %q, %v", got, err)
	}
}

func TestStoreDelete(t *testing.T) {
	backend := storage.NewMemory()
	s, _ := NewStore(backend, nil)
	name, _ := addShare(s, 1, fp("a"), []byte("x"))
	s.Flush()
	if err := s.Delete(name); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetEntry(name, fp("a")); err == nil {
		t.Fatal("deleted container still readable")
	}
}

func TestStoreCacheHits(t *testing.T) {
	backend := storage.NewMemory()
	s, _ := NewStore(backend, nil)
	name, _ := addShare(s, 1, fp("a"), []byte("x"))
	s.Flush()
	// Force cache cold by recreating the store.
	s2, _ := NewStore(backend, nil)
	for i := 0; i < 5; i++ {
		if _, err := s2.GetEntry(name, fp("a")); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := s2.CacheStats()
	if hits < 4 || misses != 1 {
		t.Fatalf("cache stats hits=%d misses=%d; want >=4 hits, 1 miss", hits, misses)
	}
}

func TestTypeString(t *testing.T) {
	if ShareContainer.String() != "share" || RecipeContainer.String() != "recipe" {
		t.Fatal("type strings wrong")
	}
	if Type(9).String() == "" {
		t.Fatal("unknown type should still render")
	}
}

// TestParseContainerName pins the name parser: names the store generates
// parse back exactly, and malformed ones are refused (Store.get parses
// the name of every share it serves, so this runs without fmt scanning).
func TestParseContainerName(t *testing.T) {
	good := []struct {
		name      string
		user, seq uint64
	}{
		{containerName(ShareContainer, 7, 42), 7, 42},
		{containerName(RecipeContainer, 0, 0), 0, 0},
		{containerName(ShareContainer, 1<<64-1, 1<<64-1), 1<<64 - 1, 1<<64 - 1},
		{"with-dashes-u3-000000000009", 3, 9},
	}
	for _, c := range good {
		var user, seq uint64
		if !parseContainerName(c.name, &user, &seq) || user != c.user || seq != c.seq {
			t.Errorf("parse(%q) = user %d seq %d, want %d %d", c.name, user, seq, c.user, c.seq)
		}
		if !parseContainerName(c.name, nil, &seq) || !parseContainerName(c.name, &user, nil) {
			t.Errorf("parse(%q) with one field refused", c.name)
		}
	}
	bad := []string{
		"", "share", "-u", "-u-", "share-u7", "share-u7-", "share-u-12", "share-7-12",
		"share-ux-12", "share-u7-12x", "share-u7-x12", "share-u7- 12", "share-u+7-12",
		"share-u7-18446744073709551616", "share-u18446744073709551616-1", "share-u7-1_2",
	}
	for _, name := range bad {
		var user, seq uint64
		if parseContainerName(name, &user, &seq) {
			t.Errorf("parse(%q) accepted: user %d seq %d", name, user, seq)
		}
	}
}
