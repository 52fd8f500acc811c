package container

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"cdstore/internal/metadata"
	"cdstore/internal/race"
	"cdstore/internal/storage"
)

// storedImages returns every object of a backend by name.
func storedImages(t *testing.T, b storage.Backend) map[string][]byte {
	t.Helper()
	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(names))
	for _, n := range names {
		if out[n], err = b.Get(n); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestPersistedImageEqualsMarshal: the bytes a Store hands the backend —
// the Writer's buffer, sealed in place — are the bytes the old
// list-then-Marshal path wrote for the same entries (oracle_test.go).
func TestPersistedImageEqualsMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	blob := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	type add struct {
		recipe bool
		key    metadata.Fingerprint
		data   []byte
	}
	share := func(n int) add { d := blob(n); return add{key: metadata.FingerprintOf(d), data: d} }
	recipe := func(path string, n int) add { return add{recipe: true, key: metadata.FileKey(5, path), data: blob(n)} }

	cases := map[string]struct {
		capacity int
		adds     []add
	}{
		"shares, one container, image outgrows its first buffer": {
			capacity: DefaultCapacity,
			adds: func() (a []add) {
				for i := 0; i < 90; i++ { // ~250 KB: past firstImageSize
					a = append(a, share(2000+rng.Intn(1500)))
				}
				return append(a, share(0), share(1))
			}(),
		},
		"shares rotating through several containers": {
			capacity: 16 << 10,
			adds: func() (a []add) {
				for i := 0; i < 60; i++ {
					a = append(a, share(500+rng.Intn(3000)))
				}
				return a
			}(),
		},
		"an entry that lands exactly on capacity": {
			capacity: headerSize + trailerSize + 2*(entryOverhead+1000),
			adds:     []add{share(1000), share(1000), share(10)},
		},
		"one oversized recipe gets a container of its own": {
			capacity: 1024,
			adds:     []add{recipe("/small", 100), recipe("/huge", 300<<10), recipe("/after", 64)},
		},
		"a recipe replaced inside one open container": {
			capacity: DefaultCapacity,
			adds:     []add{recipe("/f", 400), recipe("/g", 40), recipe("/f", 520), recipe("/empty", 0)},
		},
	}
	for name, tc := range cases {
		backend := storage.NewMemory()
		s, err := NewStore(backend, &StoreOptions{Capacity: tc.capacity})
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]*Container{} // by container name, in add order
		var order []string
		views := make([][]byte, len(tc.adds)) // read while the container is still open
		for i, a := range tc.adds {
			var cname string
			typ := ShareContainer
			if a.recipe {
				typ = RecipeContainer
				cname, err = s.AddRecipe(5, a.key, a.data)
			} else {
				cname, err = addShare(s, 5, a.key, a.data)
			}
			if err != nil {
				t.Fatalf("%s: add %d: %v", name, i, err)
			}
			if want[cname] == nil {
				want[cname] = &Container{Name: cname, Type: typ, UserID: 5}
				order = append(order, cname)
			}
			want[cname].Entries = append(want[cname].Entries, Entry{Key: a.key, Data: a.data})
			if views[i], err = s.GetEntry(cname, a.key); err != nil {
				t.Fatalf("%s: read-back of add %d: %v", name, i, err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		got := storedImages(t, backend)
		if len(got) != len(want) {
			t.Fatalf("%s: %d containers persisted, want %d", name, len(got), len(want))
		}
		for _, cname := range order {
			if !bytes.Equal(got[cname], want[cname].Marshal()) {
				t.Errorf("%s: image of %s differs from Marshal of its %d entries", name, cname, len(want[cname].Entries))
			}
		}
		// Views handed out while a container was open — some before its
		// image moved to the full-size buffer — still read the bytes added.
		for i, a := range tc.adds {
			if !bytes.Equal(views[i], a.data) {
				t.Errorf("%s: view of add %d changed after later appends and the seal", name, i)
			}
		}
	}
}

// TestParentCommitContainersParseAndReseal: the files under testdata
// were written by the commit before the Writer became the file image
// (12 shares; 4 recipes, one of them replaced in place). They must
// parse, serve every entry through a Store, and come out byte-identical
// when their entries go through a Writer again.
func TestParentCommitContainersParseAndReseal(t *testing.T) {
	backend := storage.NewMemory()
	wantEntries := map[string]int{"share-u7-000000000000": 12, "recipe-u7-000000000001": 4}
	for name := range wantEntries {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := backend.Put(name, raw); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewStore(backend, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range wantEntries {
		raw, _ := backend.Get(name)
		c, err := Unmarshal(name, raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(c.Entries) != n || c.UserID != 7 {
			t.Fatalf("%s: %d entries of user %d, want %d of user 7", name, len(c.Entries), c.UserID, n)
		}
		w := NewWriter(name, c.Type, c.UserID, 0)
		latest := map[metadata.Fingerprint][]byte{}
		for _, e := range c.Entries {
			if c.Type == ShareContainer && metadata.FingerprintOf(e.Data) != e.Key {
				t.Errorf("%s: a share no longer matches its fingerprint", name)
			}
			latest[e.Key] = e.Data
			if err := w.Add(e.Key, e.Data); err != nil {
				t.Fatal(err)
			}
		}
		for key, data := range latest {
			got, err := s.GetEntry(name, key)
			if err != nil || !bytes.Equal(got, data) {
				t.Errorf("%s: store served %d bytes for %s (%v), want %d", name, len(got), key, err, len(data))
			}
		}
		file, _ := backend.Get(name)
		if _, image := w.Seal(); !bytes.Equal(image, file) {
			t.Errorf("%s: re-sealed image differs from the parent commit's file", name)
		}
	}
	if next, err := addShare(s, 7, fp("new"), []byte("x")); err != nil || next != containerName(ShareContainer, 7, 2) {
		t.Errorf("next container after the fixtures is %q (%v), want sequence 2", next, err)
	}
}

// TestUnmarshalEntriesAreViews pins the ownership rule Unmarshal
// documents: entries alias the bytes passed in (no per-entry copy), each
// capped so an append cannot run into its neighbour.
func TestUnmarshalEntriesAreViews(t *testing.T) {
	_, raw := corruptionContainer(t)
	c, err := Unmarshal("share-u7-000000000001", raw)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { Unmarshal("share-u7-000000000001", raw) }); allocs > 2 && !race.Enabled {
		t.Errorf("Unmarshal of 3 entries allocates %.0f objects: a per-entry copy is back", allocs)
	}
	p := headerSize
	for i, e := range c.Entries {
		p += entryOverhead
		if cap(e.Data) != len(e.Data) {
			t.Errorf("entry %d: cap %d beyond len %d", i, cap(e.Data), len(e.Data))
		}
		if &e.Data[0] != &raw[p] {
			t.Errorf("entry %d is a copy, not a view of the input", i)
		}
		p += len(e.Data)
	}
	// The tamper helper must therefore work on a copy.
	before := append([]byte(nil), raw...)
	if out, changed := TamperEntries("share-u7-000000000001", raw, 1, 0x5A); len(changed) != 3 || &out[0] == &raw[0] {
		t.Fatalf("TamperEntries changed %d entries, shares its input: %v", len(changed), &out[0] == &raw[0])
	}
	if !bytes.Equal(raw, before) {
		t.Error("TamperEntries wrote to its input")
	}
}

// TestSealTrimsUnfilledImage: a container sealed far short of the
// buffer its image grew into — the usual state at a session's end —
// must not pin that buffer in the read cache, which is charged for the
// image's length. Entries read before the trim keep their bytes.
func TestSealTrimsUnfilledImage(t *testing.T) {
	w := NewWriter("share-u1-000000000000", ShareContainer, 1, 0)
	data := bytes.Repeat([]byte{7}, 3000)
	for i := 0; i < 30; i++ { // 90 KB in a 256 KB buffer, two moves past firstImageSize
		var key metadata.Fingerprint
		key[0] = byte(i)
		if err := w.Add(key, data); err != nil {
			t.Fatal(err)
		}
	}
	early := w.Find(metadata.Fingerprint{0})
	c, image := w.Seal()
	if cap(image) != len(image) {
		t.Errorf("sealed image of %d bytes holds a %d-byte buffer", len(image), cap(image))
	}
	got, err := Unmarshal(c.Name, append([]byte(nil), image...))
	if err != nil || len(got.Entries) != 30 {
		t.Fatalf("trimmed image: %d entries, %v", len(got.Entries), err)
	}
	for i, e := range c.Entries {
		if !bytes.Equal(e.Data, data) || cap(e.Data) > len(image) {
			t.Fatalf("entry %d of the sealed container is not a view of the trimmed image", i)
		}
	}
	if !bytes.Equal(early, data) {
		t.Error("a view handed out before the trim lost its bytes")
	}
}

// nullBackend accepts every Put and keeps nothing.
type nullBackend struct{ storage.Backend }

func (nullBackend) Put(string, []byte) error { return nil }
func (nullBackend) List() ([]string, error)  { return nil, nil }

// TestSealPersistAllocFloor: sealing and persisting a full container
// hands the backend and the cache the buffer the entries were appended
// into. No second image is built (nothing near 1 MB is allocated, against
// a 4 MB container) and no per-entry object: the count is a small
// constant whatever the container holds.
func TestSealPersistAllocFloor(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation floor not meaningful under the race detector")
	}
	s, err := NewStore(nullBackend{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	share := make([]byte, 2731)
	entries := make([]Entry, (DefaultCapacity-headerSize-trailerSize)/(entryOverhead+len(share)))
	for i := range entries {
		entries[i] = Entry{Data: share}
		entries[i].Key[0], entries[i].Key[1] = byte(i), byte(i>>8)
	}
	for round := 0; round < 3; round++ {
		if _, err := s.AddShares(1, entries); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		objects, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		t.Logf("seal + persist of %d entries: %d objects, %d bytes", len(entries), objects, bytes)
		if objects > 8 {
			t.Errorf("seal + persist allocates %d objects for %d entries, want a small constant", objects, len(entries))
		}
		if bytes >= 1<<20 {
			t.Errorf("seal + persist allocates %d bytes: a second copy of the image is back", bytes)
		}
	}
	if hits, misses := s.CacheStats(); hits+misses != 0 {
		t.Errorf("persist consulted the cache: %d hits, %d misses", hits, misses)
	}
}
