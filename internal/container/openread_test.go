package container

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"cdstore/internal/cache"
	"cdstore/internal/metadata"
	"cdstore/internal/storage"
)

// TestGetEntryOpenContainerInPlace pins how a read of a still-open
// container is served: by looking the one entry up in the writer, never
// by sealing the buffer and indexing the copy. A Seal allocates the
// Container and Find its whole lookup map, so zero allocations per get —
// at any fill level — is the proof that neither happens; it also pins the
// O(1)-allocation bound itself. Nothing may reach the backend meanwhile,
// and a key the open container lacks is an error, not a fallthrough.
func TestGetEntryOpenContainerInPlace(t *testing.T) {
	backend := storage.NewMemory()
	s, err := NewStore(backend, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	const entries = 400
	keys := make([]metadata.Fingerprint, entries)
	var name string
	for i := range keys {
		data := make([]byte, 1000+i)
		rng.Read(data)
		keys[i] = metadata.FingerprintOf(data)
		n, err := addShare(s, 9, keys[i], data)
		if err != nil {
			t.Fatal(err)
		}
		if name == "" {
			name = n
		} else if n != name {
			t.Fatalf("entry %d rotated into %s; the test needs one open container", i, n)
		}
	}
	for i, key := range keys {
		data, err := s.GetEntry(name, key)
		if err != nil || metadata.FingerprintOf(data) != key {
			t.Fatalf("open read of entry %d: err=%v", i, err)
		}
	}
	if _, err := s.GetEntry(name, fp("absent")); err == nil {
		t.Error("absent key found in an open container")
	}
	if names, _ := backend.List(); len(names) != 0 {
		t.Fatalf("open reads touched the backend: %v", names)
	}
	if hits, misses := s.CacheStats(); hits+misses != 0 {
		t.Errorf("open reads consulted the container cache: %d hits, %d misses", hits, misses)
	}
	if raceEnabled {
		return
	}
	i := 0
	if allocs := testing.AllocsPerRun(entries, func() {
		if _, err := s.GetEntry(name, keys[i%entries]); err != nil {
			t.Fatal(err)
		}
		i++
	}); allocs != 0 {
		t.Errorf("GetEntry on an open container allocates %.2f objects per call, want 0 (a Seal or a lookup map is being built)", allocs)
	}
}

// TestGetEntryOpenContainerLatestWins: a key written twice into one open
// container — a recipe replaced before its container filled — reads back
// as the newer entry, the answer the sealed container gives after a
// flush.
func TestGetEntryOpenContainerLatestWins(t *testing.T) {
	s, err := NewStore(storage.NewMemory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	key := fp("file key")
	old, err := s.AddRecipe(4, key, []byte("recipe v1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddRecipe(4, fp("another file"), []byte("unrelated")); err != nil {
		t.Fatal(err)
	}
	name, err := s.AddRecipe(4, key, []byte("recipe v2"))
	if err != nil || name != old {
		t.Fatalf("second version went to %q (first %q): %v", name, old, err)
	}
	for _, state := range []string{"open", "sealed"} {
		got, err := s.GetEntry(name, key)
		if err != nil || string(got) != "recipe v2" {
			t.Fatalf("%s container: read %q, %v; want the latest version", state, got, err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGetEntryRacesAppendAndRotate reads entries while the same user's
// appends fill and rotate containers underneath: whatever state a get
// finds its container in — open, just persisted and cached, or evicted to
// the backend — it must return bytes that match the fingerprint. Run with
// -race: the open path reads the writer under the stripe lock appends
// hold.
func TestGetEntryRacesAppendAndRotate(t *testing.T) {
	s, err := NewStore(storage.NewMemory(), &StoreOptions{Capacity: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	s.cached = cache.NewLRU(48 << 10) // three containers, so some reads find theirs evicted
	type added struct {
		name string
		key  metadata.Fingerprint
	}
	var mu sync.Mutex
	var log []added
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 8)

	wg.Add(1)
	go func() { // the appender: ~100 rotations
		defer wg.Done()
		defer stop.Store(true)
		rng := rand.New(rand.NewSource(72))
		for i := 0; i < 1600; i++ {
			data := make([]byte, 600+rng.Intn(800))
			rng.Read(data)
			key := metadata.FingerprintOf(data)
			name, err := addShare(s, 3, key, data)
			if err != nil {
				errs <- err
				return
			}
			mu.Lock()
			log = append(log, added{name, key})
			mu.Unlock()
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				mu.Lock()
				n := len(log)
				if n == 0 {
					mu.Unlock()
					continue
				}
				// Mostly the newest entries (open or freshly rotated), now
				// and then an old one (cache or backend).
				i := n - 1 - rng.Intn(min(n, 8))
				if rng.Intn(4) == 0 {
					i = rng.Intn(n)
				}
				e := log[i]
				mu.Unlock()
				data, err := s.GetEntry(e.name, e.key)
				if err != nil {
					errs <- fmt.Errorf("entry %d in %s: %w", i, e.name, err)
					return
				}
				if metadata.FingerprintOf(data) != e.key {
					errs <- fmt.Errorf("entry %d in %s: bytes do not match fingerprint", i, e.name)
					return
				}
			}
		}(int64(73 + r))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
