package container

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"cdstore/internal/metadata"
	"cdstore/internal/storage"
)

// numStripes is the number of lock stripes the Store's open buffers are
// split across. Containers are single-user (§4.5), so striping by user
// lets concurrent sessions of different users append — and flush full
// containers to the backend — without blocking each other.
const numStripes = 16

// stripe guards the open write buffers of the users hashing to it.
type stripe struct {
	mu         sync.Mutex
	shareBufs  map[uint64]*Writer // keyed by user ID
	recipeBufs map[uint64]*Writer
}

// Store is the container module of one CDStore server: it maintains
// per-user in-memory buffers for shares and recipes (§4.5 optimization 1),
// flushes full containers to the storage backend, and serves reads through
// an LRU container cache (§4.5 optimization 2). All methods are safe for
// concurrent use; appends by different users proceed in parallel.
type Store struct {
	backend  storage.Backend
	capacity int
	nextSeq  atomic.Uint64
	stripes  [numStripes]stripe
	cached   *storage.LRU // name -> *Container
}

// StoreOptions configures a Store.
type StoreOptions struct {
	// Capacity caps container size in bytes (default 4MB).
	Capacity int
}

// cacheBytes bounds the read cache.
const cacheBytes = 64 << 20

// NewStore opens a container store over a backend, recovering the naming
// sequence from existing containers.
func NewStore(backend storage.Backend, opts *StoreOptions) (*Store, error) {
	capacity := DefaultCapacity
	if opts != nil && opts.Capacity > 0 {
		capacity = opts.Capacity
	}
	s := &Store{
		backend:  backend,
		capacity: capacity,
		cached:   storage.NewLRU(cacheBytes),
	}
	for i := range s.stripes {
		s.stripes[i].shareBufs = make(map[uint64]*Writer)
		s.stripes[i].recipeBufs = make(map[uint64]*Writer)
	}
	names, err := backend.List()
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		var seq uint64
		if parseContainerName(n, nil, &seq) && seq >= s.nextSeq.Load() {
			s.nextSeq.Store(seq + 1)
		}
	}
	return s, nil
}

func (s *Store) stripeFor(userID uint64) *stripe {
	return &s.stripes[userID%numStripes]
}

func containerName(typ Type, userID, seq uint64) string {
	return fmt.Sprintf("%s-u%d-%012d", typ, userID, seq)
}

// parseContainerName extracts the owning user (optional) and sequence
// number from a container name of the form "<type>-u<user>-<seq>".
func parseContainerName(name string, userID, seq *uint64) bool {
	i := strings.LastIndex(name, "-")
	if i < 0 || (seq != nil && !parseDecimal(name[i+1:], seq)) {
		return false
	}
	if userID == nil {
		return true
	}
	j := strings.LastIndex(name[:i], "-u")
	return j >= 0 && parseDecimal(name[j+2:i], userID)
}

func parseDecimal(s string, out *uint64) bool {
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return false
	}
	*out = v
	return true
}

// AddShares buffers a batch of unique shares for user, taking the user's
// stripe lock once, and returns the name of the container holding each
// share. This is the server's batched write path: index shard locks are
// never held here, so sessions block on container I/O, not on each
// other's index critical sections.
func (s *Store) AddShares(userID uint64, entries []Entry) ([]string, error) {
	st := s.stripeFor(userID)
	st.mu.Lock()
	defer st.mu.Unlock()
	names := make([]string, len(entries))
	for i := range entries {
		name, err := s.addLocked(st.shareBufs, ShareContainer, userID, entries[i].Key, entries[i].Data)
		if err != nil {
			return nil, err
		}
		names[i] = name
	}
	return names, nil
}

// AddRecipe buffers a file recipe keyed by its file key.
func (s *Store) AddRecipe(userID uint64, fileKey metadata.Fingerprint, recipe []byte) (string, error) {
	st := s.stripeFor(userID)
	st.mu.Lock()
	defer st.mu.Unlock()
	return s.addLocked(st.recipeBufs, RecipeContainer, userID, fileKey, recipe)
}

// addLocked appends one entry to the user's open writer, rotating and
// flushing as needed. Caller holds the user's stripe lock.
func (s *Store) addLocked(bufs map[uint64]*Writer, typ Type, userID uint64, key metadata.Fingerprint, data []byte) (string, error) {
	w := bufs[userID]
	if w == nil || !w.Fits(len(data)) {
		if w != nil {
			if err := s.persist(w); err != nil {
				return "", err
			}
		}
		w = NewWriter(containerName(typ, userID, s.nextSeq.Add(1)-1), typ, userID, s.capacity)
		bufs[userID] = w
	}
	name := w.Name()
	if err := w.Add(key, data); err != nil {
		return "", err
	}
	if w.Full() {
		if err := s.persist(w); err != nil {
			return "", err
		}
		delete(bufs, userID)
	}
	return name, nil
}

// persist seals a writer and hands its file image to the backend and,
// as the sealed container's bytes, to the read cache. Caller holds the
// stripe lock owning w (so w is no longer mutated); the backend and the
// read cache are themselves concurrency-safe.
func (s *Store) persist(w *Writer) error {
	if w.Len() == 0 {
		return nil
	}
	c, image := w.Seal()
	if err := s.backend.Put(c.Name, image); err != nil {
		return err
	}
	s.cached.AddCharged(c.Name, c, int64(len(image)))
	return nil
}

// Flush persists every open buffer (called before serving restores and on
// shutdown).
func (s *Store) Flush() error {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		for u, w := range st.shareBufs {
			if err := s.persist(w); err != nil {
				st.mu.Unlock()
				return err
			}
			delete(st.shareBufs, u)
		}
		for u, w := range st.recipeBufs {
			if err := s.persist(w); err != nil {
				st.mu.Unlock()
				return err
			}
			delete(st.recipeBufs, u)
		}
		st.mu.Unlock()
	}
	return nil
}

// lockOpenWriter returns the writer still open under name together with
// its owner's stripe, locked — the caller unlocks it — or nil, nil when
// the container is sealed (in the cache or the backend) or unknown. The
// owning user is parsed from the name.
func (s *Store) lockOpenWriter(name string) (*stripe, *Writer) {
	var userID uint64
	if !parseContainerName(name, &userID, nil) {
		return nil, nil
	}
	st := s.stripeFor(userID)
	st.mu.Lock()
	for _, bufs := range [...]map[uint64]*Writer{st.shareBufs, st.recipeBufs} {
		if w := bufs[userID]; w != nil && w.Name() == name {
			return st, w
		}
	}
	st.mu.Unlock()
	return nil, nil
}

// getSealed fetches a persisted container through the read cache.
func (s *Store) getSealed(name string) (*Container, error) {
	if v, ok := s.cached.Get(name); ok {
		return v.(*Container), nil
	}
	raw, err := s.backend.Get(name)
	if err != nil {
		return nil, err
	}
	c, err := Unmarshal(name, raw)
	if err != nil {
		return nil, err
	}
	s.cached.AddCharged(name, c, int64(len(raw)))
	return c, nil
}

// GetContainer fetches a whole container: an open buffer gives a
// snapshot of what it holds so far, anything else is read from the
// backend, never the read cache, so a container lost behind the cache
// is reported lost.
func (s *Store) GetContainer(name string) (*Container, error) {
	if st, w := s.lockOpenWriter(name); w != nil {
		c := w.Snapshot()
		st.mu.Unlock()
		return c, nil
	}
	raw, err := s.backend.Get(name)
	if err != nil {
		return nil, err
	}
	return Unmarshal(name, raw)
}

// GetEntry returns the data stored for key inside the named container.
// The bytes are shared with the store and must not be modified. A
// container still open for appends is searched in place under its
// stripe lock — the state every read of a live, unflushed server hits,
// repair reads included — instead of being sealed and indexed per call;
// an entry's bytes are immutable once added, so the slice stays valid
// after the lock is dropped, through later appends and the writer's
// rotation.
func (s *Store) GetEntry(name string, key metadata.Fingerprint) ([]byte, error) {
	var data []byte
	if st, w := s.lockOpenWriter(name); w != nil {
		data = w.Find(key)
		st.mu.Unlock()
	} else {
		c, err := s.getSealed(name)
		if err != nil {
			return nil, err
		}
		data = c.Find(key)
	}
	if data == nil {
		return nil, fmt.Errorf("%w: %s in %s", ErrNoEntry, key, name)
	}
	return data, nil
}

// Delete removes a container from backend and cache (garbage collection).
func (s *Store) Delete(name string) error {
	s.cached.Remove(name)
	return s.backend.Delete(name)
}

// CacheStats exposes the read cache hit/miss counters.
func (s *Store) CacheStats() (hits, misses uint64) { return s.cached.Stats() }

// DropCache empties the read cache (cold-read experiments, tests).
func (s *Store) DropCache() { s.cached.Purge() }
