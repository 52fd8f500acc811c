// Package index implements the CDStore server's index module (§4.4): a
// file index and a share index persisted in the embedded LSM key-value
// store (internal/lsmkv, the LevelDB stand-in).
//
// The share index is keyed by the *server-computed* share fingerprint and
// records the container holding the share plus, per owning user, a
// reference count (supporting intra-user deduplication decisions and
// deletion). The file index is keyed by the hash of (user, full
// pathname) and records the reference to the file recipe.
//
// Concurrency: the share index is split into NumShards lock-striped
// shards keyed by the fingerprint's first byte. Each shard owns its own
// mutex, its own lsmkv store (a separate directory, so recovery opens
// shards in parallel), and its own set of in-flight reservations (see
// ReserveShare). Sessions touching different shards never contend, which
// is what lets one server absorb many concurrent backup sessions
// (ROADMAP north star; the pattern CubeFS-style per-shard metadata
// ownership uses). All exported methods are safe for concurrent use.
package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"cdstore/internal/lsmkv"
	"cdstore/internal/metadata"
)

// NumShards is the number of lock stripes (and persistence directories)
// the share index is split into. Shard selection uses the fingerprint's
// first byte, so shares spread uniformly (fingerprints are SHA-256).
const NumShards = 64

// Key prefixes inside the lsmkv stores.
const (
	sharePrefix = "s/"
	filePrefix  = "f/"
)

// ShareEntry describes one globally unique share (§4.4).
type ShareEntry struct {
	Fingerprint metadata.Fingerprint
	Container   string // container reference
	Size        uint32
	// Refs maps owning user ID -> reference count.
	Refs map[uint64]uint32
	// Damaged marks a share whose container bytes failed scrub
	// verification (or whose container was lost). The ownership state in
	// Refs stays valid — recipes referencing the share are intact — but
	// the bytes need re-dispersal: TryReserveShare treats a damaged entry
	// as reservable so a repair upload can re-place the bytes and clear
	// the flag at commit.
	Damaged bool
}

// FileEntry describes one uploaded file of one user.
type FileEntry struct {
	UserID          uint64
	Path            string // full pathname (possibly client-encoded)
	FileSize        uint64
	NumSecrets      uint64
	RecipeContainer string // container holding the file recipe
}

// pendingShare is one in-flight reservation: the (container-less)
// entry accumulating state before commit, plus a channel closed on
// commit or abort so concurrent uploaders of the same fingerprint can
// wait for the outcome instead of deduplicating against bytes that are
// not durable yet.
type pendingShare struct {
	view entryView
	done chan struct{}
	// repair marks a reservation won against a damaged committed entry
	// (re-placing lost bytes rather than storing a new share); commit
	// counts it in Index.RepairedShares.
	repair bool
}

// shard is one lock stripe of the share index.
type shard struct {
	mu sync.Mutex
	db *lsmkv.DB
	// pending holds shares reserved by an in-flight upload: the share
	// bytes have not been appended to a container yet, so there is no
	// container name and no other session may take a dependency on the
	// share until the reservation resolves.
	pending map[metadata.Fingerprint]*pendingShare
	// lastName interns the container name LocateShares last returned: a
	// restore reads shares container by container, so most lookups reuse
	// it instead of allocating the string again.
	lastName string
}

// Index wraps the LSM stores with the two CDStore indices.
type Index struct {
	shards [NumShards]*shard
	files  *lsmkv.DB
	// filesMu makes RepointFiles' read-compare-write atomic against the
	// file index's other writers.
	filesMu sync.Mutex
	repairs atomic.Uint64 // damaged entries healed (see RepairedShares)
}

// ErrNotFound is returned for absent entries.
var ErrNotFound = errors.New("index: entry not found")

// shardOf maps a fingerprint to its lock stripe.
func shardOf(fp metadata.Fingerprint) int { return int(fp[0]) % NumShards }

// Options configures an Index.
type Options struct {
	// SyncWAL fsyncs each shard's write-ahead log at every commit point.
	// The batched CommitShares still issues only ONE fsync per touched
	// shard per batch (group commit), so durability costs O(shards
	// touched), not O(shares committed). Default false, matching lsmkv.
	SyncWAL bool
}

// legacyStoreFiles returns the lsmkv files of a single-store index
// sitting directly in dir.
func legacyStoreFiles(dir string) []string {
	var out []string
	for _, pat := range []string{"*.sst", "wal.log"} {
		if m, _ := filepath.Glob(filepath.Join(dir, pat)); len(m) > 0 {
			out = append(out, m...)
		}
	}
	return out
}

// Open opens (or creates) the index database rooted at dir with default
// options. See OpenWithOptions.
func Open(dir string) (*Index, error) { return OpenWithOptions(dir, nil) }

// OpenWithOptions opens (or creates) the index database rooted at dir.
// The share index lives in dir/shards/NN (one lsmkv store per shard,
// opened in parallel so recovery scans shards concurrently); the file
// index lives in dir/files. A directory holding lsmkv files directly in
// dir — a single-store layout this code never wrote — is refused: opening
// an empty sharded index beside it would turn every share it records
// into a dedup miss.
func OpenWithOptions(dir string, opts *Options) (*Index, error) {
	if legacy := legacyStoreFiles(dir); len(legacy) > 0 {
		return nil, fmt.Errorf("index: %s holds a single-store index (%s), not the sharded layout this version reads", dir, filepath.Base(legacy[0]))
	}
	var kvOpts *lsmkv.Options
	if opts != nil && opts.SyncWAL {
		kvOpts = &lsmkv.Options{SyncWAL: true}
	}
	ix := &Index{}
	var wg sync.WaitGroup
	errs := make([]error, NumShards+1)
	for i := 0; i < NumShards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			db, err := lsmkv.Open(filepath.Join(dir, "shards", fmt.Sprintf("%02x", i)), kvOpts)
			if err != nil {
				errs[i] = err
				return
			}
			ix.shards[i] = &shard{db: db, pending: make(map[metadata.Fingerprint]*pendingShare)}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		db, err := lsmkv.Open(filepath.Join(dir, "files"), kvOpts)
		if err != nil {
			errs[NumShards] = err
			return
		}
		ix.files = db
	}()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			ix.Close()
			return nil, err
		}
	}
	return ix, nil
}

// Close releases the underlying stores.
func (ix *Index) Close() error {
	var firstErr error
	for _, sh := range ix.shards {
		if sh == nil {
			continue
		}
		if err := sh.db.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if ix.files != nil {
		if err := ix.files.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// WALSyncs returns the total number of write-ahead-log fsyncs issued
// across every shard store since open — the observable that group-
// committed CommitShares batches cost one sync per touched shard, not
// one per share. Always zero unless Options.SyncWAL is set.
func (ix *Index) WALSyncs() uint64 {
	var total uint64
	for _, sh := range ix.shards {
		total += sh.db.Stats().WALSyncs
	}
	return total
}

// Flush persists in-memory state (snapshot-friendly checkpoint).
func (ix *Index) Flush() error {
	for _, sh := range ix.shards {
		if err := sh.db.Flush(); err != nil {
			return err
		}
	}
	return ix.files.Flush()
}

// Sync hands every store's buffered WAL records to the operating system
// (lsmkv.DB.Sync): the per-session checkpoint. After it the process can
// die and reopening the directory replays every acknowledged write; no
// SSTable is built, unlike Flush.
func (ix *Index) Sync() error {
	for _, sh := range ix.shards {
		if err := sh.db.Sync(); err != nil {
			return err
		}
	}
	return ix.files.Sync()
}

// shareKey builds fp's store key by value, so hot paths keep it on the
// stack.
func shareKey(fp metadata.Fingerprint) (key [len(sharePrefix) + metadata.FingerprintSize]byte) {
	copy(key[:], sharePrefix)
	copy(key[len(sharePrefix):], fp[:])
	return key
}

func fileKey(userID uint64, path string) []byte {
	return fileKeyOf(userID, metadata.FileKey(userID, path))
}

// fileKeyOf builds the store key from the file key itself, which is all
// a recipe container records of the file it belongs to.
func fileKeyOf(userID uint64, fk metadata.Fingerprint) []byte {
	key := make([]byte, 0, len(filePrefix)+8+len(fk))
	key = append(key, filePrefix...)
	key = binary.BigEndian.AppendUint64(key, userID)
	key = append(key, fk[:]...)
	return key
}

// --- share entry codec ---

// unmarshalShareEntry materialises a ShareEntry — map and all — for the
// cold paths that want one (LookupShare, ScanShares).
func unmarshalShareEntry(fp metadata.Fingerprint, src []byte) (*ShareEntry, error) {
	v, err := parseEntry(src)
	if err != nil {
		return nil, err
	}
	e := &ShareEntry{
		Fingerprint: fp,
		Container:   string(v.container()),
		Size:        v.size(),
		Refs:        make(map[uint64]uint32, v.n),
		Damaged:     v.damaged(),
	}
	for i := 0; i < v.n; i++ {
		u, c := v.ref(i)
		e.Refs[u] = c
	}
	return e, nil
}

// --- file entry codec ---

func marshalFileEntry(e *FileEntry) []byte {
	out := make([]byte, 0, 8+4+len(e.Path)+8+8+4+len(e.RecipeContainer))
	out = binary.BigEndian.AppendUint64(out, e.UserID)
	out = binary.BigEndian.AppendUint32(out, uint32(len(e.Path)))
	out = append(out, e.Path...)
	out = binary.BigEndian.AppendUint64(out, e.FileSize)
	out = binary.BigEndian.AppendUint64(out, e.NumSecrets)
	out = binary.BigEndian.AppendUint32(out, uint32(len(e.RecipeContainer)))
	out = append(out, e.RecipeContainer...)
	return out
}

func unmarshalFileEntry(src []byte) (*FileEntry, error) {
	if len(src) < 12 {
		return nil, fmt.Errorf("index: short file entry")
	}
	e := &FileEntry{UserID: binary.BigEndian.Uint64(src)}
	p := 8
	plen := int(binary.BigEndian.Uint32(src[p:]))
	p += 4
	if p+plen+20 > len(src) {
		return nil, fmt.Errorf("index: corrupt file entry")
	}
	e.Path = string(src[p : p+plen])
	p += plen
	e.FileSize = binary.BigEndian.Uint64(src[p:])
	e.NumSecrets = binary.BigEndian.Uint64(src[p+8:])
	rlen := int(binary.BigEndian.Uint32(src[p+16:]))
	p += 20
	if p+rlen != len(src) {
		return nil, fmt.Errorf("index: corrupt file entry tail")
	}
	e.RecipeContainer = string(src[p:])
	return e, nil
}

// --- share index operations ---

// peek returns a view of fp's committed entry, or ErrNotFound. The view
// aliases store memory: inspect it, derive new encodings with its with*
// methods, never write through it. Caller holds sh.mu.
func (sh *shard) peek(fp metadata.Fingerprint) (entryView, error) {
	key := shareKey(fp)
	raw, err := sh.db.Peek(key[:])
	if err == lsmkv.ErrNotFound {
		return entryView{}, ErrNotFound
	}
	if err != nil {
		return entryView{}, err
	}
	return parseEntry(raw)
}

// put persists raw as fp's encoded entry. Caller holds sh.mu.
func (sh *shard) put(fp metadata.Fingerprint, raw []byte) error {
	key := shareKey(fp)
	return sh.db.Put(key[:], raw)
}

// eachShard calls fn once per shard that fps touch, under that shard's
// lock, with the positions in fps that fall in it — so a batch takes
// every touched shard's lock exactly once. fn may reorder pos.
func (ix *Index) eachShard(fps []metadata.Fingerprint, fn func(sh *shard, pos []int32) error) error {
	// Counting sort of the positions by shard: one allocation per batch.
	var start [NumShards + 1]int32
	for _, fp := range fps {
		start[shardOf(fp)+1]++
	}
	for s := 0; s < NumShards; s++ {
		start[s+1] += start[s]
	}
	order := make([]int32, len(fps))
	next := start
	for pos, fp := range fps {
		s := shardOf(fp)
		order[next[s]] = int32(pos)
		next[s]++
	}
	for s, sh := range ix.shards {
		pos := order[start[s]:start[s+1]]
		if len(pos) == 0 {
			continue
		}
		sh.mu.Lock()
		err := fn(sh, pos)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// eachDistinct calls fn once per distinct fingerprint among fps[pos...]
// with its multiplicity, sorting pos to find the repeats.
func eachDistinct(fps []metadata.Fingerprint, pos []int32, fn func(fp metadata.Fingerprint, m uint32) error) error {
	slices.SortFunc(pos, func(a, b int32) int { return bytes.Compare(fps[a][:], fps[b][:]) })
	for i := 0; i < len(pos); {
		j := i + 1
		for j < len(pos) && fps[pos[j]] == fps[pos[i]] {
			j++
		}
		if err := fn(fps[pos[i]], uint32(j-i)); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// writeBatch collects one shard's entry writes for a single PutBatch
// (one WAL append per touched shard); its buffers are reused from shard
// to shard.
type writeBatch struct {
	keyBuf       []byte
	keys, values [][]byte
}

func (b *writeBatch) reset() { b.keyBuf, b.keys, b.values = b.keyBuf[:0], b.keys[:0], b.values[:0] }

func (b *writeBatch) add(fp metadata.Fingerprint, raw []byte) {
	key := shareKey(fp)
	n := len(b.keyBuf)
	b.keyBuf = append(b.keyBuf, key[:]...) // a regrown buffer leaves earlier keys valid in the old one
	b.keys = append(b.keys, b.keyBuf[n:len(b.keyBuf):len(b.keyBuf)])
	b.values = append(b.values, raw)
}

// LookupShare materialises the committed entry for fp, or ErrNotFound:
// the cold path (tests, tools). Reservations still in flight (no
// container yet) are not visible here; use ShareOwnedBy for dedup
// decisions, which does see them.
func (ix *Index) LookupShare(fp metadata.Fingerprint) (*ShareEntry, error) {
	sh := ix.shards[shardOf(fp)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	v, err := sh.peek(fp)
	if err != nil {
		return nil, err
	}
	return unmarshalShareEntry(fp, v.raw)
}

// ShareOwnedBy answers the intra-user deduplication query: does this user
// already own a share with this fingerprint? The answer depends only on
// the querying user's own uploads — never on other users' state — which
// is what makes the reply side-channel free (§3.3). An in-flight
// reservation counts only for the reserving user (no one else can have
// taken a dependency on it yet).
func (ix *Index) ShareOwnedBy(fp metadata.Fingerprint, userID uint64) (bool, error) {
	sh := ix.shards[shardOf(fp)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.ownedLocked(fp, userID)
}

func (sh *shard) ownedLocked(fp metadata.Fingerprint, userID uint64) (bool, error) {
	if pe, ok := sh.pending[fp]; ok {
		return pe.view.owned(userID), nil
	}
	v, err := sh.peek(fp)
	if err == ErrNotFound {
		return false, nil
	}
	return err == nil && v.owned(userID), err
}

// SharesOwnedBy is the batched form of ShareOwnedBy the query handler
// uses, one lock acquisition per touched shard. The result is in input
// order.
func (ix *Index) SharesOwnedBy(fps []metadata.Fingerprint, userID uint64) ([]bool, error) {
	owned := make([]bool, len(fps))
	err := ix.eachShard(fps, func(sh *shard, pos []int32) error {
		for _, p := range pos {
			o, err := sh.ownedLocked(fps[p], userID)
			if err != nil {
				return err
			}
			owned[p] = o
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return owned, nil
}

// ShareLocation is what serving a share needs from its committed entry.
// The zero value means no committed entry (an in-flight reservation is
// not visible here).
type ShareLocation struct {
	Found bool
	// Owned reports whether the asking user holds the share; it is
	// computed from that user's ref alone (§3.3).
	Owned bool
	// Container is empty while the entry is damaged: the bytes are gone.
	Container string
	Size      uint32
}

// LocateShares resolves fps for the get path — where each share lives,
// how big it is, and whether userID may read it — one lock acquisition
// per touched shard, results in input order.
func (ix *Index) LocateShares(fps []metadata.Fingerprint, userID uint64) ([]ShareLocation, error) {
	return ix.locate(fps, userID, true)
}

// LookupShares is LocateShares with no asking user: Owned is false
// throughout. It is a shim for benchmark/replay.go, which a PR may not
// edit; no production caller uses it — remove it and locate's ask flag
// when the benchmark is next re-baselined.
func (ix *Index) LookupShares(fps []metadata.Fingerprint) ([]ShareLocation, error) {
	return ix.locate(fps, 0, false)
}

func (ix *Index) locate(fps []metadata.Fingerprint, userID uint64, ask bool) ([]ShareLocation, error) {
	locs := make([]ShareLocation, len(fps))
	err := ix.eachShard(fps, func(sh *shard, pos []int32) error {
		for _, p := range pos {
			v, err := sh.peek(fps[p])
			if err == ErrNotFound {
				continue
			}
			if err != nil {
				return err
			}
			loc := ShareLocation{Found: true, Owned: ask && v.owned(userID), Size: v.size()}
			if name := v.container(); !v.damaged() {
				if string(name) != sh.lastName {
					sh.lastName = string(name)
				}
				loc.Container = sh.lastName
			}
			locs[p] = loc
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return locs, nil
}

// AddShareRef increments user's reference count on fp (which must exist,
// committed or reserved).
func (ix *Index) AddShareRef(fp metadata.Fingerprint, userID uint64) error {
	return ix.AddShareRefs([]metadata.Fingerprint{fp}, userID)
}

// ReleaseShareRef decrements user's reference count, dropping the user at
// zero. It returns the remaining total reference count across all users;
// at zero the caller may garbage-collect the share's container space.
func (ix *Index) ReleaseShareRef(fp metadata.Fingerprint, userID uint64) (int, error) {
	sh := ix.shards[shardOf(fp)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.releaseLocked(fp, userID, 1)
}

// releaseLocked takes m of user's references on fp and returns the total
// left across all users, deleting the entry once nobody owns it.
func (sh *shard) releaseLocked(fp metadata.Fingerprint, userID uint64, m uint32) (int, error) {
	if pe, ok := sh.pending[fp]; ok {
		pe.view = pe.view.withoutRef(userID, m)
		return pe.view.total(), nil
	}
	v, err := sh.peek(fp)
	if err != nil {
		return 0, err
	}
	v = v.withoutRef(userID, m)
	if v.n == 0 {
		key := shareKey(fp)
		return 0, sh.db.Delete(key[:])
	}
	return v.total(), sh.put(fp, v.raw)
}

// --- file index operations ---

// PutFile stores or replaces a file entry.
func (ix *Index) PutFile(e *FileEntry) error {
	ix.filesMu.Lock()
	defer ix.filesMu.Unlock()
	return ix.files.Put(fileKey(e.UserID, e.Path), marshalFileEntry(e))
}

// fileAt returns the entry stored under key, or nil where there is none.
func (ix *Index) fileAt(key []byte) (*FileEntry, error) {
	v, err := ix.files.Get(key)
	if err == lsmkv.ErrNotFound {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return unmarshalFileEntry(v)
}

// RecipeContainers returns, for each of userID's file keys, the recipe
// container its file entry names, or "" where the user has no such file:
// what LocateShares answers for shares, asked of the file index.
func (ix *Index) RecipeContainers(userID uint64, keys []metadata.Fingerprint) ([]string, error) {
	names := make([]string, len(keys))
	for i, fk := range keys {
		e, err := ix.fileAt(fileKeyOf(userID, fk))
		if err != nil {
			return nil, err
		}
		if e != nil {
			names[i] = e.RecipeContainer
		}
	}
	return names, nil
}

// RepointFiles moves those of userID's file entries under keys whose
// recipe still lives in container from to container to, in one batch
// write — RepointShares for the file index. Entries that are gone or
// name another container (the file was re-uploaded) are left alone. It
// returns the number of entries moved.
func (ix *Index) RepointFiles(userID uint64, keys []metadata.Fingerprint, from, to string) (int, error) {
	ix.filesMu.Lock()
	defer ix.filesMu.Unlock()
	var ks, vs [][]byte
	for _, fk := range keys {
		key := fileKeyOf(userID, fk)
		e, err := ix.fileAt(key)
		if err != nil {
			return 0, err
		}
		if e != nil && e.RecipeContainer == from {
			e.RecipeContainer = to
			ks, vs = append(ks, key), append(vs, marshalFileEntry(e))
		}
	}
	return len(ks), ix.files.PutBatch(ks, vs)
}

// LookupFile returns the entry for (userID, path), or ErrNotFound.
func (ix *Index) LookupFile(userID uint64, path string) (*FileEntry, error) {
	e, err := ix.fileAt(fileKey(userID, path))
	if e == nil && err == nil {
		err = ErrNotFound
	}
	return e, err
}

// DeleteFile removes the entry for (userID, path).
func (ix *Index) DeleteFile(userID uint64, path string) error {
	ix.filesMu.Lock()
	defer ix.filesMu.Unlock()
	return ix.files.Delete(fileKey(userID, path))
}

// ListFiles returns every file entry of one user, ordered by file key.
func (ix *Index) ListFiles(userID uint64) ([]*FileEntry, error) {
	prefix := make([]byte, 0, len(filePrefix)+8)
	prefix = append(prefix, filePrefix...)
	prefix = binary.BigEndian.AppendUint64(prefix, userID)
	var out []*FileEntry
	err := ix.files.Scan(prefix, func(_, v []byte) error {
		e, err := unmarshalFileEntry(v)
		if err != nil {
			return err
		}
		out = append(out, e)
		return nil
	})
	return out, err
}

// CountShares returns the number of unique committed shares indexed
// (stats helper).
func (ix *Index) CountShares() (int, error) {
	n := 0
	for _, sh := range ix.shards {
		err := sh.db.Scan([]byte(sharePrefix), func(_, _ []byte) error { n++; return nil })
		if err != nil {
			return 0, err
		}
	}
	return n, nil
}
