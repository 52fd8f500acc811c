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
// Storage: one lsmkv store per index, as the paper keeps each in one
// LevelDB — <dir>/shares and <dir>/files: a cloud opens, checkpoints and
// flushes two stores.
//
// Concurrency: the share index is striped NumShards ways by the
// fingerprint's first byte. A stripe is a mutex and the in-flight
// reservations under it (see ReserveShare), in memory only: it makes a
// fingerprint's read-modify-write atomic, so sessions on different
// stripes decide concurrently and meet only for the store's own short
// append. A call that writes reaches the store's durability point once,
// after its last stripe (lsmkv.DB.Append / Commit): under SyncWAL a
// batch costs one fsync. All exported methods are safe for concurrent use.
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

// NumShards is the number of lock stripes the share index is split into.
// Stripe selection uses the fingerprint's first byte, so shares spread
// uniformly (fingerprints are SHA-256).
const NumShards = 64

// shareMemtableBytes is the share store's flush threshold. A flush sorts
// and writes the memtable under the store lock, so the bound is how long
// every put on the cloud can wait behind the index: 32 MiB is ~425k
// entries, 65 MiB of heap when full and a 0.54 s flush on the 2-core box
// (README, "Share index", has the comparison with the 64 stores of
// 4 MiB this replaces). A smaller bound means more tables, and the
// full-merge compaction at MaxTables is the limit at TB scale, as it was
// per store: stated, not tuned.
const shareMemtableBytes = 32 << 20

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
	db *lsmkv.DB // the share store, the same one in every stripe
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
	shards [NumShards]shard
	shares *lsmkv.DB
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
	// SyncWAL fsyncs the write-ahead log once per call that writes, however
	// many shares and stripes the call touched. Default false, matching
	// lsmkv.
	SyncWAL bool
}

// foreignLayout returns what marks dir as an index this version does not
// read: an lsmkv file directly in it (a layout this code never wrote) or
// a shards directory (one store per stripe, every earlier version's).
func foreignLayout(dir string) string {
	for _, pat := range []string{"*.sst", "wal.log", "shards"} {
		if m, _ := filepath.Glob(filepath.Join(dir, pat)); len(m) > 0 {
			return filepath.Base(m[0])
		}
	}
	return ""
}

// Open opens (or creates) the index database rooted at dir with default
// options. See OpenWithOptions.
func Open(dir string) (*Index, error) { return OpenWithOptions(dir, nil) }

// OpenWithOptions opens (or creates) the index database rooted at dir:
// the share index in dir/shares, the file index in dir/files. Another
// layout (see foreignLayout) is refused, not migrated: an empty share
// index beside it would turn every share it records into a dedup miss.
func OpenWithOptions(dir string, opts *Options) (*Index, error) {
	if found := foreignLayout(dir); found != "" {
		return nil, fmt.Errorf("index: %s holds %s: a store directly in the directory or the shards/NN store-per-stripe layout, not the shares/ + files/ layout this version reads", dir, found)
	}
	syncWAL := opts != nil && opts.SyncWAL
	ix := &Index{}
	var err error
	if ix.shares, err = lsmkv.Open(filepath.Join(dir, "shares"), &lsmkv.Options{MemtableBytes: shareMemtableBytes, SyncWAL: syncWAL}); err != nil {
		return nil, err
	}
	if ix.files, err = lsmkv.Open(filepath.Join(dir, "files"), &lsmkv.Options{SyncWAL: syncWAL}); err != nil {
		ix.shares.Close()
		return nil, err
	}
	for i := range ix.shards {
		ix.shards[i].db = ix.shares
		ix.shards[i].pending = make(map[metadata.Fingerprint]*pendingShare)
	}
	return ix, nil
}

// both applies op to both stores and returns the first error.
func (ix *Index) both(op func(*lsmkv.DB) error) error {
	err := op(ix.shares)
	if ferr := op(ix.files); err == nil {
		err = ferr
	}
	return err
}

// Close releases the underlying stores.
func (ix *Index) Close() error { return ix.both((*lsmkv.DB).Close) }

// WALSyncs returns the number of write-ahead-log fsyncs the share store
// has issued since open: one per batch, not per share or per stripe.
// Always zero unless Options.SyncWAL is set.
func (ix *Index) WALSyncs() uint64 { return ix.shares.Stats().WALSyncs }

// Flush persists in-memory state: at most one new SSTable per store.
func (ix *Index) Flush() error { return ix.both((*lsmkv.DB).Flush) }

// Sync hands both stores' buffered WAL records to the operating system
// (lsmkv.DB.Sync): the per-session checkpoint. After it the process can
// die and reopening the directory replays every acknowledged write; no
// SSTable is built, unlike Flush.
func (ix *Index) Sync() error { return ix.both((*lsmkv.DB).Sync) }

// durable ends a call that wrote to the share index: unless the writes
// failed, it is the call's one durability point.
func (ix *Index) durable(err error) error {
	if err != nil {
		return err
	}
	return ix.shares.Commit()
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

// put appends raw as fp's encoded entry; the exported call it serves ends
// in Index.durable. Caller holds sh.mu.
func (sh *shard) put(fp metadata.Fingerprint, raw []byte) error {
	key := shareKey(fp)
	return sh.db.Append([][]byte{key[:]}, [][]byte{raw})
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
	for s := range ix.shards {
		pos := order[start[s]:start[s+1]]
		if len(pos) == 0 {
			continue
		}
		sh := &ix.shards[s]
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

// writeBatch collects one stripe's entry writes for a single Append, so
// a stripe whose group fails validation writes nothing; its buffers are
// reused from stripe to stripe.
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
	sh := &ix.shards[shardOf(fp)]
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
	sh := &ix.shards[shardOf(fp)]
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
// uses, one lock acquisition per touched stripe. The result is in input
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
// per touched stripe, results in input order.
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
	sh := &ix.shards[shardOf(fp)]
	sh.mu.Lock()
	left, err := sh.releaseLocked(fp, userID, 1)
	sh.mu.Unlock()
	return left, ix.durable(err)
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
		return 0, sh.db.AppendDelete(key[:])
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

// ScanShares visits every committed share entry in fingerprint order (the
// scrubber's whole-index walks). The store is not locked while fn runs
// (see lsmkv.DB.Scan), so puts proceed during a walk; an entry written
// meanwhile may or may not be visited, an in-flight reservation is not.
func (ix *Index) ScanShares(fn func(*ShareEntry) error) error {
	return ix.shares.Scan([]byte(sharePrefix), func(k, v []byte) error {
		var fp metadata.Fingerprint
		copy(fp[:], k[len(sharePrefix):])
		e, err := unmarshalShareEntry(fp, v)
		if err != nil {
			return err
		}
		return fn(e)
	})
}

// ScanFiles visits every file entry of every user.
func (ix *Index) ScanFiles(fn func(*FileEntry) error) error {
	return ix.files.Scan([]byte(filePrefix), func(_, v []byte) error {
		e, err := unmarshalFileEntry(v)
		if err != nil {
			return err
		}
		return fn(e)
	})
}

// CountShares returns the number of unique committed shares indexed
// (stats helper).
func (ix *Index) CountShares() (int, error) {
	n := 0
	err := ix.shares.Scan([]byte(sharePrefix), func(_, _ []byte) error { n++; return nil })
	return n, err
}
