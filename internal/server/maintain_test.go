package server

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cdstore/internal/container"
	"cdstore/internal/index"
	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/storage"
)

// dial opens a session for user on srv.
func dial(t *testing.T, srv *Server, user uint64) *protocol.Conn {
	t.Helper()
	pc := pipeTo(srv)
	t.Cleanup(func() { pc.Close() })
	hello(t, pc, user)
	return pc
}

// fetchFile restores a file the way a client does from one cloud: the
// recipe, then every share it names, each checked against its
// fingerprint.
func fetchFile(t *testing.T, pc *protocol.Conn, path string) ([][]byte, error) {
	t.Helper()
	rtyp, reply := call(t, pc, protocol.MsgGetRecipe, protocol.EncodeString(path))
	if rtyp != protocol.MsgRecipe {
		return nil, fmt.Errorf("recipe of %s: reply %d %s", path, rtyp, reply)
	}
	recipe, err := metadata.UnmarshalRecipe(reply)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(recipe.Entries))
	for i, re := range recipe.Entries {
		rtyp, reply := call(t, pc, protocol.MsgGetShares, protocol.EncodeFingerprints([]metadata.Fingerprint{re.ShareFP}))
		if rtyp != protocol.MsgShares {
			return nil, fmt.Errorf("share %d of %s: reply %d %s", i, path, rtyp, reply)
		}
		got, err := protocol.DecodeShares(reply)
		if err != nil || len(got) != 1 || metadata.FingerprintOf(got[0].Data) != re.ShareFP {
			return nil, fmt.Errorf("share %d of %s does not hash to its fingerprint (%v)", i, path, err)
		}
		out[i] = append([]byte(nil), got[0].Data...)
	}
	return out, nil
}

// checkIndexResolves asserts the invariant every maintenance step must
// keep: each committed, healthy share entry names a container holding
// bytes that hash to the fingerprint, and each file entry names a
// container holding a recipe that parses. It returns the containers the
// index references.
func checkIndexResolves(t *testing.T, srv *Server, when string) map[string]bool {
	t.Helper()
	referenced := map[string]bool{}
	err := srv.ix.ScanShares(func(e *index.ShareEntry) error {
		if e.Damaged {
			return nil
		}
		referenced[e.Container] = true
		data, err := srv.store.GetEntry(e.Container, e.Fingerprint)
		if err != nil || metadata.FingerprintOf(data) != e.Fingerprint {
			t.Errorf("%s: share %s -> %s does not resolve to valid bytes (%v)", when, e.Fingerprint, e.Container, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = srv.ix.ScanFiles(func(fe *index.FileEntry) error {
		referenced[fe.RecipeContainer] = true
		raw, err := srv.store.GetEntry(fe.RecipeContainer, metadata.FileKey(fe.UserID, fe.Path))
		if err == nil {
			_, err = metadata.UnmarshalRecipe(raw)
		}
		if err != nil {
			t.Errorf("%s: recipe of u%d %s -> %s does not resolve (%v)", when, fe.UserID, fe.Path, fe.RecipeContainer, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return referenced
}

// stepBackend lets a test fail or observe single backend operations: a
// hook sees each operation's object name, so it can fail exactly one
// write or delete. The hooks are set and cleared while the server is idle.
type stepBackend struct {
	storage.Backend
	onGet    func(name string) error // before the read; an error fails it
	onPut    func(name string) error // before the write; an error fails it
	afterPut func(name string)       // after a successful write
	onDelete func(name string) error
}

func (b *stepBackend) Get(name string) ([]byte, error) {
	if b.onGet != nil {
		if err := b.onGet(name); err != nil {
			return nil, err
		}
	}
	return b.Backend.Get(name)
}

func (b *stepBackend) Put(name string, data []byte) error {
	if b.onPut != nil {
		if err := b.onPut(name); err != nil {
			return err
		}
	}
	err := b.Backend.Put(name, data)
	if err == nil && b.afterPut != nil {
		b.afterPut(name)
	}
	return err
}

func (b *stepBackend) Delete(name string) error {
	if b.onDelete != nil {
		if err := b.onDelete(name); err != nil {
			return err
		}
	}
	return b.Backend.Delete(name)
}

// TestCompactFaultOrdering stops a scrub pass's compaction of a share
// container and of a recipe container after each of its three steps — the
// new container could not be persisted; it was, but the index repoint
// never ran (the process "crashes" there and the server restarts on the
// same state); both happened but the old container could not be deleted —
// and asserts what the persist → repoint → delete order promises: every
// committed index entry still resolves to fingerprint-valid bytes, every
// file still restores, and the next pass finishes the job, leaving no
// container nothing points at.
func TestCompactFaultOrdering(t *testing.T) {
	share := func(tag string) []byte { return bytes.Repeat([]byte(tag+"."), 12) }
	files := map[uint64]map[string][][]byte{
		1: {
			"/keep1": {share("k0"), share("k1"), share("k2")},
			"/drop":  {share("d0"), share("d1"), share("k1"), share("d2")},
			"/keep2": {share("k3"), share("k0")},
		},
		2: {"/other": {share("k0"), share("o0"), share("o1")}},
	}
	boom := errors.New("injected fault")
	for _, kind := range []string{"share-", "recipe-"} {
		for _, step := range []string{"persist", "commit", "delete"} {
			t.Run(kind+step, func(t *testing.T) {
				backend := &stepBackend{Backend: storage.NewMemory()}
				cfg := Config{CloudIndex: 0, N: 4, K: 3, IndexDir: t.TempDir(), Backend: backend, ContainerCapacity: 4096}
				srv, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { srv.Close() }()
				// Interleave so one container holds both what stays and what goes.
				pc1, pc2 := dial(t, srv, 1), dial(t, srv, 2)
				uploadFile(t, pc1, "/keep1", files[1]["/keep1"])
				uploadFile(t, pc1, "/drop", files[1]["/drop"])
				uploadFile(t, pc2, "/other", files[2]["/other"])
				uploadFile(t, pc1, "/keep2", files[1]["/keep2"])
				if rtyp, reply := call(t, pc1, protocol.MsgDeleteFile, protocol.EncodeString("/drop")); rtyp != protocol.MsgPutOK {
					t.Fatalf("delete: %d %s", rtyp, reply)
				}
				if err := srv.Flush(); err != nil {
					t.Fatal(err)
				}

				once := func(fn func()) func(name string) bool { // first object of the kind only
					fired := false
					return func(name string) bool {
						if fired || !strings.HasPrefix(name, kind) {
							return false
						}
						fired = true
						if fn != nil {
							fn()
						}
						return true
					}
				}
				switch step {
				case "persist":
					hit := once(nil)
					backend.onPut = func(name string) error {
						if hit(name) {
							return boom
						}
						return nil
					}
				case "commit":
					hit := once(func() { srv.ix.Close() }) // the repoint finds the index gone
					backend.afterPut = func(name string) { hit(name) }
				case "delete":
					hit := once(nil)
					backend.onDelete = func(name string) error {
						if hit(name) {
							return boom
						}
						return nil
					}
				}
				before, _ := backend.List()
				if _, err := srv.RunScrubPass(); err == nil {
					t.Fatalf("the pass succeeded although its %s step was made to fail", step)
				}
				backend.onPut, backend.afterPut, backend.onDelete = nil, nil, nil
				after, _ := backend.List()
				switch step {
				case "persist":
					if len(after) > len(before) {
						t.Fatalf("a failed persist left a new object: %v -> %v", before, after)
					}
				case "commit", "delete":
					if len(after) != len(before)+1 {
						t.Fatalf("stopped after %s: backend went %v -> %v, want the old and the new container side by side", step, before, after)
					}
				}
				if step == "commit" { // the crash: come back up on what is on disk
					srv.Close()
					if srv, err = New(cfg); err != nil {
						t.Fatal(err)
					}
					pc1, pc2 = dial(t, srv, 1), dial(t, srv, 2)
				}

				check := func(when string) map[string]bool {
					t.Helper()
					referenced := checkIndexResolves(t, srv, when)
					for user, pc := range map[uint64]*protocol.Conn{1: pc1, 2: pc2} {
						for path, want := range files[user] {
							if path == "/drop" {
								continue
							}
							got, err := fetchFile(t, pc, path)
							if err != nil || !slices.EqualFunc(got, want, bytes.Equal) {
								t.Errorf("%s: user %d %s does not restore (%v)", when, user, path, err)
							}
						}
					}
					return referenced
				}
				check("after the interrupted pass")

				stats, err := srv.RunScrubPass()
				if err != nil {
					t.Fatalf("second pass: %v", err)
				}
				if stats.ContainersRewritten == 0 {
					t.Fatalf("second pass had nothing to do: %+v", stats)
				}
				referenced := check("after the second pass")
				names, _ := backend.List()
				for _, name := range names {
					if !referenced[name] {
						t.Errorf("orphan %s survived the second pass (backend %v)", name, names)
					}
				}
				if stats, err := srv.RunScrubPass(); err != nil || stats.ContainersRewritten != 0 || stats.BytesReclaimed != 0 {
					t.Fatalf("third pass still found work: %+v, %v", stats, err)
				}
			})
		}
	}
}

// --- the index model test, one level up ---

// serverModel is the trivially correct picture of one cloud: which files
// each user has and, per share, who holds how many references (count 0
// is the upload marker of a share no recipe names yet).
type serverModel struct {
	pool   [][]byte
	fps    []metadata.Fingerprint
	files  map[uint64]map[string][]int // user -> path -> share numbers, in recipe order
	owners map[int]map[uint64]uint32
}

func (m *serverModel) put(user uint64, shares []int) {
	for _, s := range shares {
		if m.owners[s] == nil {
			m.owners[s] = map[uint64]uint32{}
		}
		m.owners[s][user] += 0
	}
}

func (m *serverModel) release(user uint64, shares []int) {
	for _, s := range shares {
		if c := m.owners[s][user]; c > 1 {
			m.owners[s][user] = c - 1
			continue
		}
		delete(m.owners[s], user) // the last reference drops the owner...
		if len(m.owners[s]) == 0 {
			delete(m.owners, s) // ...and the last owner the entry
		}
	}
}

// recipe settles a recipe as handlePutRecipe does: add the new
// references first, then release the replaced file's.
func (m *serverModel) recipe(user uint64, path string, shares []int) {
	for _, s := range shares {
		m.owners[s][user]++
	}
	if old, ok := m.files[user][path]; ok {
		m.release(user, old)
	}
	m.files[user][path] = shares
}

// check compares the server with the model after an operation: every
// file restores to the model's bytes, the index holds exactly the live
// shares with the model's reference counts, each resolving to valid
// bytes, and — when the store was just collected — the share containers
// hold the live set and nothing the index does not place there.
func (m *serverModel) check(t *testing.T, srv *Server, conns map[uint64]*protocol.Conn, op string, collected bool) {
	t.Helper()
	for user, paths := range m.files {
		for path, shares := range paths {
			got, err := fetchFile(t, conns[user], path)
			if err != nil {
				t.Fatalf("after %s: %v", op, err)
			}
			for i, s := range shares {
				if !bytes.Equal(got[i], m.pool[s]) {
					t.Fatalf("after %s: user %d %s secret %d restores wrong bytes", op, user, path, i)
				}
			}
		}
	}
	checkIndexResolves(t, srv, "after "+op)
	indexed := 0
	err := srv.ix.ScanShares(func(e *index.ShareEntry) error {
		indexed++
		s := slices.Index(m.fps, e.Fingerprint)
		if s < 0 || e.Damaged || len(e.Refs) != len(m.owners[s]) {
			t.Fatalf("after %s: index entry %+v, model owners %v", op, e, m.owners[s])
		}
		for u, c := range m.owners[s] {
			if got, ok := e.Refs[u]; !ok || got != c {
				t.Fatalf("after %s: share %d refs %v, model %v", op, s, e.Refs, m.owners[s])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if indexed != len(m.owners) {
		t.Fatalf("after %s: index holds %d shares, model %d", op, indexed, len(m.owners))
	}
	if !collected {
		return
	}
	names, err := srv.cfg.Backend.List()
	if err != nil {
		t.Fatal(err)
	}
	names = slices.DeleteFunc(names, func(n string) bool { return !strings.HasPrefix(n, "share-") })
	// Every stored entry is one the index places in that very container
	// (a share deleted and uploaded again while its container was still
	// open sits there twice, and both copies stay), and every live share
	// is stored.
	stored := map[metadata.Fingerprint]bool{}
	for _, name := range names {
		c, err := srv.store.GetContainer(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range c.Entries {
			stored[e.Key] = true
			if got, err := srv.ix.LookupShare(e.Key); err != nil || got.Container != name {
				t.Fatalf("after %s: %s still holds %s, which the index places in %+v (%v)", op, name, e.Key, got, err)
			}
		}
	}
	if len(stored) != len(m.owners) {
		t.Fatalf("after %s: containers hold %d distinct shares, the live set is %d", op, len(stored), len(m.owners))
	}
}

// TestServerAgainstModel lifts index/model_test.go's random operation
// stream one level: backups (with content repeated inside a file, shared
// between a user's files and between users, and re-uploads of an existing
// path), uploads that never get a recipe, deletions, GC passes, and
// silent corruption followed by a scrub pass and the repair upload the
// scheduler would make — all through the server's own handlers, compared
// with the model after every operation. The "gc" step is a scrub pass over
// a flushed store.
func TestServerAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runServerModel(t, seed, 120) })
	}
}

func runServerModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	backend := storage.NewMemory()
	srv, err := New(Config{CloudIndex: 0, N: 4, K: 3, IndexDir: t.TempDir(), Backend: backend, ContainerCapacity: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	m := &serverModel{files: map[uint64]map[string][]int{}, owners: map[int]map[uint64]uint32{}}
	for i := 0; i < 40; i++ {
		data := make([]byte, 100+rng.Intn(300))
		rng.Read(data)
		m.pool = append(m.pool, data)
		m.fps = append(m.fps, metadata.FingerprintOf(data))
	}
	users := []uint64{1, 2}
	conns := map[uint64]*protocol.Conn{}
	for _, u := range users {
		conns[u] = dial(t, srv, u)
		m.files[u] = map[string][]int{}
	}
	draw := func() []int {
		shares := make([]int, 1+rng.Intn(6))
		for i := range shares {
			shares[i] = rng.Intn(len(m.pool))
		}
		return append(shares, shares[0]) // every file repeats a secret
	}
	putShares := func(user uint64, shares []int) {
		t.Helper()
		batch := make([]protocol.ShareUpload, len(shares))
		for i, s := range shares {
			batch[i] = protocol.ShareUpload{SecretSeq: uint64(i), SecretSize: uint32(len(m.pool[s])), Data: m.pool[s]}
		}
		if rtyp, reply := call(t, conns[user], protocol.MsgPutShares, protocol.EncodeShareBatch(batch)); rtyp != protocol.MsgPutOK {
			t.Fatalf("put shares: %d %s", rtyp, reply)
		}
		m.put(user, shares)
	}
	for step := 0; step < steps; step++ {
		user := users[rng.Intn(len(users))]
		path := fmt.Sprintf("/f%d", rng.Intn(5))
		op, collected := "", false
		switch r := rng.Intn(100); {
		case r < 45:
			shares := draw()
			op = fmt.Sprintf("backup u%d %s %v", user, path, shares)
			putShares(user, shares)
			recipe := &metadata.Recipe{FileMeta: metadata.FileMeta{Path: path, FileSize: 1, NumSecrets: uint64(len(shares))}}
			for _, s := range shares {
				recipe.Entries = append(recipe.Entries, metadata.RecipeEntry{
					ShareFP: m.fps[s], ShareSize: uint32(len(m.pool[s])), SecretSize: uint32(len(m.pool[s]))})
			}
			if rtyp, reply := call(t, conns[user], protocol.MsgPutRecipe, recipe.Marshal()); rtyp != protocol.MsgPutOK {
				t.Fatalf("step %d %s: %d %s", step, op, rtyp, reply)
			}
			m.recipe(user, path, shares)
		case r < 52:
			shares := draw()
			op = fmt.Sprintf("upload without recipe u%d %v", user, shares)
			putShares(user, shares)
		case r < 72:
			op = fmt.Sprintf("delete u%d %s", user, path)
			rtyp, reply := call(t, conns[user], protocol.MsgDeleteFile, protocol.EncodeString(path))
			if old, ok := m.files[user][path]; ok {
				if rtyp != protocol.MsgPutOK {
					t.Fatalf("step %d %s: %d %s", step, op, rtyp, reply)
				}
				m.release(user, old)
				delete(m.files[user], path)
			} else if rtyp != protocol.MsgError {
				t.Fatalf("step %d %s: deleting a file the model does not have answered %d", step, op, rtyp)
			}
		case r < 86:
			op, collected = "gc", true
			if err := srv.Flush(); err != nil {
				t.Fatal(err)
			}
			before := backend.TotalBytes()
			stats, err := srv.RunScrubPass()
			if err != nil {
				t.Fatalf("step %d gc: %v", step, err)
			}
			// Entry bytes are what the stats count; a container that went
			// whole also gives back its header and trailer.
			if got := before - backend.TotalBytes(); got < stats.BytesReclaimed || (got == 0) != (stats.ContainersRewritten == 0) {
				t.Fatalf("step %d gc: backend shrank by %d, stats %+v", step, got, stats)
			}
		default:
			op = "tamper + scrub + repair upload"
			if err := srv.Flush(); err != nil {
				t.Fatal(err)
			}
			srv.DropCaches()
			victim := fmt.Sprintf("share-u%d-", user)
			var tampered []metadata.Fingerprint
			var tamperedIn []string
			if _, err := storage.Corrupt(backend, func(n string) bool { return strings.HasPrefix(n, victim) },
				func(n string, raw []byte) []byte {
					out, changed := container.TamperEntries(n, raw, 3, 0x3C)
					for _, e := range changed {
						tampered, tamperedIn = append(tampered, e.Key), append(tamperedIn, n)
					}
					return out
				}); err != nil {
				t.Fatal(err)
			}
			// Only a tampered copy the index still points at is damage;
			// the rest was garbage awaiting GC.
			locs, err := srv.ix.LocateShares(nil, tampered, 0)
			if err != nil {
				t.Fatal(err)
			}
			var damaged []int
			for i, f := range tampered {
				if s := slices.Index(m.fps, f); locs[i].Container == tamperedIn[i] && !slices.Contains(damaged, s) {
					damaged = append(damaged, s)
				}
			}
			if _, err := srv.RunScrubPass(); err != nil {
				t.Fatalf("step %d scrub: %v", step, err)
			}
			flagged, err := srv.ix.DamagedShares()
			if err != nil || len(flagged) != len(damaged) {
				t.Fatalf("step %d: scrub flagged %d shares (%v), tampered live copies %d", step, len(flagged), err, len(damaged))
			}
			repaired := srv.ix.RepairedShares()
			for _, s := range damaged { // a heal round's repair upload, by an owner
				for owner := range m.owners[s] {
					putShares(owner, []int{s})
					break
				}
			}
			if got := srv.ix.RepairedShares() - repaired; got != uint64(len(damaged)) {
				t.Fatalf("step %d: %d of %d damaged shares healed", step, got, len(damaged))
			}
		}
		m.check(t, srv, conns, fmt.Sprintf("step %d %s", step, op), collected)
	}
}

// TestGCReclaimsSupersededRecipe: a recipe is live while its file entry
// names the container it sits in, so re-uploading a path leaves the old
// recipe — sealed in an earlier container — as garbage the next pass
// collects. (The hand-written sweep that preceded compaction kept every
// recipe whose file key was still in use, wherever it sat, for as long as
// the path existed.)
func TestGCReclaimsSupersededRecipe(t *testing.T) {
	srv, _ := testServer(t)
	pc := dial(t, srv, 1)
	v1 := [][]byte{[]byte("version one, share a"), []byte("version one, share b")}
	v2 := [][]byte{[]byte("version two, share a"), v1[1]}
	uploadFile(t, pc, "/doc", v1)
	if err := srv.Flush(); err != nil { // seals the first recipe's container
		t.Fatal(err)
	}
	uploadFile(t, pc, "/doc", v2)
	stats, err := srv.RunScrubPass()
	if err != nil {
		t.Fatal(err)
	}
	if stats.RecipesDropped != 1 || stats.SharesDropped != 1 {
		t.Fatalf("pass after a re-upload: %+v, want the old recipe and the one share only it named", stats)
	}
	if got, err := fetchFile(t, pc, "/doc"); err != nil || !slices.EqualFunc(got, v2, bytes.Equal) {
		t.Fatalf("the re-uploaded file does not restore: %v", err)
	}
}
