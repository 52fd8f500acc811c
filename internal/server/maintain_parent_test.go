package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cdstore/internal/container"
	"cdstore/internal/index"
	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/storage"
)

// This file pins what a GC pass and a quarantine pass do to a store
// against the commit before both became scrub.Compact (PR 22's parent,
// 41daf53). maintenanceScenario uses only calls both commits have, so
// testdata/maintenance_parent.json was produced by running it, unchanged,
// in a checkout of the parent with
//
//	func TestWriteMaintenanceFixture(t *testing.T) {
//		raw, _ := json.MarshalIndent(maintenanceScenario(t), "", " ")
//		os.WriteFile("testdata/maintenance_parent.json", append(raw, '\n'), 0o644)
//	}
//
// To change the fixture deliberately, do that again at the commit whose
// behaviour is to be the reference.

// stepDigest is everything observable after one step of the scenario.
type stepDigest struct {
	Step    string
	GC      *GCStats          `json:",omitempty"`
	Pass    *passDigest       `json:",omitempty"`
	Report  *reportDigest     `json:",omitempty"`
	Backend map[string]string // object name -> SHA-256 of its bytes
	Shares  []string          // decoded share index entries, by fingerprint
	Files   []string          // decoded file index entries
}

type passDigest struct {
	Containers, Entries int
	Bytes               int64
	Damaged             []string
}

type reportDigest struct {
	Counters string
	Affected []string
}

func short(fp metadata.Fingerprint) string { return hex.EncodeToString(fp[:6]) }

func digestStep(t *testing.T, step string, srv *Server, backend storage.Backend) stepDigest {
	t.Helper()
	d := stepDigest{Step: step, Backend: map[string]string{}}
	names, err := backend.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		raw, err := backend.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		d.Backend[name] = hex.EncodeToString(sum[:])
	}
	err = srv.ix.ScanShares(func(e *index.ShareEntry) error {
		var refs []string
		for u, c := range e.Refs {
			refs = append(refs, fmt.Sprintf("u%d:%d", u, c))
		}
		slices.Sort(refs)
		d.Shares = append(d.Shares, fmt.Sprintf("%s in %q size %d damaged %v refs %s",
			short(e.Fingerprint), e.Container, e.Size, e.Damaged, strings.Join(refs, ",")))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(d.Shares)
	err = srv.ix.ScanFiles(func(fe *index.FileEntry) error {
		d.Files = append(d.Files, fmt.Sprintf("u%d %s size %d secrets %d recipe in %q",
			fe.UserID, fe.Path, fe.FileSize, fe.NumSecrets, fe.RecipeContainer))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(d.Files)
	return d
}

// maintenanceScenario builds a seeded store — three users, files that
// share content within and across users, deletions, an upload that never
// got its recipe — and takes it through GC, damage of every kind, a scrub
// pass with quarantine, and a second GC.
func maintenanceScenario(t *testing.T) []stepDigest {
	t.Helper()
	backend := storage.NewMemory()
	srv, err := New(Config{CloudIndex: 0, N: 4, K: 3, IndexDir: t.TempDir(), Backend: backend, ContainerCapacity: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rng := rand.New(rand.NewSource(22))
	pool := make([][]byte, 60)
	for i := range pool {
		pool[i] = make([]byte, 150+rng.Intn(400))
		rng.Read(pool[i])
	}
	pick := func(idx ...int) [][]byte {
		out := make([][]byte, len(idx))
		for i, j := range idx {
			out[i] = pool[j]
		}
		return out
	}
	span := func(from, to int) []int {
		var out []int
		for i := from; i <= to; i++ {
			out = append(out, i)
		}
		return out
	}
	conns := map[uint64]*protocol.Conn{}
	for _, user := range []uint64{1, 2, 3} {
		a, b := net.Pipe()
		go srv.ServeConn(a)
		pc := protocol.NewConn(b)
		defer pc.Close()
		hello(t, pc, user)
		conns[user] = pc
	}
	uploadFile(t, conns[1], "/a", pick(span(0, 9)...))
	uploadFile(t, conns[1], "/b", pick(span(5, 14)...))
	uploadFile(t, conns[2], "/x", pick(append(span(5, 9), span(30, 35)...)...)) // 5-9 are user 1's
	uploadFile(t, conns[1], "/c", pick(span(15, 22)...))
	uploadFile(t, conns[3], "/p", pick(span(45, 52)...))
	uploadFile(t, conns[2], "/y", pick(span(36, 40)...))
	uploadFile(t, conns[1], "/d", pick(0, 0, 1, 23))
	uploadFile(t, conns[3], "/q", pick(span(50, 55)...))
	uploadFile(t, conns[2], "/z", pick(30, 31, 32, 33, 41))
	// Shares uploaded with no recipe yet: the count-0 markers GC keeps.
	orphans := []protocol.ShareUpload{{SecretSeq: 0, SecretSize: 1, Data: pool[58]}, {SecretSeq: 1, SecretSize: 1, Data: pool[59]}}
	if rtyp, reply := call(t, conns[2], protocol.MsgPutShares, protocol.EncodeShareBatch(orphans)); rtyp != protocol.MsgPutOK {
		t.Fatalf("orphan put: %d %s", rtyp, reply)
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	steps := []stepDigest{digestStep(t, "populated", srv, backend)}

	for _, del := range []struct {
		user uint64
		path string
	}{{1, "/b"}, {2, "/y"}, {3, "/p"}, {3, "/q"}} {
		if rtyp, reply := call(t, conns[del.user], protocol.MsgDeleteFile, protocol.EncodeString(del.path)); rtyp != protocol.MsgPutOK {
			t.Fatalf("delete %s: %d %s", del.path, rtyp, reply)
		}
	}
	gc, err := srv.GC()
	if err != nil {
		t.Fatal(err)
	}
	d := digestStep(t, "gc", srv, backend)
	d.GC = gc
	steps = append(steps, d)

	// Damage of every kind: silent entry corruption in user 1's share
	// containers and in one of its recipe containers, a bit flip in one of
	// user 2's share containers, and the loss of another.
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	srv.DropCaches()
	u2, err := srv.store.ListContainers(container.ShareContainer)
	if err != nil {
		t.Fatal(err)
	}
	u2 = slices.DeleteFunc(u2, func(n string) bool { return !strings.HasPrefix(n, "share-u2-") })
	if len(u2) < 2 {
		t.Fatalf("user 2 has %d share containers, the scenario needs two", len(u2))
	}
	recipeTampered := false
	_, err = storage.Corrupt(backend, nil, func(name string, raw []byte) []byte {
		switch {
		case strings.HasPrefix(name, "share-u1-"):
			out, _ := container.TamperEntries(name, raw, 3, 0xA5)
			return out
		case strings.HasPrefix(name, "recipe-u1-") && !recipeTampered:
			recipeTampered = true
			out, _ := container.TamperEntries(name, raw, 2, 0xFF)
			return out
		case name == u2[0]:
			return storage.FlipBit(7)(name, raw)
		case name == u2[len(u2)-1]:
			return nil
		}
		return raw
	})
	if err != nil {
		t.Fatal(err)
	}
	pass, err := srv.RunScrubPass()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := srv.ScrubReport()
	if err != nil {
		t.Fatal(err)
	}
	d = digestStep(t, "scrub", srv, backend)
	d.Pass = &passDigest{Containers: pass.Containers, Entries: pass.Entries, Bytes: pass.Bytes}
	for _, dmg := range pass.Damaged {
		fps := make([]string, len(dmg.DamagedShares))
		for i, fp := range dmg.DamagedShares {
			fps[i] = short(fp)
		}
		slices.Sort(fps) // a lost container's list comes from an index walk
		d.Pass.Damaged = append(d.Pass.Damaged, fmt.Sprintf("%s %v %v lost recipes %d shares %s",
			dmg.Container, dmg.Type, dmg.Verdict, dmg.LostRecipes, strings.Join(fps, ",")))
	}
	d.Report = &reportDigest{Counters: fmt.Sprintf("passes %d containers %d bytes %d entries %d damaged containers %d entries %d quarantined %d lost recipes %d outstanding %d repaired %d",
		rep.Passes, rep.ContainersScanned, rep.BytesScanned, rep.EntriesVerified, rep.DamagedContainers,
		rep.DamagedEntries, rep.QuarantinedShares, rep.LostRecipes, rep.DamagedOutstanding, rep.RepairedShares)}
	for _, af := range rep.Affected {
		fps := make([]string, len(af.Damaged))
		for i, fp := range af.Damaged {
			fps[i] = short(fp)
		}
		d.Report.Affected = append(d.Report.Affected, fmt.Sprintf("u%d %s recipe lost %v damaged %s",
			af.UserID, af.Path, af.RecipeLost, strings.Join(fps, ",")))
	}
	slices.Sort(d.Report.Affected)
	steps = append(steps, d)

	if gc, err = srv.GC(); err != nil {
		t.Fatal(err)
	}
	d = digestStep(t, "gc after scrub", srv, backend)
	d.GC = gc
	return append(steps, d)
}

// TestMaintenanceMatchesParent: GC and quarantine leave the backend
// objects (names and bytes), the statistics and the decoded index of the
// parent commit, which ran them as three hand-written rewrite loops.
func TestMaintenanceMatchesParent(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "maintenance_parent.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []stepDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := maintenanceScenario(t)
	if len(got) != len(want) {
		t.Fatalf("%d steps, fixture has %d", len(got), len(want))
	}
	for i := range want {
		g, _ := json.MarshalIndent(got[i], "", " ")
		w, _ := json.MarshalIndent(want[i], "", " ")
		if string(g) != string(w) {
			t.Fatalf("step %q differs from the parent commit\n--- got\n%s\n--- parent\n%s", want[i].Step, g, w)
		}
	}
	// And the same again: nothing in a pass depends on map order.
	again, _ := json.Marshal(maintenanceScenario(t))
	first, _ := json.Marshal(got)
	if string(again) != string(first) {
		t.Fatal("two runs of the scenario differ")
	}
}
