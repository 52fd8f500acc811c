package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"cdstore/internal/container"
	"cdstore/internal/index"
	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/storage"
)

// This file pins what reclaiming deleted backups and quarantining damage
// do to a store against commit 41daf53, which ran them as three
// hand-written rewrite loops, GC's behind a stop-the-world Server.GC.
// testdata/maintenance_parent.json was produced there by this scenario
// with a GC call where it now runs a scrub pass, marshalled with
// json.MarshalIndent(steps, "", " "). Recipe format 2 (recipes carry a
// 16-byte version) changed what the recipe containers hold: their image
// hashes and the byte totals (Bytes, BytesReclaimed, the counters' bytes)
// were produced again by this scenario, each container keeping its
// fixture name; every share and file line is the parent's. To change the
// fixture deliberately, produce it again at the commit whose behaviour is
// to be the reference.
//
// A pass visits containers in name order, recipes before shares, where
// GC went shares first; so the containers it rewrites get other sequence
// numbers. The comparison is therefore modulo renaming: a container image
// carries no name, so the backend must hold the same multiset of image
// hashes, and those hashes map each container name to the fixture's.

// stepDigest is everything observable after one step of the scenario.
type stepDigest struct {
	Step    string
	GC      *reclaimDigest    `json:",omitempty"`
	Pass    *passDigest       `json:",omitempty"`
	Report  *reportDigest     `json:",omitempty"`
	Backend map[string]string // object name -> SHA-256 of its bytes
	Shares  []string          // decoded share index entries, by fingerprint
	Files   []string          // decoded file index entries
}

// reclaimDigest is a reclaiming step's totals.
type reclaimDigest struct {
	SharesDropped, RecipesDropped int
	BytesReclaimed                int64
	ContainersRewritten           int
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
// got its recipe — and takes it through a reclaiming pass, damage of
// every kind, a pass with quarantine, and a second reclaiming pass.
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
		pc := pipeTo(srv)
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
	reclaim := func(step string) (stepDigest, *PassStats) {
		t.Helper()
		pass, err := srv.RunScrubPass()
		if err != nil {
			t.Fatal(err)
		}
		if len(pass.Damaged) != 0 {
			t.Fatalf("%s: pass reported damage %+v", step, pass.Damaged)
		}
		d := digestStep(t, step, srv, backend)
		d.GC = &reclaimDigest{pass.SharesDropped, pass.RecipesDropped, pass.BytesReclaimed, pass.ContainersRewritten}
		return d, pass
	}
	d, gcPass := reclaim("gc")
	steps = append(steps, d)

	// Damage of every kind: silent entry corruption in user 1's share
	// containers and in one of its recipe containers, a bit flip in one of
	// user 2's share containers, and the loss of another.
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	srv.DropCaches()
	u2, err := backend.List()
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
	// The counters are the cloud's (Stats); each user's report lists that
	// user's files, labelled here with the asker.
	reports := map[uint64]*protocol.ScrubReport{}
	for _, user := range []uint64{1, 2, 3} {
		if reports[user], err = srv.ScrubReport(user); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	outstanding, err := srv.ix.DamagedShares()
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
	// The fixture's counters are of this pass alone: take away exactly what
	// the reclaiming pass before it scanned.
	d.Report = &reportDigest{Counters: fmt.Sprintf("passes %d containers %d bytes %d entries %d damaged containers %d entries %d quarantined %d lost recipes %d outstanding %d repaired %d",
		st.ScrubPasses-1, st.ContainersScanned-uint64(gcPass.Containers), st.BytesScanned-uint64(gcPass.Bytes),
		st.EntriesVerified-uint64(gcPass.Entries), st.DamagedContainers,
		st.DamagedEntries, st.QuarantinedShares, st.LostRecipes, len(outstanding), st.RepairedShares)}
	for user, rep := range reports {
		for _, af := range rep.Affected {
			fps := make([]string, len(af.Damaged))
			for i, fp := range af.Damaged {
				fps[i] = short(fp)
			}
			d.Report.Affected = append(d.Report.Affected, fmt.Sprintf("u%d %s recipe lost %v damaged %s",
				user, af.Path, af.RecipeLost, strings.Join(fps, ",")))
		}
	}
	slices.Sort(d.Report.Affected)
	steps = append(steps, d)

	d, _ = reclaim("gc after scrub")
	return append(steps, d)
}

// TestMaintenanceMatchesParent: reclaiming and quarantine leave the
// backend objects (up to container names), the statistics and the decoded
// index of the commit that ran them as three hand-written rewrite loops.
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
	rename := fixtureNames(t, got, want)
	for i := range want {
		g, _ := json.MarshalIndent(renamed(got[i], rename), "", " ")
		w, _ := json.MarshalIndent(want[i], "", " ")
		if string(g) != string(w) {
			t.Fatalf("step %q differs from the parent commit\n--- got, renamed\n%s\n--- parent\n%s", want[i].Step, g, w)
		}
	}
	// And the same again: nothing in a pass depends on map order.
	again, _ := json.Marshal(maintenanceScenario(t))
	first, _ := json.Marshal(got)
	if string(again) != string(first) {
		t.Fatal("two runs of the scenario differ")
	}
}

// fixtureNames maps every container name the scenario produced to the
// fixture's name for the same container, through the hash of its image:
// step by step, the backend must hold the fixture's multiset of hashes,
// and a name must keep its counterpart across steps.
func fixtureNames(t *testing.T, got, want []stepDigest) map[string]string {
	t.Helper()
	rename := map[string]string{}
	for i := range want {
		byHash := map[string]string{}
		for name, sum := range want[i].Backend {
			if _, dup := byHash[sum]; dup {
				t.Fatalf("step %q: two fixture objects share hash %s", want[i].Step, sum)
			}
			byHash[sum] = name
		}
		if len(got[i].Backend) != len(byHash) {
			t.Fatalf("step %q: backend holds %d objects, fixture %d", want[i].Step, len(got[i].Backend), len(byHash))
		}
		for name, sum := range got[i].Backend {
			to, ok := byHash[sum]
			if !ok {
				t.Fatalf("step %q: %s holds an image the fixture has nowhere", want[i].Step, name)
			}
			if prev, seen := rename[name]; seen && prev != to {
				t.Fatalf("step %q: %s is the fixture's %s here, %s before", want[i].Step, name, to, prev)
			}
			rename[name] = to
		}
	}
	return rename
}

var containerName = regexp.MustCompile(`(share|recipe)-u[0-9]+-[0-9]{12}`)

// renamed returns d with every container name put through rename.
func renamed(d stepDigest, rename map[string]string) stepDigest {
	sub := func(s string) string {
		return containerName.ReplaceAllStringFunc(s, func(name string) string {
			if to, ok := rename[name]; ok {
				return to
			}
			return name
		})
	}
	subAll := func(in []string) []string {
		out := make([]string, len(in))
		for i, s := range in {
			out[i] = sub(s)
		}
		return out
	}
	out := d
	out.Backend = map[string]string{}
	for name, sum := range d.Backend {
		out.Backend[sub(name)] = sum
	}
	out.Shares, out.Files = subAll(d.Shares), subAll(d.Files)
	if d.Pass != nil {
		p := *d.Pass
		p.Damaged = subAll(p.Damaged)
		out.Pass = &p
	}
	return out
}
