package server

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cdstore/internal/container"
	"cdstore/internal/index"
	"cdstore/internal/metadata"
	"cdstore/internal/storage"
)

// testCloud is one cloud's server without the network: the pass's tests
// drive the put path and the index directly.
type testCloud struct {
	*Server
	backend *storage.Memory
}

// newTestCloud opens a server over a fresh in-memory backend; cfg
// supplies the scrub knobs.
func newTestCloud(t *testing.T, cfg Config) *testCloud {
	t.Helper()
	backend := storage.NewMemory()
	cfg.Backend = backend
	return &testCloud{Server: openTestServer(t, cfg), backend: backend}
}

// openTestServer opens a (4,3) server with 16 KiB containers over cfg's
// backend, in cfg's index directory when one is set, closed when the test
// ends.
func openTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.N, cfg.K, cfg.ContainerCapacity = 4, 3, 16<<10
	if cfg.IndexDir == "" {
		cfg.IndexDir = t.TempDir()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// putShares runs the server's reserve/append/commit put path for a batch
// of share payloads, under gcMu's read side as an upload does, and
// returns their fingerprints.
func (tc *testCloud) putShares(t *testing.T, userID uint64, payloads [][]byte) []metadata.Fingerprint {
	t.Helper()
	tc.gcMu.RLock()
	defer tc.gcMu.RUnlock()
	fps := make([]metadata.Fingerprint, len(payloads))
	entries := make([]container.Entry, len(payloads))
	for i, p := range payloads {
		fps[i] = metadata.FingerprintOf(p)
		entries[i] = container.Entry{Key: fps[i], Data: p}
		st, err := tc.ix.TryReserveShare(fps[i], userID, uint32(len(p)))
		if err != nil || st != index.StatusReserved {
			t.Fatalf("reserve %d: st=%v err=%v", i, st, err)
		}
	}
	names, err := tc.store.AddShares(userID, entries)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.ix.CommitShares(fps, names); err != nil {
		t.Fatal(err)
	}
	return fps
}

// payloads generates n deterministic random share payloads of size bytes.
func payloads(n, size int, seed int64) [][]byte {
	r := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		r.Read(out[i])
	}
	return out
}

func TestScrubCleanPass(t *testing.T) {
	tc := newTestCloud(t, Config{})
	tc.putShares(t, 1, payloads(40, 1024, 1))
	if err := tc.store.Flush(); err != nil {
		t.Fatal(err)
	}
	stats, err := tc.RunScrubPass()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Damaged) != 0 {
		t.Fatalf("clean store reported damage: %+v", stats.Damaged)
	}
	if stats.Containers == 0 || stats.Entries != 40 || stats.Bytes == 0 {
		t.Fatalf("pass scanned nothing: %+v", stats)
	}
	if p, v, d := tc.stats.scrubPasses.Load(), tc.stats.entriesVerified.Load(), tc.stats.damagedEntries.Load(); p != 1 || v != 40 || d != 0 {
		t.Fatalf("counters: %d passes, %d entries verified, %d damaged", p, v, d)
	}
}

func TestScrubDetectsSilentEntryCorruptionAndQuarantines(t *testing.T) {
	tc := newTestCloud(t, Config{})
	fps := tc.putShares(t, 1, payloads(8, 2048, 2))
	if err := tc.store.Flush(); err != nil {
		t.Fatal(err)
	}
	tc.store.DropCache()

	// Structure-preserving tamper: every 4th entry, valid CRC.
	var wantDamaged []metadata.Fingerprint
	_, err := storage.Corrupt(tc.backend,
		func(n string) bool { return strings.HasPrefix(n, "share-") },
		func(n string, raw []byte) []byte {
			out, tampered := container.TamperEntries(n, raw, 4, 0xA5)
			for _, e := range tampered {
				wantDamaged = append(wantDamaged, e.Key)
			}
			return out
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(wantDamaged) == 0 {
		t.Fatal("tamper changed nothing")
	}

	stats, err := tc.RunScrubPass()
	if err != nil {
		t.Fatal(err)
	}

	// 100% detection, no false positives.
	detected := make(map[metadata.Fingerprint]bool)
	for _, d := range stats.Damaged {
		if d.Verdict != VerdictEntryDamage {
			t.Fatalf("verdict %v, want entry-damage", d.Verdict)
		}
		for _, fp := range d.DamagedShares {
			detected[fp] = true
		}
	}
	if len(detected) != len(wantDamaged) {
		t.Fatalf("detected %d damaged entries, injected %d", len(detected), len(wantDamaged))
	}
	for _, fp := range wantDamaged {
		if !detected[fp] {
			t.Fatalf("injected damage %s not detected", fp)
		}
	}

	// Quarantine: damaged fps flagged, survivors repointed and readable.
	damaged, err := tc.ix.DamagedShares()
	if err != nil {
		t.Fatal(err)
	}
	if len(damaged) != len(wantDamaged) {
		t.Fatalf("index flags %d entries, want %d", len(damaged), len(wantDamaged))
	}
	for _, fp := range fps {
		if detected[fp] {
			continue
		}
		e, err := tc.ix.LookupShare(fp)
		if err != nil {
			t.Fatalf("survivor %s lost from index: %v", fp, err)
		}
		if e.Damaged {
			t.Fatalf("survivor %s flagged damaged", fp)
		}
		if _, err := tc.store.GetEntry(e.Container, fp); err != nil {
			t.Fatalf("survivor %s unreadable after quarantine: %v", fp, err)
		}
	}

	// A second pass over the quarantined store finds nothing new.
	stats2, err := tc.RunScrubPass()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats2.Damaged) != 0 {
		t.Fatalf("second pass re-reported damage: %+v", stats2.Damaged)
	}
}

// TestScrubDetectsCRCCorruptionAndLoss: a pass finds a bit flip and a
// lost container, and flags exactly their shares, whether or not the lost
// container is still in the read cache (every container is, right after
// it is persisted).
func TestScrubDetectsCRCCorruptionAndLoss(t *testing.T) {
	for _, in := range []struct {
		name      string
		dropCache bool
	}{{"cached", false}, {"cache dropped", true}} {
		t.Run(in.name, func(t *testing.T) {
			tc := newTestCloud(t, Config{})
			fps := tc.putShares(t, 1, payloads(30, 1500, 3))
			if err := tc.store.Flush(); err != nil {
				t.Fatal(err)
			}
			if in.dropCache {
				tc.store.DropCache()
			}

			names, err := tc.backend.List()
			if err != nil {
				t.Fatal(err)
			}
			if len(names) < 3 {
				t.Fatalf("need >=3 containers, got %d", len(names))
			}
			// Container 0: raw bit flip (CRC mismatch). Container 1: deleted (loss).
			if _, err := storage.Corrupt(tc.backend,
				func(n string) bool { return n == names[0] || n == names[1] },
				func(n string, raw []byte) []byte {
					if n == names[1] {
						return nil
					}
					return storage.FlipBit(99)(n, raw)
				}); err != nil {
				t.Fatal(err)
			}

			stats, err := tc.RunScrubPass()
			if err != nil {
				t.Fatal(err)
			}

			verdicts := map[string]Verdict{}
			for _, d := range stats.Damaged {
				verdicts[d.Container] = d.Verdict
			}
			if verdicts[names[0]] != VerdictCorrupt {
				t.Fatalf("container %s verdict %v, want corrupt", names[0], verdicts[names[0]])
			}
			if verdicts[names[1]] != VerdictMissing {
				t.Fatalf("container %s verdict %v, want missing", names[1], verdicts[names[1]])
			}

			// Every share of both containers is flagged; shares elsewhere are not.
			damaged, err := tc.ix.DamagedShares()
			if err != nil {
				t.Fatal(err)
			}
			flagged := make(map[metadata.Fingerprint]bool, len(damaged))
			for _, e := range damaged {
				flagged[e.Fingerprint] = true
			}
			var wantFlagged int
			for _, fp := range fps {
				e, err := tc.ix.LookupShare(fp)
				if err != nil {
					t.Fatal(err)
				}
				if flagged[fp] {
					wantFlagged++
					if e.Container != "" {
						t.Fatalf("damaged %s still points at container %q", fp, e.Container)
					}
				} else if e.Container == names[0] || e.Container == names[1] {
					t.Fatalf("share %s of damaged container not flagged", fp)
				}
			}
			if wantFlagged == 0 {
				t.Fatal("no shares flagged for corrupt+missing containers")
			}
			// Corrupt container was deleted from the backend during quarantine.
			if _, err := tc.backend.Get(names[0]); err == nil {
				t.Fatal("corrupt container left on backend after quarantine")
			}
		})
	}
}

func TestScrubHonorsByteBudget(t *testing.T) {
	const budget = 256 << 10 // 256 KB/s
	tc := newTestCloud(t, Config{ScrubBudgetBytesPerSec: budget})
	tc.putShares(t, 1, payloads(48, 4096, 4)) // ~200KB total
	if err := tc.store.Flush(); err != nil {
		t.Fatal(err)
	}
	var total int64 = tc.backend.TotalBytes()

	start := time.Now()
	stats, err := tc.RunScrubPass()
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if stats.Bytes != total {
		t.Fatalf("scanned %d bytes, stored %d", stats.Bytes, total)
	}
	// Measured read rate must not exceed the budget, allowing one second
	// of budget up front: more than the limiter's burst, max(budget/10,
	// 64 KB), that passes at start.
	burst := int64(budget)
	if over := stats.Bytes - burst; over > 0 {
		minDuration := time.Duration(float64(over) / budget * float64(time.Second))
		if elapsed < minDuration/2 {
			t.Fatalf("pass of %d bytes took %v; budget %d B/s implies >= %v", stats.Bytes, elapsed, int64(budget), minDuration)
		}
	}
	rate := float64(stats.Bytes-burst) / elapsed.Seconds()
	if rate > float64(budget)*1.25 {
		t.Fatalf("measured scan rate %.0f B/s exceeds budget %d B/s", rate, int64(budget))
	}
}

// TestScrubCursorRestart: a pass interrupted mid-store by Close leaves
// its checkpointed cursor behind, a server reopened over the same
// directories resumes from it and skips what was verified, and a
// completed pass clears it.
func TestScrubCursorRestart(t *testing.T) {
	indexDir, backendDir := t.TempDir(), t.TempDir()
	open := func(budget int64) *testCloud {
		t.Helper()
		backend, err := storage.NewLocalDir(backendDir)
		if err != nil {
			t.Fatal(err)
		}
		return &testCloud{Server: openTestServer(t, Config{IndexDir: indexDir, Backend: backend, ScrubBudgetBytesPerSec: budget})}
	}
	// Slow pass so it can be interrupted mid-flight.
	tc := open(64 << 10)
	tc.putShares(t, 1, payloads(60, 4096, 5))
	if err := tc.store.Flush(); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(indexDir, "scrub.cursor")

	var wg sync.WaitGroup
	wg.Add(1)
	var passErr error
	go func() {
		defer wg.Done()
		_, passErr = tc.RunScrubPass()
	}()

	// Wait for some progress: the mid-pass cursor is checkpointed.
	deadline := time.Now().Add(5 * time.Second)
	for tc.stats.containersScanned.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("pass made no progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint while mid-pass: %v", err)
	}

	// Shut the server down mid-pass...
	if err := tc.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if passErr == nil {
		t.Fatal("interrupted pass returned no error")
	}

	// ...and reopen it: the pass reports Resumed and skips
	// already-verified containers.
	tc = open(0)
	stats, err := tc.RunScrubPass()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Resumed {
		t.Fatal("restarted pass did not resume from cursor")
	}
	names, err := tc.cfg.Backend.List()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Containers >= len(names) {
		t.Fatalf("resumed pass re-scanned everything (%d of %d)", stats.Containers, len(names))
	}
	// Cursor cleared after a completed pass; the next one is full.
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("cursor not cleared after completed pass: %v", err)
	}
	stats2, err := tc.RunScrubPass()
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Resumed || stats2.Containers != len(names) {
		t.Fatalf("post-resume pass: resumed=%v containers=%d want full %d", stats2.Resumed, stats2.Containers, len(names))
	}
}

func TestScrubBackgroundLoop(t *testing.T) {
	tc := newTestCloud(t, Config{ScrubInterval: 10 * time.Millisecond})
	tc.putShares(t, 1, payloads(10, 512, 6))
	if err := tc.store.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for tc.stats.scrubPasses.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("background loop completed < 2 passes")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := tc.Close(); err != nil {
		t.Fatal(err)
	}
	p := tc.stats.scrubPasses.Load()
	time.Sleep(50 * time.Millisecond)
	if tc.stats.scrubPasses.Load() != p {
		t.Fatal("loop kept running after Close")
	}
}

func TestScrubRepairReintegration(t *testing.T) {
	// After quarantine, re-uploading the damaged bytes through the normal
	// put path heals the entry (the repair-reserve path end to end).
	tc := newTestCloud(t, Config{})
	data := payloads(4, 1024, 7)
	fps := tc.putShares(t, 1, data)
	if err := tc.store.Flush(); err != nil {
		t.Fatal(err)
	}
	tc.store.DropCache()
	if _, err := storage.Corrupt(tc.backend, nil, func(n string, raw []byte) []byte {
		out, _ := container.TamperEntries(n, raw, 1, 0x5A)
		return out
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.RunScrubPass(); err != nil {
		t.Fatal(err)
	}
	if d, _ := tc.ix.DamagedShares(); len(d) != len(fps) {
		t.Fatalf("flagged %d, want all %d", len(d), len(fps))
	}

	tc.putShares(t, 1, data) // repair upload: same bytes, fresh placement
	if err := tc.store.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := tc.ix.RepairedShares(); got != uint64(len(fps)) {
		t.Fatalf("RepairedShares = %d, want %d", got, len(fps))
	}
	if d, _ := tc.ix.DamagedShares(); len(d) != 0 {
		t.Fatalf("entries still damaged after repair: %d", len(d))
	}
	// Healed bytes verify clean.
	stats, err := tc.RunScrubPass()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Damaged) != 0 {
		t.Fatalf("post-repair pass found damage: %+v", stats.Damaged)
	}
	for _, fp := range fps {
		e, err := tc.ix.LookupShare(fp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tc.store.GetEntry(e.Container, fp); err != nil {
			t.Fatalf("healed share unreadable: %v", err)
		}
	}
}

// lockWatch is a backend that records, for every call the pass makes,
// whether gcMu's write side — the lock uploads hold the read side of —
// was held at the time: TryRLock fails exactly then, no other writer
// being about.
type lockWatch struct {
	storage.Backend
	srv *Server // nil until the server is open
	log []lockObs
}

type lockObs struct {
	op     string
	locked bool
}

func (w *lockWatch) observe(op string) {
	if w.srv == nil {
		return
	}
	locked := !w.srv.gcMu.TryRLock()
	if !locked {
		w.srv.gcMu.RUnlock()
	}
	w.log = append(w.log, lockObs{op, locked})
}

func (w *lockWatch) Get(name string) ([]byte, error) { w.observe("get"); return w.Backend.Get(name) }
func (w *lockWatch) Put(name string, data []byte) error {
	w.observe("put")
	return w.Backend.Put(name, data)
}
func (w *lockWatch) Delete(name string) error { w.observe("delete"); return w.Backend.Delete(name) }
func (w *lockWatch) List() ([]string, error)  { w.observe("list"); return w.Backend.List() }

// newWatchedCloud is newTestCloud with the server's backend calls
// watched.
func newWatchedCloud(t *testing.T) (*testCloud, *lockWatch) {
	t.Helper()
	backend := storage.NewMemory()
	w := &lockWatch{Backend: backend}
	tc := &testCloud{Server: openTestServer(t, Config{Backend: w}), backend: backend}
	w.srv = tc.Server
	return tc, w
}

// pass runs one pass with a fresh log and returns it with its report.
func (w *lockWatch) pass(t *testing.T) (*PassStats, []lockObs) {
	t.Helper()
	w.log = nil
	stats, err := w.srv.RunScrubPass()
	if err != nil {
		t.Fatal(err)
	}
	return stats, w.log
}

// exclusions checks that every backend write or delete in log ran with
// uploads excluded and returns how many times the pass took the lock
// for them: the runs of locked calls, each ended by a call made
// unlocked.
func exclusions(t *testing.T, log []lockObs) int {
	t.Helper()
	runs := 0
	for i, o := range log {
		if !o.locked && o.op != "get" && o.op != "list" {
			t.Fatalf("call %d (%s) of the pass ran without excluding uploads", i, o.op)
		}
		if o.locked && (i == 0 || !log[i-1].locked) {
			runs++
		}
	}
	return runs
}

func TestScrubQuiesceLockHeldDuringQuarantine(t *testing.T) {
	tc, w := newWatchedCloud(t)
	tc.putShares(t, 1, payloads(4, 512, 8))
	if err := tc.store.Flush(); err != nil {
		t.Fatal(err)
	}
	tc.store.DropCache()
	if _, err := storage.Corrupt(tc.backend, nil, storage.FlipBit(1)); err != nil {
		t.Fatal(err)
	}
	_, log := w.pass(t)
	deletes := 0
	for _, o := range log {
		if o.op == "delete" {
			deletes++
		}
	}
	if n := exclusions(t, log); deletes == 0 || n == 0 {
		t.Fatalf("quarantine dropped %d containers excluding uploads %d times", deletes, n)
	}
	if !tc.gcMu.TryLock() {
		t.Fatal("the pass returned with gcMu still held")
	}
	tc.gcMu.Unlock()
}

// passBesideUpload runs one pass while the test holds gcMu's read side,
// as an upload in flight does, and fails if the pass waits for it: such
// a pass never asks for the write side.
func passBesideUpload(t *testing.T, srv *Server) *PassStats {
	t.Helper()
	srv.gcMu.RLock()
	defer srv.gcMu.RUnlock()
	type result struct {
		stats *PassStats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		stats, err := srv.RunScrubPass()
		done <- result{stats, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.stats
	case <-time.After(10 * time.Second):
		t.Fatal("the pass waited for the upload in flight")
		return nil
	}
}

// TestScrubReclaimLocksPerRewrite: a pass asks the index about every
// container without excluding uploads and excludes them once per
// container that holds garbage, which it rewrites, so uploads are
// excluded only while that happens. A pass over a store with no garbage
// never excludes them: it runs to its end beside an upload.
func TestScrubReclaimLocksPerRewrite(t *testing.T) {
	tc, w := newWatchedCloud(t)
	fps := tc.putShares(t, 1, payloads(48, 1024, 9))
	if err := tc.store.Flush(); err != nil {
		t.Fatal(err)
	}
	if stats := passBesideUpload(t, tc.Server); stats.ContainersRewritten != 0 {
		t.Fatalf("pass over a garbage-free store: %+v", stats)
	}

	// One share of every container but the last becomes garbage.
	in := map[string]metadata.Fingerprint{}
	for _, fp := range fps {
		e, err := tc.ix.LookupShare(fp)
		if err != nil {
			t.Fatal(err)
		}
		in[e.Container] = fp
	}
	names := make([]string, 0, len(in))
	for name := range in {
		names = append(names, name)
	}
	slices.Sort(names)
	garbage := names[:len(names)-1]
	if len(garbage) < 2 {
		t.Fatalf("the shares fill %d containers; the test needs three", len(names))
	}
	for _, name := range garbage {
		releaseLast(t, tc.ix, in[name], 1)
	}
	before := tc.backend.TotalBytes()
	stats, log := w.pass(t)
	m := len(garbage)
	if got := exclusions(t, log); got != m {
		t.Fatalf("%d containers held garbage; the pass excluded uploads %d times", m, got)
	}
	if stats.ContainersRewritten != m || stats.SharesDropped != m || stats.BytesReclaimed != before-tc.backend.TotalBytes() {
		t.Fatalf("pass reclaimed %+v; the backend shrank by %d", stats, before-tc.backend.TotalBytes())
	}
	if stats := passBesideUpload(t, tc.Server); stats.ContainersRewritten != 0 {
		t.Fatalf("second pass: %+v", stats)
	}
}

func TestVerdictString(t *testing.T) {
	for v, want := range map[Verdict]string{
		VerdictClean: "clean", VerdictCorrupt: "corrupt",
		VerdictEntryDamage: "entry-damage", VerdictMissing: "missing",
		VerdictReadError: "read-error",
	} {
		if got := v.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", int(v), got, want)
		}
	}
	if got := Verdict(42).String(); got != fmt.Sprintf("verdict(%d)", 42) {
		t.Fatalf("unknown verdict: %q", got)
	}
}
