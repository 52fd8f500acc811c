package scrub

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

// testCloud is one cloud's server-side state without the network.
type testCloud struct {
	backend *storage.Memory
	store   *container.Store
	ix      *index.Index
}

func newTestCloud(t *testing.T) *testCloud {
	t.Helper()
	backend := storage.NewMemory()
	store, err := container.NewStore(backend, &container.StoreOptions{Capacity: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return &testCloud{backend: backend, store: store, ix: ix}
}

// putShares runs the server's reserve/append/commit put path for a batch
// of share payloads and returns their fingerprints.
func (tc *testCloud) putShares(t *testing.T, userID uint64, payloads [][]byte) []metadata.Fingerprint {
	t.Helper()
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

func (tc *testCloud) scrubber(cfg Config) *Scrubber {
	cfg.Backend = tc.backend
	cfg.Index = tc.ix
	cfg.Store = tc.store
	return New(cfg)
}

func TestScrubCleanPass(t *testing.T) {
	tc := newTestCloud(t)
	tc.putShares(t, 1, payloads(40, 1024, 1))
	if err := tc.store.Flush(); err != nil {
		t.Fatal(err)
	}
	s := tc.scrubber(Config{})
	defer s.Close()
	stats, err := s.RunPass()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Damaged) != 0 {
		t.Fatalf("clean store reported damage: %+v", stats.Damaged)
	}
	if stats.Containers == 0 || stats.Entries != 40 || stats.Bytes == 0 {
		t.Fatalf("pass scanned nothing: %+v", stats)
	}
	c := s.Counters()
	if c.Passes != 1 || c.EntriesVerified != 40 || c.DamagedEntries != 0 {
		t.Fatalf("counters: %+v", c)
	}
}

func TestScrubDetectsSilentEntryCorruptionAndQuarantines(t *testing.T) {
	tc := newTestCloud(t)
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

	s := tc.scrubber(Config{})
	defer s.Close()
	stats, err := s.RunPass()
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
	stats2, err := s.RunPass()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats2.Damaged) != 0 {
		t.Fatalf("second pass re-reported damage: %+v", stats2.Damaged)
	}
}

func TestScrubDetectsCRCCorruptionAndLoss(t *testing.T) {
	tc := newTestCloud(t)
	fps := tc.putShares(t, 1, payloads(30, 1500, 3))
	if err := tc.store.Flush(); err != nil {
		t.Fatal(err)
	}
	tc.store.DropCache()

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

	s := tc.scrubber(Config{})
	defer s.Close()
	stats, err := s.RunPass()
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
}

func TestScrubHonorsByteBudget(t *testing.T) {
	tc := newTestCloud(t)
	tc.putShares(t, 1, payloads(48, 4096, 4)) // ~200KB total
	if err := tc.store.Flush(); err != nil {
		t.Fatal(err)
	}
	var total int64 = tc.backend.TotalBytes()

	const budget = 256 << 10 // 256 KB/s
	s := tc.scrubber(Config{BudgetBytesPerSec: budget})
	defer s.Close()
	start := time.Now()
	stats, err := s.RunPass()
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if stats.Bytes != total {
		t.Fatalf("scanned %d bytes, stored %d", stats.Bytes, total)
	}
	// Measured read rate must not exceed the budget (allowing the
	// 1-second burst the bucket grants at start).
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
// its checkpointed cursor behind, a fresh scrubber resumes from it and
// skips what was verified, and a completed pass clears it.
func TestScrubCursorRestart(t *testing.T) {
	tc := newTestCloud(t)
	tc.putShares(t, 1, payloads(60, 4096, 5))
	if err := tc.store.Flush(); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "scrub.cursor")

	// Slow pass so it can be interrupted mid-flight.
	s := tc.scrubber(Config{BudgetBytesPerSec: 64 << 10, CheckpointPath: ckpt})
	var wg sync.WaitGroup
	wg.Add(1)
	var passErr error
	go func() {
		defer wg.Done()
		_, passErr = s.RunPass()
	}()

	// Wait for some progress: the mid-pass cursor is checkpointed.
	deadline := time.Now().Add(5 * time.Second)
	for s.Counters().ContainersScanned < 2 {
		if time.Now().After(deadline) {
			t.Fatal("pass made no progress")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint while mid-pass: %v", err)
	}

	// Kill the scrubber mid-pass (simulated restart)...
	s.Close()
	wg.Wait()
	if passErr == nil {
		t.Fatal("interrupted pass returned no error")
	}

	// ...and resume from the cursor with a fresh scrubber: the pass
	// reports Resumed and skips already-verified containers.
	s2 := tc.scrubber(Config{CheckpointPath: ckpt})
	defer s2.Close()
	stats, err := s2.RunPass()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Resumed {
		t.Fatal("restarted pass did not resume from cursor")
	}
	names, err := tc.backend.List()
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
	stats2, err := s2.RunPass()
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Resumed || stats2.Containers != len(names) {
		t.Fatalf("post-resume pass: resumed=%v containers=%d want full %d", stats2.Resumed, stats2.Containers, len(names))
	}
}

func TestScrubBackgroundLoop(t *testing.T) {
	tc := newTestCloud(t)
	tc.putShares(t, 1, payloads(10, 512, 6))
	if err := tc.store.Flush(); err != nil {
		t.Fatal(err)
	}
	s := tc.scrubber(Config{Interval: 10 * time.Millisecond})
	s.Start()
	deadline := time.Now().Add(5 * time.Second)
	for s.Counters().Passes < 2 {
		if time.Now().After(deadline) {
			t.Fatal("background loop completed < 2 passes")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Close()
	p := s.Counters().Passes
	time.Sleep(50 * time.Millisecond)
	if s.Counters().Passes != p {
		t.Fatal("loop kept running after Close")
	}
}

func TestScrubRepairReintegration(t *testing.T) {
	// After quarantine, re-uploading the damaged bytes through the normal
	// put path heals the entry (the repair-reserve path end to end).
	tc := newTestCloud(t)
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
	s := tc.scrubber(Config{})
	defer s.Close()
	if _, err := s.RunPass(); err != nil {
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
	stats, err := s.RunPass()
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

func TestScrubQuiesceLockHeldDuringQuarantine(t *testing.T) {
	tc := newTestCloud(t)
	tc.putShares(t, 1, payloads(4, 512, 8))
	if err := tc.store.Flush(); err != nil {
		t.Fatal(err)
	}
	tc.store.DropCache()
	if _, err := storage.Corrupt(tc.backend, nil, storage.FlipBit(1)); err != nil {
		t.Fatal(err)
	}
	var lk countingLock
	s := tc.scrubber(Config{QuiesceLock: &lk})
	defer s.Close()
	if _, err := s.RunPass(); err != nil {
		t.Fatal(err)
	}
	if lk.locks == 0 {
		t.Fatal("quarantine ran without taking the quiesce lock")
	}
	if lk.locks != lk.unlocks {
		t.Fatalf("lock imbalance: %d locks, %d unlocks", lk.locks, lk.unlocks)
	}
}

// TestScrubReclaimLocksPerRewrite: a pass asks the index about every
// container without the quiesce lock and takes it once per container that
// holds garbage, which it rewrites, so uploads are excluded only while
// that happens. A pass over a store with no garbage never takes it.
func TestScrubReclaimLocksPerRewrite(t *testing.T) {
	tc := newTestCloud(t)
	fps := tc.putShares(t, 1, payloads(48, 1024, 9))
	if err := tc.store.Flush(); err != nil {
		t.Fatal(err)
	}
	var lk countingLock
	s := tc.scrubber(Config{QuiesceLock: &lk})
	defer s.Close()
	if stats, err := s.RunPass(); err != nil || lk.locks != 0 || stats.ContainersRewritten != 0 {
		t.Fatalf("pass over a garbage-free store: %d locks, %+v, %v", lk.locks, stats, err)
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
		if left, err := tc.ix.ReleaseShareRef(in[name], 1); err != nil || left != 0 {
			t.Fatalf("release: %d left, %v", left, err)
		}
	}
	before := tc.backend.TotalBytes()
	stats, err := s.RunPass()
	if err != nil {
		t.Fatal(err)
	}
	m := len(garbage)
	if lk.locks != m || lk.unlocks != m {
		t.Fatalf("%d containers held garbage; the pass locked %d times, unlocked %d", m, lk.locks, lk.unlocks)
	}
	if stats.ContainersRewritten != m || stats.SharesDropped != m || stats.BytesReclaimed != before-tc.backend.TotalBytes() {
		t.Fatalf("pass reclaimed %+v; the backend shrank by %d", stats, before-tc.backend.TotalBytes())
	}
	if stats, err := s.RunPass(); err != nil || lk.locks != m || stats.ContainersRewritten != 0 {
		t.Fatalf("second pass: %d locks in all, %+v, %v", lk.locks, stats, err)
	}
}

type countingLock struct {
	mu      sync.Mutex
	locks   int
	unlocks int
}

func (c *countingLock) Lock()   { c.mu.Lock(); c.locks++ }
func (c *countingLock) Unlock() { c.unlocks++; c.mu.Unlock() }

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
