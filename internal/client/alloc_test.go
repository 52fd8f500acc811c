package client

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"

	"cdstore/internal/chunker"
	"cdstore/internal/secretshare"
)

// raceEnabled reports whether the race detector is compiled in
// (race_test.go sets it). Allocation floors consult it: under race,
// sync.Pool deliberately drops a fraction of Puts, so pooled states get
// reallocated and per-call allocation counts are inflated.
var raceEnabled bool

// TestBackupStreamAllocFloor pins the steady-state allocation count of
// the whole backup path — encode workers, uploaders, framing, and the
// four in-process servers' put path down to the container append — per
// secret backed up. The secrets are unique (every share is sent and
// stored) and of chunker-like mixed sizes, and they are built before the
// measurement, so the source's own buffers do not count. A per-share
// object anywhere on the path adds n = 4 to the figure: a frame copy, a
// container entry, a recipe map bucket.
func TestBackupStreamAllocFloor(t *testing.T) {
	dialers := pipeDialers(t, 4, 3)
	c, err := Connect(Options{UserID: 1, N: 4, K: 3, EncodeThreads: 2}, dialers)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(23))
	secrets := func(n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = make([]byte, 2048+rng.Intn(14*1024))
			rng.Read(out[i])
		}
		return out
	}
	// Warm up: pools, session maps and scratch slices grow to their
	// working size, the servers' containers and memtables exist.
	if _, err := c.BackupStream("/warm", &sliceSource{chunks: secrets(3000)}); err != nil {
		t.Fatal(err)
	}
	const n = 3000
	src := &sliceSource{chunks: secrets(n)}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := c.BackupStream("/measured", src); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perSecret := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("steady-state backup: %.2f allocations per secret (%.0f bytes)", perSecret, float64(after.TotalAlloc-before.TotalAlloc)/n)
	if raceEnabled {
		t.Skip("allocation floor not meaningful under the race detector")
	}
	if perSecret > allocsPerSecretBound {
		t.Fatalf("backup path allocates %.2f objects per secret, want <= %d", perSecret, allocsPerSecretBound)
	}
}

// allocsPerSecretBound is what the path measures, plus one: 42.8 with
// go1.24 on amd64, of which about 33 are the four servers' share indexes
// taking in four new entries (memtable records, reservations, the
// recipe's reference counts), 3 the AES key schedule and CTR stream of
// the secret's package, and 3 share-pool misses on these mixed sizes.
// It read 46.8 while every stored share was a heap object of its own.
const allocsPerSecretBound = 44

// TestRestoreMemoHitAllocFloor pins the allocation count of a restore the
// session memo answers in full, per secret: the plan's key and use count,
// the pin it takes and gives back, the placeholder's trip round the
// reorder ring and the writer's copy out of the memo allocate nothing, so
// what is left is per file and per window (the recipes, the plan and its
// map, the pipeline itself) spread over the file's secrets.
func TestRestoreMemoHitAllocFloor(t *testing.T) {
	dialers := pipeDialers(t, 4, 3)
	c, err := Connect(Options{UserID: 1, N: 4, K: 3, EncodeThreads: 2}, dialers)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 3000 // 12 MiB: well inside the memo
	data := make([]byte, n*4096)
	rand.New(rand.NewSource(29)).Read(data)
	if _, err := backup(c, "/memo", data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Restore("/memo", io.Discard); err != nil { // fills the memo
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st, err := c.Restore("/memo", io.Discard)
	runtime.ReadMemStats(&after)
	if err != nil || st.SecretsReused != n {
		t.Fatalf("warm restore: %+v, %v", st, err)
	}
	perSecret := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("memo-hit restore: %.2f allocations per secret", perSecret)
	if raceEnabled {
		t.Skip("allocation floor not meaningful under the race detector")
	}
	if perSecret > 4 {
		t.Fatalf("memo-hit restore allocates %.2f objects per secret, want <= 4", perSecret)
	}
}

// TestReadPlanHeapPerSecret pins how the heap of a long file's read path
// grows with the file, a known defect (ROADMAP 13(a)): a restore or a
// repair holds every cloud's recipe of the file (n × 40 bytes per
// position) and its plan's bytes per position — a restore also its
// per-row uses, a repair its per-row entries — for the whole run, where
// item 13(b)'s streamed recipes would bring the growth to about 0. The
// heap is read after a collection at the file's middle secret, on files
// of 10,000 and 40,000 fixed 64-byte secrets, and the figure is the
// growth per extra secret; it includes the in-process clouds, which for
// a repair store the shares the target receives. The bounds are what the
// read path measured before the two operations shared one plan, plus a
// quarter: medians of ten runs with go1.24 on amd64, 378.0 bytes for a
// restore and 512.3 for a repair (single runs spread by up to 9 %).
func TestReadPlanHeapPerSecret(t *testing.T) {
	const secretSize = 64
	sizes := [2]int{10_000, 40_000}
	if raceEnabled {
		// The bound is not checked under the race detector, which would take
		// minutes over these files: a tenth of them exercises the same path.
		sizes = [2]int{1_000, 4_000}
	}
	var restored, repaired [2]int64
	for i, n := range sizes {
		cl := newPipeCluster(t, 4, 3)
		opts := Options{K: 3, EncodeThreads: 2}
		data := make([]byte, n*secretSize)
		rand.New(rand.NewSource(int64(41 + i))).Read(data)
		fc, err := chunker.NewFixed(bytes.NewReader(data), secretSize)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.connect(t, opts).BackupStream("/long", chunkerSource{ck: fc}); err != nil {
			t.Fatal(err)
		}

		// Restore: the sink is the writer, and the middle secret is written
		// past n/2 × secretSize - 1 bytes.
		rc := cl.connect(t, opts)
		base := heapNow()
		w := &hookWriter{w: io.Discard, after: n/2*secretSize - 1, hook: func() { restored[i] = heapNow() - base }}
		if _, err := rc.Restore("/long", w); err != nil {
			t.Fatal(err)
		}

		// Repair onto an empty replacement: the sink hands shares to the
		// target's uploader, whose next round after the target has received
		// half the file is in the sink's call at the middle, to within one
		// upload batch.
		target := newPipeCloud(t, 3, 4, 3)
		dial := target.dial
		cl[3] = target
		var measured bool
		target.dial = func() (net.Conn, error) {
			conn, err := dial()
			return &hookConn{Conn: conn, hook: func() {
				if !measured && target.srv.Stats().SharesReceived >= uint64(n/2) {
					measured = true
					repaired[i] = heapNow() - base
				}
			}}, err
		}
		pc := cl.connect(t, opts)
		base = heapNow()
		if _, err := pc.Repair("/long", 3); err != nil {
			t.Fatal(err)
		}
		if !measured {
			t.Fatal("the repair's sink never reached the middle of the file")
		}
	}
	extra := float64(sizes[1] - sizes[0])
	restorePer := float64(restored[1]-restored[0]) / extra
	repairPer := float64(repaired[1]-repaired[0]) / extra
	t.Logf("heap per extra secret: restore %.1f bytes, repair %.1f bytes", restorePer, repairPer)
	if raceEnabled {
		t.Skip("heap bound not meaningful under the race detector")
	}
	if restorePer > restoreHeapPerSecretBound {
		t.Errorf("restore holds %.1f bytes per secret, want <= %d", restorePer, restoreHeapPerSecretBound)
	}
	if repairPer > repairHeapPerSecretBound {
		t.Errorf("repair holds %.1f bytes per secret, want <= %d", repairPer, repairHeapPerSecretBound)
	}
}

const (
	restoreHeapPerSecretBound = 472
	repairHeapPerSecretBound  = 640
)

// TestMemoChargeCoversItsHeap pins the memo's memory bound: a memo filled
// past its budget holds at most 1.5 times the budget on the heap —
// buffers, entries and map — with values of 32 bytes (a repair's row), 64
// bytes (a tiny secret) or 4 KiB (the workloads' secrets). Charged by
// length alone, the first two held 6.5 and 3.8 times it; the charge floor
// (memoEntryFloor) bounds them.
func TestMemoChargeCoversItsHeap(t *testing.T) {
	const budget = 4 << 20
	for _, size := range []int{32, 64, 4096} {
		var pool secretshare.SharePool
		base := heapNow()
		m := newRowMemo(budget, &pool)
		var key rowKey
		for i := 0; i < 2*budget/size; i++ { // twice the budget, whatever the charge
			binary.BigEndian.PutUint64(key[:], uint64(i))
			m.donate(key, pool.Get(size), 0)
		}
		pool.Drop() // what eviction gave back is the pool's, not the memo's
		held := heapNow() - base
		if m.used > budget || m.used < budget/2 {
			t.Fatalf("%d-byte values: %d entries book %d bytes of a %d budget", size, len(m.rows), m.used, budget)
		}
		ratio := float64(held) / budget
		t.Logf("%d-byte values: %d entries, %d heap bytes, %.2f times the budget", size, len(m.rows), held, ratio)
		runtime.KeepAlive(m)
		if !raceEnabled && ratio > 1.5 {
			t.Errorf("a memo of %d-byte values holds %.2f times its budget, want <= 1.5", size, ratio)
		}
	}
}

// heapNow collects and returns the live heap.
func heapNow() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// hookConn calls hook before every write to the connection.
type hookConn struct {
	net.Conn
	hook func()
}

func (c *hookConn) Write(p []byte) (int, error) {
	c.hook()
	return c.Conn.Write(p)
}

// TestRestoreFetchPathAllocFloor pins the allocation count of a restore
// the session memo cannot answer, per secret: every secret is fetched
// from k clouds, decoded and verified. It counts the whole read path —
// the request, the four in-process servers' index pass and streamed
// reply, the reply frame, the decode job and its share map, the decode
// and the writer's donation to the memo — after a restore of another file
// of the same shape has warmed the pools.
func TestRestoreFetchPathAllocFloor(t *testing.T) {
	dialers := pipeDialers(t, 4, 3)
	c, err := Connect(Options{UserID: 1, N: 4, K: 3, EncodeThreads: 2}, dialers)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 3000 // 12 MiB a file: both fit the memo, neither evicts
	rng := rand.New(rand.NewSource(31))
	for _, path := range []string{"/warm", "/measured"} {
		data := make([]byte, n*4096)
		rng.Read(data)
		if _, err := backup(c, path, data); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Restore("/warm", io.Discard); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st, err := c.Restore("/measured", io.Discard)
	runtime.ReadMemStats(&after)
	if err != nil || st.SecretsReused != 0 || st.Secrets != n {
		t.Fatalf("cold restore: %+v, %v", st, err)
	}
	perSecret := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("memo-cold restore: %.2f allocations per secret (%.0f bytes)", perSecret, float64(after.TotalAlloc-before.TotalAlloc)/n)
	if raceEnabled {
		t.Skip("allocation floor not meaningful under the race detector")
	}
	if perSecret > restoreAllocsPerSecretBound {
		t.Fatalf("memo-cold restore allocates %.2f objects per secret, want <= %d", perSecret, restoreAllocsPerSecretBound)
	}
}

// restoreAllocsPerSecretBound is what the path measures, plus a half: 4.5
// with go1.24 on amd64, of which 2 are the AES key schedule and CTR
// stream of the unpack and 2 the memo growing by the secret (its pooled
// buffer and its entry), which a memo at its budget recycles. It read 8.5
// while every reply had a fresh frame, every job a fresh share map and
// assignment row, and the unpack's IV escaped.
const restoreAllocsPerSecretBound = 5
