package client

import (
	"io"
	"math/rand"
	"runtime"
	"testing"
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
