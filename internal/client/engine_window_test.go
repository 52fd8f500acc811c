package client

import (
	"bytes"
	"math/rand"
	"testing"

	"cdstore/internal/metadata"
)

// windowTestEngine builds a bare restoreEngine over a synthetic recipe
// with the given per-secret sizes — enough state for windowEnd, which
// only consults the recipe, the counts, and the budgets.
func windowTestEngine(sizes []uint32, window, windowBytes int) *restoreEngine {
	r := &metadata.Recipe{
		FileMeta: metadata.FileMeta{NumSecrets: uint64(len(sizes))},
		Entries:  make([]metadata.RecipeEntry, len(sizes)),
	}
	for i, sz := range sizes {
		r.Entries[i].SecretSize = sz
	}
	return &restoreEngine{
		numSecrets:  uint64(len(sizes)),
		count:       uint64(len(sizes)),
		window:      window,
		windowBytes: windowBytes,
		sizes:       r.Entries,
	}
}

// TestWindowEndCountOnly: under the byte budget every restore runs with,
// windows of secrets far larger than any chunker cuts are still the
// fixed count partition.
func TestWindowEndCountOnly(t *testing.T) {
	sizes := make([]uint32, 10)
	for i := range sizes {
		sizes[i] = 1 << 20
	}
	e := windowTestEngine(sizes, 4, restoreWindowBytes)
	for start, want := range map[uint64]uint64{0: 4, 4: 8, 8: 10} {
		if got := e.windowEnd(start); got != want {
			t.Fatalf("windowEnd(%d) = %d, want %d", start, got, want)
		}
	}
}

// TestWindowEndByteBudget walks skewed secret sizes through a byte
// budget: runs of small secrets fill up to the count cap, a run of big
// secrets closes windows early, and a secret larger than the whole
// budget still gets a window of its own.
func TestWindowEndByteBudget(t *testing.T) {
	sizes := []uint32{
		100, 100, 100, 100, 100, // small: count cap (5) closes the window
		4000, 4000, // two big ones fill the 8000 budget exactly
		9000,      // bigger than the budget: solo window, no stall
		4000, 100, // big+small under budget together
	}
	e := windowTestEngine(sizes, 5, 8000)
	var bounds []uint64
	for start := uint64(0); start < e.numSecrets; {
		end := e.windowEnd(start)
		if end <= start {
			t.Fatalf("windowEnd(%d) = %d: empty window would stall the pipeline", start, end)
		}
		bounds = append(bounds, end)
		start = end
	}
	want := []uint64{5, 7, 8, 10}
	if len(bounds) != len(want) {
		t.Fatalf("window bounds %v, want %v", bounds, want)
	}
	for i := range want {
		if bounds[i] != want[i] {
			t.Fatalf("window bounds %v, want %v", bounds, want)
		}
	}
}

// TestWindowEndBudgetIsExclusive: a secret that would push the window
// past the budget starts the next window; one that lands exactly on the
// budget stays in.
func TestWindowEndBudgetIsExclusive(t *testing.T) {
	e := windowTestEngine([]uint32{3000, 3000, 3000}, 16, 6000)
	if got := e.windowEnd(0); got != 2 {
		t.Fatalf("exact-fit budget: windowEnd(0) = %d, want 2", got)
	}
	e = windowTestEngine([]uint32{3000, 3001, 3000}, 16, 6000)
	if got := e.windowEnd(0); got != 1 {
		t.Fatalf("overflow by one byte: windowEnd(0) = %d, want 1", got)
	}
}

// TestRestoreWindowBytesSkewedSizes is the end-to-end check: a file of
// wildly skewed chunk sizes restored under a tight byte budget must come
// back bit-identical, with the budget forcing many short windows rather
// than one count-full window of huge chunks.
func TestRestoreWindowBytesSkewedSizes(t *testing.T) {
	dialers := pipeDialers(t, 4, 3)
	c, err := Connect(Options{UserID: 1, N: 4, K: 3, EncodeThreads: 2, RestoreWindow: 64}, dialers)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Random data gives the content-defined chunker skewed chunk sizes.
	data := make([]byte, 600<<10)
	rand.New(rand.NewSource(21)).Read(data)
	if _, err := c.Backup("/skewed.bin", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	e, err := c.newRestoreEngine("/skewed.bin", -1)
	if err != nil {
		t.Fatal(err)
	}
	e.windowBytes = 24 << 10 // a few mid-size chunks per window
	var out bytes.Buffer
	if err := e.run(func(d decodedSecret) error {
		_, werr := out.Write(d.data)
		return werr
	}); err != nil {
		t.Fatal(err)
	}
	stats := e.stats()
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("byte-budgeted restore corrupted the file")
	}
	if stats.Secrets < 16 {
		t.Fatalf("only %d secrets: workload too small to exercise windowing", stats.Secrets)
	}
}
