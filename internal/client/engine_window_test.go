package client

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"cdstore/internal/metadata"
)

// windowTestEngine builds a bare restoreEngine over a synthetic recipe
// with the given per-secret sizes and a plan of distinct rows — enough
// state for planWindow, which only consults the recipe, the plan, the
// counts, and the budgets. It is a rebuild's engine (target 0), so what
// a window skips is the plan's alone.
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
		window:      window,
		windowBytes: windowBytes,
		sizes:       r.Entries,
		rows:        make([]posRow, len(sizes)),
	}
}

// windowEnd returns the end of the window planWindow plans from start.
func windowEnd(e *restoreEngine, start uint64) uint64 {
	_, end := e.planWindow(nil, start)
	return end
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
		if got := windowEnd(e, start); got != want {
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
		end := windowEnd(e, start)
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
	if got := windowEnd(e, 0); got != 2 {
		t.Fatalf("exact-fit budget: windowEnd(0) = %d, want 2", got)
	}
	e = windowTestEngine([]uint32{3000, 3001, 3000}, 16, 6000)
	if got := windowEnd(e, 0); got != 1 {
		t.Fatalf("overflow by one byte: windowEnd(0) = %d, want 1", got)
	}
}

// TestWindowSpansSkippedPositions: a window counts only the secrets it
// fetches against both caps, however many skipped positions lie among
// them, and a window of skipped positions alone fetches nothing and runs
// to the end of the file.
func TestWindowSpansSkippedPositions(t *testing.T) {
	sizes := []uint32{4000, 4000, 4000, 4000, 4000, 4000, 4000, 4000}
	e := windowTestEngine(sizes, 2, 8000)
	e.rows[1].repeat, e.rows[2].held = true, true // 0, 3, 4, 5 and 7 are fetched
	e.rows[6].repeat = true
	for _, w := range []struct {
		start, end uint64
		fetch      []uint64
	}{
		{0, 4, []uint64{0, 3}}, // either cap would close it at 2 positions
		{4, 7, []uint64{4, 5}},
		{7, 8, []uint64{7}},
	} {
		fetch, end := e.planWindow(nil, w.start)
		if end != w.end || !slices.Equal(fetch, w.fetch) {
			t.Fatalf("window from %d: fetches %v, ends at %d; want %v, %d", w.start, fetch, end, w.fetch, w.end)
		}
	}
	e.rows[7].held = true
	if fetch, end := e.planWindow(nil, 6); len(fetch) != 0 || end != 8 {
		t.Fatalf("window of skipped positions: fetches %v, ends at %d; want none, 8", fetch, end)
	}
}

// TestRestoreWindowBytesSkewedSizes is the end-to-end check: a file of
// wildly skewed chunk sizes restored under a tight byte budget must come
// back bit-identical, with the budget forcing many short windows rather
// than one count-full window of huge chunks.
func TestRestoreWindowBytesSkewedSizes(t *testing.T) {
	dialers := pipeDialers(t, 4, 3)
	c, err := Connect(Options{UserID: 1, N: 4, K: 3, EncodeThreads: 2}, dialers)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.restoreWindow = 64
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
	if err := e.run(e.planFile(), func(d decodedSecret) error {
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
