package chunker

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
)

// The frozen oracles: the boundary searches exactly as they stood before
// the chunkers moved onto the shared stream buffer and Rabin onto the
// lane scan — one rolling hash restarted at every chunk, run over a
// plain in-memory slice. Content-defined boundaries are the dedup
// identity of everything already stored, so the chunkers must reproduce
// these cut for cut. Nothing here shares a table or a line with the
// production search; do not "tidy" it to.

type oracleTables struct {
	out [256]Pol // contribution of a byte leaving the window
	mod [256]Pol // reduction of the top 8 bits after a shift
}

var oracleRabinTables = buildOracleTables(RabinPoly)

func buildOracleTables(q Pol) *oracleTables {
	t := &oracleTables{}
	k := q.Deg()
	for b := 0; b < 256; b++ {
		// out[b] = hash of (b || 0^(WindowSize-1)): XORing it removes the
		// oldest byte's linear contribution from the rolling hash.
		h := appendByte(0, byte(b), q)
		for i := 0; i < WindowSize-1; i++ {
			h = appendByte(h, 0, q)
		}
		t.out[b] = h
		// mod[b] clears bits k..k+7 and adds their reduction in one XOR.
		t.mod[b] = (Pol(b) << uint(k)).Mod(q) | (Pol(b) << uint(k))
	}
	return t
}

type oracleRabin struct {
	min, avg, max int
	mask          Pol
	polShift      uint
}

func newOracleRabin(min, avg, max int) *oracleRabin {
	return &oracleRabin{min: min, avg: avg, max: max, mask: Pol(avg - 1), polShift: uint(RabinPoly.Deg() - 8)}
}

// findBoundary scans buf and returns the length of the next chunk.
func (c *oracleRabin) findBoundary(buf []byte) int {
	if len(buf) <= c.min {
		return len(buf)
	}
	limit := c.max
	if limit > len(buf) {
		limit = len(buf)
	}
	t := oracleRabinTables
	// Prime the window with the WindowSize bytes ending at min.
	var digest Pol
	var window [WindowSize]byte
	wpos := 0
	start := c.min - WindowSize
	for i := start; i < c.min; i++ {
		b := buf[i]
		window[wpos] = b
		wpos = (wpos + 1) % WindowSize
		index := digest >> c.polShift
		digest = (digest << 8) | Pol(b)
		digest ^= t.mod[index]
	}
	for i := c.min; i < limit; i++ {
		if digest&c.mask == c.mask {
			return i
		}
		out := window[wpos]
		b := buf[i]
		window[wpos] = b
		wpos = (wpos + 1) % WindowSize
		digest ^= t.out[out]
		index := digest >> c.polShift
		digest = (digest << 8) | Pol(b)
		digest ^= t.mod[index]
	}
	return limit
}

type oracleFastCDC struct {
	min, avg, max int
	maskS, maskL  uint64
}

func newOracleFastCDC(min, avg, max int) *oracleFastCDC {
	bits := 0
	for v := avg; v > 1; v >>= 1 {
		bits++
	}
	return &oracleFastCDC{min: min, avg: avg, max: max, maskS: 1<<uint(bits+2) - 1, maskL: 1<<uint(bits-2) - 1}
}

func (c *oracleFastCDC) cutpoint(buf []byte) int {
	n := len(buf)
	if n <= c.min {
		return n
	}
	limit := c.max
	if limit > n {
		limit = n
	}
	normal := c.avg
	if normal > limit {
		normal = limit
	}
	t := gearTable
	var h uint64
	i := c.min
	for ; i < normal; i++ {
		h = h<<1 + t[buf[i]]
		if h&c.maskS == 0 {
			return i + 1
		}
	}
	for ; i < limit; i++ {
		h = h<<1 + t[buf[i]]
		if h&c.maskL == 0 {
			return i + 1
		}
	}
	return limit
}

// oracleCuts chunks data with a frozen boundary search and returns the
// chunk lengths.
func oracleCuts(data []byte, cut func([]byte) int) []int {
	var lens []int
	for len(data) > 0 {
		n := cut(data)
		lens = append(lens, n)
		data = data[n:]
	}
	return lens
}

// checkAgainstOracle runs c to its end and compares every chunk's
// offset, length and bytes with the oracle's cuts of data. wantErr is
// the error Next must end with (io.EOF surfaces as ChunkAll's nil).
func checkAgainstOracle(t *testing.T, label string, c Chunker, data []byte, cut func([]byte) int, wantErr error) {
	t.Helper()
	chunks, err := ChunkAll(c)
	if !errors.Is(err, wantErr) {
		t.Fatalf("%s: chunker ended with %v, want %v", label, err, wantErr)
	}
	want := oracleCuts(data, cut)
	off := 0
	for i, ck := range chunks {
		if i >= len(want) {
			t.Fatalf("%s: %d chunks, oracle has %d", label, len(chunks), len(want))
		}
		if ck.Offset != int64(off) || len(ck.Data) != want[i] {
			t.Fatalf("%s: chunk %d is [%d,+%d), oracle [%d,+%d)", label, i, ck.Offset, len(ck.Data), off, want[i])
		}
		if !bytes.Equal(ck.Data, data[off:off+want[i]]) {
			t.Fatalf("%s: chunk %d bytes differ from the input's", label, i)
		}
		off += want[i]
	}
	if len(chunks) != len(want) {
		t.Fatalf("%s: %d chunks, oracle has %d", label, len(chunks), len(want))
	}
}

// pieceReader hands data out at most n bytes per Read and ends with err
// (io.EOF for a clean end) once data is spent.
type pieceReader struct {
	data []byte
	n    int
	err  error
}

func (r *pieceReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p[:min(len(p), r.n)], r.data)
	r.data = r.data[n:]
	return n, nil
}

// differentialInputs are the shapes that take each exit of the boundary
// search: matches in the body, forced max-size cuts, inputs below and at
// the size limits.
func differentialInputs(min, max int) map[string][]byte {
	lowEntropy := randomData(41, 6*max+123)
	for i := range lowEntropy {
		lowEntropy[i] &= 1 // two symbols: long stretches without a match
	}
	in := map[string][]byte{
		"empty":       nil,
		"one byte":    {7},
		"below min":   randomData(42, min-1),
		"exactly min": randomData(43, min),
		"min plus 1":  randomData(44, min+1),
		"exactly max": randomData(45, max),
		"max plus 1":  randomData(46, max+1),
		"random":      randomData(47, 1<<20+17),
		"low entropy": lowEntropy,
		"zero run":    make([]byte, 70<<10),
		"all 0xFF":    bytes.Repeat([]byte{0xFF}, 5*max+1),
		"zeros then random then zeros": append(append(make([]byte, 3*max), randomData(48, 300<<10)...),
			make([]byte, 2*max+5)...),
	}
	return in
}

type sizes struct{ min, avg, max int }

var differentialSizes = []sizes{
	{DefaultMinSize, DefaultAvgSize, DefaultMaxSize},
	{WindowSize, 64, 64},         // smallest legal Rabin sizes, min = avg = max
	{64, 256, 1024},              // many cuts per buffer
	{4096, 4096, 4096 + 1},       // one judged offset per chunk
	{512, 65536, 3 * 65536},      // max beyond the stream buffer's default size
	{1000, 1 << 12, 10000 + 333}, // nothing aligned
}

func TestRabinMatchesFrozenOracle(t *testing.T) {
	for _, sz := range differentialSizes {
		o := newOracleRabin(sz.min, sz.avg, sz.max)
		for name, data := range differentialInputs(sz.min, sz.max) {
			c, err := NewRabinSizes(bytes.NewReader(data), sz.min, sz.avg, sz.max)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, fmt.Sprintf("%v %s", sz, name), c, data, o.findBoundary, nil)
		}
	}
}

func TestFastCDCMatchesFrozenOracle(t *testing.T) {
	for _, sz := range differentialSizes {
		if sz.min < 64 {
			continue
		}
		o := newOracleFastCDC(sz.min, sz.avg, sz.max)
		for name, data := range differentialInputs(sz.min, sz.max) {
			c, err := NewFastCDCSizes(bytes.NewReader(data), sz.min, sz.avg, sz.max)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, fmt.Sprintf("%v %s", sz, name), c, data, o.cutpoint, nil)
		}
	}
}

// TestChunkersMatchOracleAcrossReadSizes: where the reader's pieces end
// decides when the stream buffer refills and slides and where the lane
// scan's stretches start; the cuts must not notice. A reader that fails
// after N bytes yields the chunks of those N bytes, then its error.
func TestChunkersMatchOracleAcrossReadSizes(t *testing.T) {
	data := randomData(49, 900<<10)
	copy(data[200<<10:], make([]byte, 70<<10)) // a zero run: max-size cuts mid-stream
	rabin := newOracleRabin(DefaultMinSize, DefaultAvgSize, DefaultMaxSize)
	fast := newOracleFastCDC(DefaultMinSize, DefaultAvgSize, DefaultMaxSize)
	broken := errors.New("reader broke")
	for _, piece := range []int{1, 2, 47, 48, 49, 191, 1000, 4096, 16383, 16384, 16385, 65536, 70000, 1 << 30} {
		for _, failAfter := range []int{-1, 0, 1, 100, DefaultMinSize, DefaultMaxSize + 1, 300<<10 + 7} {
			in, end, wantErr := data, error(io.EOF), error(nil)
			if failAfter >= 0 {
				in, end, wantErr = data[:failAfter], broken, broken
			}
			if piece < 47 {
				in = in[:min(len(in), 120<<10)] // keep the byte-at-a-time legs short
			}
			label := fmt.Sprintf("piece %d fail %d", piece, failAfter)
			checkAgainstOracle(t, "rabin "+label, NewRabin(&pieceReader{in, piece, end}), in, rabin.findBoundary, wantErr)
			checkAgainstOracle(t, "fastcdc "+label, NewFastCDC(&pieceReader{in, piece, end}), in, fast.cutpoint, wantErr)
		}
	}
}

// stuckReader returns (0, nil) for ever once its data is spent.
type stuckReader struct{ data []byte }

func (r *stuckReader) Read(p []byte) (int, error) {
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestChunkersGiveUpOnStuckReader: a reader that keeps returning (0, nil)
// used to spin fill for ever. The buffered bytes still come out as
// chunks, then Next fails with io.ErrNoProgress, as bufio's reader does.
func TestChunkersGiveUpOnStuckReader(t *testing.T) {
	data := randomData(50, 5000)
	for name, c := range map[string]Chunker{
		"rabin":   NewRabin(&stuckReader{data}),
		"fastcdc": NewFastCDC(&stuckReader{data}),
	} {
		chunks, err := ChunkAll(c)
		if err != io.ErrNoProgress {
			t.Fatalf("%s: ended with %v, want io.ErrNoProgress", name, err)
		}
		var got []byte
		for _, ck := range chunks {
			got = append(got, ck.Data...)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: %d bytes chunked before giving up, want the %d buffered", name, len(got), len(data))
		}
		if _, err := c.Next(); err != io.ErrNoProgress {
			t.Fatalf("%s: error not sticky: %v", name, err)
		}
	}
}

// TestStreamDoesNotAllocatePerRead: the stream buffer is allocated once;
// a chunker's steady state allocates each chunk's Data and nothing else.
func TestStreamDoesNotAllocatePerRead(t *testing.T) {
	data := randomData(51, 2<<20)
	for name, mk := range map[string]func(io.Reader) Chunker{
		"rabin":   func(r io.Reader) Chunker { return NewRabin(r) },
		"fastcdc": func(r io.Reader) Chunker { return NewFastCDC(r) },
	} {
		c := mk(&pieceReader{data, 4096, io.EOF})
		for i := 0; i < 20; i++ { // past the candidate list's growth
			if _, err := c.Next(); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(50, func() {
			if _, err := c.Next(); err != nil {
				t.Fatal(err)
			}
		}); allocs > 1 {
			t.Errorf("%s: %.1f allocations per chunk, want 1 (the chunk's Data)", name, allocs)
		}
	}
}
