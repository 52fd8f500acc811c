package chunker

// FastCDC (Xia et al., USENIX ATC '16) is the modern content-defined
// chunker: a Gear rolling hash — one shift, one table lookup, and one add
// per byte, against Rabin's two table lookups plus window bookkeeping —
// combined with normalized chunking. Normalization judges bytes before
// the target average size against a *harder* mask and bytes after it
// against an *easier* one, which pulls the chunk-size distribution in
// around the average and sharply cuts the max-size forced cuts that hurt
// Rabin at small max/avg ratios. The paper reports ~10x faster boundary
// detection than Rabin at equal dedup ratios, which is why production
// dedup systems (ncps's NAR store among them) adopted it.
//
// Boundaries depend only on content within Gear's implicit 64-byte
// window (the shift retires a byte's contribution after 64 steps), so
// edits disturb only nearby boundaries and chunking resynchronizes —
// the property that makes dedup of mutated backups effective, same as
// Rabin.

import "io"

// gearShift mixes each input byte into the rolling hash. The table is
// generated deterministically (SplitMix64 over the byte value) so
// chunking is stable across runs, builds, and machines — a boundary
// decision is a pure function of content.
var gearTable = buildGearTable()

func buildGearTable() *[256]uint64 {
	var t [256]uint64
	for b := range t {
		// SplitMix64 step seeded by the byte value.
		x := uint64(b+1) * 0x9E3779B97F4A7C15
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		t[b] = x ^ (x >> 31)
	}
	return &t
}

// FastCDC is a content-defined chunker with a Gear rolling hash and
// normalized chunking (normalization level 2).
type FastCDC struct {
	s             stream
	min, avg, max int
	maskS         uint64 // harder mask, judged before the average point
	maskL         uint64 // easier mask, judged after it
}

// NewFastCDC returns a FastCDC chunker over r with the default
// 2KB/8KB/16KB configuration (§4.2's sizes, same as NewRabin).
func NewFastCDC(r io.Reader) *FastCDC {
	c, err := NewFastCDCSizes(r, DefaultMinSize, DefaultAvgSize, DefaultMaxSize)
	if err != nil {
		panic(err) // defaults are valid by construction
	}
	return c
}

// NewFastCDCSizes returns a FastCDC chunker with explicit minimum,
// average, and maximum chunk sizes. avg must be a power of two with
// 64 <= min <= avg <= max (Gear's window is 64 bytes, so boundaries
// judged earlier than min=64 would depend on less than a full window).
func NewFastCDCSizes(r io.Reader, min, avg, max int) (*FastCDC, error) {
	if avg <= 0 || avg&(avg-1) != 0 {
		return nil, errAvgNotPow2
	}
	if min < 64 || min > avg || avg > max {
		return nil, errFastCDCSizes
	}
	bits := 0
	for v := avg; v > 1; v >>= 1 {
		bits++
	}
	// Normalization level 2: two extra mask bits before the average
	// point, two fewer after. Gear's addition carries propagate low
	// bits across the window, so contiguous low masks select well.
	return &FastCDC{
		s:     newStream(r, max, 0),
		min:   min,
		avg:   avg,
		max:   max,
		maskS: 1<<uint(bits+2) - 1,
		maskL: 1<<uint(bits-2) - 1,
	}, nil
}

const errFastCDCSizes = chunkerError("chunker: fastcdc requires 64 <= min <= avg <= max")

// Next implements Chunker.
func (c *FastCDC) Next() (Chunk, error) {
	if err := c.s.fill(c.max); err != nil {
		return Chunk{}, err
	}
	return c.s.take(c.cutpoint(c.s.buf[c.s.lo:c.s.hi])), nil
}

// cutpoint scans buf and returns the length of the next chunk: the min
// bytes are skipped outright (no boundary can land inside them), bytes
// up to the average point must zero the hard maskS, bytes after it only
// the easy maskL, and max forces a cut.
func (c *FastCDC) cutpoint(buf []byte) int {
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
