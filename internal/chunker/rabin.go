// Package chunker divides byte streams into secrets (chunks) for
// deduplication. It implements content-defined variable-size chunking
// based on Rabin fingerprinting (Rabin '81) — the default in CDStore,
// configured as in §4.2 with average/minimum/maximum chunk sizes of
// 8KB/2KB/16KB — plus simple fixed-size chunking.
//
// Variable-size chunking places chunk boundaries where a rolling hash of
// the trailing window matches a pattern, so boundaries depend only on
// content: inserting bytes near the start of a file disturbs only nearby
// chunks instead of shifting every subsequent chunk, which is what makes
// deduplication of mutated backups effective.
package chunker

import (
	"io"
	"slices"
)

// Pol is a polynomial over GF(2), one bit per coefficient.
type Pol uint64

// RabinPoly is the irreducible polynomial of degree 53 used for
// fingerprinting (the LBFS polynomial).
const RabinPoly Pol = 0x3DA3358B4DC173

// WindowSize is the number of bytes in the rolling hash window.
const WindowSize = 48

// Deg returns the degree of the polynomial, or -1 for the zero polynomial.
func (p Pol) Deg() int {
	d := -1
	for v := uint64(p); v != 0; v >>= 1 {
		d++
	}
	return d
}

// Mod returns p modulo q over GF(2).
func (p Pol) Mod(q Pol) Pol {
	if q == 0 {
		panic("chunker: modulo zero polynomial")
	}
	dq := q.Deg()
	for p.Deg() >= dq {
		p ^= q << uint(p.Deg()-dq)
	}
	return p
}

// appendByte returns ((h << 8) | b) mod q, computed by long division.
func appendByte(h Pol, b byte, q Pol) Pol {
	h <<= 8
	h |= Pol(b)
	return h.Mod(q)
}

// tables holds the precomputed Rabin tables for one polynomial.
type tables struct {
	out [256]Pol // contribution of a byte one step after it left the window
	mod [256]Pol // reduction of the top 8 bits after a shift
}

var rabinTables = buildTables(RabinPoly)

// polShift brings the top byte of a reduced hash down to index tables.mod.
const polShift = 53 - 8 // RabinPoly.Deg() - 8

func buildTables(q Pol) *tables {
	t := &tables{}
	k := q.Deg()
	for b := 0; b < 256; b++ {
		// out[b] = hash of (b || 0^WindowSize): the hash is linear over
		// GF(2), so XORing this into a hash that has just taken a new
		// byte in removes the contribution of the byte WindowSize back.
		h := appendByte(0, byte(b), q)
		for i := 0; i < WindowSize; i++ {
			h = appendByte(h, 0, q)
		}
		t.out[b] = h
		// mod[b] clears bits k..k+7 and adds their reduction in one XOR.
		t.mod[b] = (Pol(b) << uint(k)).Mod(q) | (Pol(b) << uint(k))
	}
	return t
}

// Default chunk size configuration (§4.2).
const (
	DefaultMinSize = 2 * 1024
	DefaultAvgSize = 8 * 1024
	DefaultMaxSize = 16 * 1024
)

// Chunk is one secret produced by a chunker.
type Chunk struct {
	// Data is the chunk content. The slice is owned by the caller after
	// Next returns.
	Data []byte
	// Offset is the chunk's byte offset in the input stream.
	Offset int64
}

// Chunker emits successive chunks of an input stream. Next returns io.EOF
// after the final chunk.
type Chunker interface {
	Next() (Chunk, error)
}

// Rabin is a content-defined chunker with a Rabin rolling hash.
type Rabin struct {
	s             stream
	min, avg, max int
	mask          Pol

	// A window's hash depends only on its WindowSize bytes, so which
	// stream offsets match the mask does not depend on where chunks
	// start: scan finds the matches of everything buffered, scanLanes
	// stretches side by side, and cut applies min and max to them.
	scanned int64   // every offset up to here has been judged
	cand    []int64 // matching offsets, ascending; cand[:head] are behind a cut
	head    int
}

// NewRabin returns a content-defined chunker over r with the default
// 2KB/8KB/16KB configuration.
func NewRabin(r io.Reader) *Rabin {
	c, err := NewRabinSizes(r, DefaultMinSize, DefaultAvgSize, DefaultMaxSize)
	if err != nil {
		panic(err) // defaults are valid by construction
	}
	return c
}

// NewRabinSizes returns a content-defined chunker with explicit minimum,
// average, and maximum chunk sizes. avg must be a power of two and
// min <= avg <= max must hold, with min >= WindowSize.
func NewRabinSizes(r io.Reader, min, avg, max int) (*Rabin, error) {
	if avg <= 0 || avg&(avg-1) != 0 {
		return nil, errAvgNotPow2
	}
	if min < WindowSize || min > avg || avg > max {
		return nil, errBadSizes
	}
	return &Rabin{
		s:    newStream(r, max, WindowSize),
		min:  min,
		avg:  avg,
		max:  max,
		mask: Pol(avg - 1),
		// Offset WindowSize is the first with a full window behind it,
		// and min >= WindowSize keeps every cut at or past it.
		scanned: WindowSize - 1,
	}, nil
}

type chunkerError string

func (e chunkerError) Error() string { return string(e) }

const (
	errAvgNotPow2 = chunkerError("chunker: average chunk size must be a power of two")
	errBadSizes   = chunkerError("chunker: require WindowSize <= min <= avg <= max")
)

// Next implements Chunker.
func (c *Rabin) Next() (Chunk, error) {
	if err := c.s.fill(c.max); err != nil {
		return Chunk{}, err
	}
	c.scan()
	return c.s.take(c.cut()), nil
}

// cut returns the length of the next chunk: up to the first matching
// offset at least min bytes in, else max bytes or all that is left.
func (c *Rabin) cut() int {
	n := c.s.hi - c.s.lo
	if n <= c.min {
		return n
	}
	for c.head < len(c.cand) && c.cand[c.head] < c.s.offset+int64(c.min) {
		c.head++
	}
	limit := min(n, c.max)
	if c.head < len(c.cand) && c.cand[c.head] < c.s.offset+int64(limit) {
		return int(c.cand[c.head] - c.s.offset)
	}
	return limit
}

// scan judges every buffered offset past scanned — offset p matches
// when the hash of the WindowSize bytes before it has all mask bits
// set — and appends the matches to cand.
func (c *Rabin) scan() {
	base := c.s.base()
	from, to := int(c.scanned+1-base), c.s.hi
	if from > to {
		return
	}
	c.scanned = base + int64(to)
	c.cand = c.cand[:copy(c.cand, c.cand[c.head:])]
	c.head = 0
	if q := (to - from + 1) / scanLanes; q >= minLane {
		sorted := len(c.cand)
		c.cand = scanStretches(c.s.buf, from, q, c.mask, base, c.cand)
		slices.Sort(c.cand[sorted:])
		from += scanLanes * q
	}
	c.cand = scanStretch(c.s.buf, from, to, c.mask, base, c.cand)
}

const (
	// scanLanes is the number of stretches scanStretches hashes side by
	// side. One rolling hash is a chain of dependent steps — a shift, a
	// table load and an XOR per byte — and leaves most of the core's
	// issue slots idle; independent chains fill them.
	scanLanes = 4
	// minLane is the shortest stretch worth the WindowSize bytes each
	// lane hashes to get started.
	minLane = 8 * WindowSize
)

// windowHash returns the hash of one window of bytes.
func windowHash(w []byte) Pol {
	t := rabinTables
	var d Pol
	for _, b := range w {
		d = (d<<8 | Pol(b)) ^ t.mod[byte(d>>polShift)]
	}
	return d
}

// scanStretch appends to cand the matching offsets among buf offsets
// from..to, as stream offsets (base is the stream offset of buf[0]).
func scanStretch(buf []byte, from, to int, mask Pol, base int64, cand []int64) []int64 {
	if from > to {
		return cand
	}
	t := rabinTables
	d := windowHash(buf[from-WindowSize : from])
	if d&mask == mask {
		cand = append(cand, base+int64(from))
	}
	in := buf[from:to]
	out := buf[from-WindowSize:][:len(in)]
	for i := range in {
		d = (d<<8 | Pol(in[i])) ^ t.mod[byte(d>>polShift)] ^ t.out[out[i]]
		if d&mask == mask {
			cand = append(cand, base+int64(from+i+1))
		}
	}
	return cand
}

// scanStretches is scanStretch over the scanLanes adjacent stretches of
// q offsets that start at from, hashed in step. It appends a stretch's
// matches in order but interleaves the stretches.
func scanStretches(buf []byte, from, q int, mask Pol, base int64, cand []int64) []int64 {
	t := rabinTables
	var d [scanLanes]Pol
	for j := range d {
		p := from + j*q
		d[j] = windowHash(buf[p-WindowSize : p])
		if d[j]&mask == mask {
			cand = append(cand, base+int64(p))
		}
	}
	d0, d1, d2, d3 := d[0], d[1], d[2], d[3]
	n := q - 1
	in0, out0 := buf[from:][:n], buf[from-WindowSize:][:n]
	in1, out1 := buf[from+q:][:n], buf[from+q-WindowSize:][:n]
	in2, out2 := buf[from+2*q:][:n], buf[from+2*q-WindowSize:][:n]
	in3, out3 := buf[from+3*q:][:n], buf[from+3*q-WindowSize:][:n]
	for i := 0; i < n; i++ {
		d0 = (d0<<8 | Pol(in0[i])) ^ t.mod[byte(d0>>polShift)] ^ t.out[out0[i]]
		d1 = (d1<<8 | Pol(in1[i])) ^ t.mod[byte(d1>>polShift)] ^ t.out[out1[i]]
		d2 = (d2<<8 | Pol(in2[i])) ^ t.mod[byte(d2>>polShift)] ^ t.out[out2[i]]
		d3 = (d3<<8 | Pol(in3[i])) ^ t.mod[byte(d3>>polShift)] ^ t.out[out3[i]]
		if (d0&mask == mask) || (d1&mask == mask) || (d2&mask == mask) || (d3&mask == mask) {
			for j, dj := range [scanLanes]Pol{d0, d1, d2, d3} {
				if dj&mask == mask {
					cand = append(cand, base+int64(from+j*q+i+1))
				}
			}
		}
	}
	return cand
}

// Fixed is a fixed-size chunker (§4.2 implements both; the VM dataset uses
// 4KB fixed-size chunks).
type Fixed struct {
	r      io.Reader
	size   int
	offset int64
	err    error
}

// NewFixed returns a chunker that emits size-byte chunks (the final chunk
// may be shorter).
func NewFixed(r io.Reader, size int) (*Fixed, error) {
	if size <= 0 {
		return nil, chunkerError("chunker: fixed chunk size must be positive")
	}
	return &Fixed{r: r, size: size}, nil
}

// Next implements Chunker.
func (f *Fixed) Next() (Chunk, error) {
	if f.err != nil {
		return Chunk{}, f.err
	}
	buf := make([]byte, f.size)
	n, err := io.ReadFull(f.r, buf)
	if n == 0 {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			err = io.EOF
		}
		f.err = err
		return Chunk{}, err
	}
	if err == io.ErrUnexpectedEOF || err == io.EOF {
		f.err = io.EOF
	} else if err != nil {
		f.err = err
	}
	ck := Chunk{Data: buf[:n], Offset: f.offset}
	f.offset += int64(n)
	return ck, nil
}

// ChunkAll runs a chunker to completion and returns all chunks.
func ChunkAll(c Chunker) ([]Chunk, error) {
	var out []Chunk
	for {
		ck, err := c.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, ck)
	}
}
