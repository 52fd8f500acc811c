package chunker

import "io"

const (
	// streamBufSize is the size of a chunker's input buffer: large enough
	// that a refill is one big Read and a slide moves a small remainder,
	// small enough that a scan and the chunk copies that follow it find
	// the bytes still in cache.
	streamBufSize = 128 << 10
	// maxEmptyReads is how many consecutive (0, nil) reads fill accepts
	// before giving up on the reader, as bufio does.
	maxEmptyReads = 100
)

// stream is the sliding input buffer the content-defined chunkers cut
// from. The buffer is allocated once: a refill reads straight into its
// free tail, and when the tail runs out the unconsumed bytes slide to
// the front. hist consumed bytes stay addressable in front of the
// unconsumed ones across a slide, for a chunker whose rolling hash
// looks back.
type stream struct {
	r      io.Reader
	buf    []byte
	lo, hi int   // unconsumed input is buf[lo:hi]
	hist   int   // consumed bytes kept before lo
	offset int64 // stream offset of buf[lo]
	err    error // sticky read error (returned after buffered data drains)
}

func newStream(r io.Reader, max, hist int) stream {
	size := streamBufSize
	if need := hist + 2*max; size < need {
		size = need
	}
	return stream{r: r, buf: make([]byte, size), hist: hist}
}

// fill tops the unconsumed input up to n bytes, or to whatever the
// reader had before it ended or failed. It returns nil while there is
// input to cut, then the reader's error (io.EOF at a clean end).
func (s *stream) fill(n int) error {
	empty := 0
	for s.hi-s.lo < n && s.err == nil {
		if s.lo+n > len(s.buf) {
			keep := s.lo - min(s.lo, s.hist)
			s.hi = copy(s.buf, s.buf[keep:s.hi])
			s.lo -= keep
		}
		m, err := s.r.Read(s.buf[s.hi:])
		s.hi += m
		if err != nil {
			s.err = err
		} else if m > 0 {
			empty = 0
		} else if empty++; empty >= maxEmptyReads {
			s.err = io.ErrNoProgress
		}
	}
	if s.lo == s.hi {
		return s.err
	}
	return nil
}

// base is the stream offset of buf[0].
func (s *stream) base() int64 { return s.offset - int64(s.lo) }

// take consumes the next n buffered bytes as a chunk the caller owns.
func (s *stream) take(n int) Chunk {
	// make-then-copy from a named slice compiles to one allocation that
	// is filled without being zeroed first.
	next := s.buf[s.lo : s.lo+n]
	data := make([]byte, n)
	copy(data, next)
	ck := Chunk{Data: data, Offset: s.offset}
	s.lo += n
	s.offset += int64(n)
	return ck
}
