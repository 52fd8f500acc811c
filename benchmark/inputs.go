package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"

	"cdstore/internal/dedup"
	"cdstore/internal/workload"
)

// Inputs are streamed, never held: a 256 MiB file kept in memory put the
// process high-water mark at 1.4 GB while sizing, which would have made
// peak_rss_mb a measurement of the benchmark. Every generator keeps a
// running SHA-256 of what it handed to the program; the restore sink
// hashes what comes back and the two are compared.

// digest is the SHA-256 and length of one backup's logical bytes.
type digest struct {
	sum [sha256.Size]byte
	n   int64
}

// segment is n bytes of the SplitMix64 stream started at seed.
type segment struct {
	seed uint64
	n    int64
}

// mix derives an independent stream seed from the run seed and the
// coordinates of one input (SplitMix64 finaliser, so neighbouring
// coordinates give unrelated streams).
func mix(seed int64, parts ...uint64) uint64 {
	x := uint64(seed)
	for _, p := range parts {
		x += 0x9E3779B97F4A7C15 + p
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		x ^= x >> 31
	}
	return x
}

// segReader streams the concatenation of its segments: incompressible,
// duplicate-free within a segment, identical for identical seeds. Bytes
// are produced in whole blocks and copied out, so the content does not
// depend on the sizes of the Read calls the chunker happens to make.
type segReader struct {
	segs  []segment
	x     uint64 // PRNG state of the current segment
	left  int64  // bytes left in the current segment
	block [64 << 10]byte
	buf   []byte // unread part of block
	h     hash.Hash
	n     int64
}

func newSegReader(segs []segment) *segReader {
	return &segReader{segs: segs, h: sha256.New()}
}

func (r *segReader) Read(p []byte) (int, error) {
	if len(r.buf) == 0 {
		for r.left == 0 {
			if len(r.segs) == 0 {
				return 0, io.EOF
			}
			r.x, r.left = r.segs[0].seed, r.segs[0].n
			r.segs = r.segs[1:]
		}
		n := int64(len(r.block))
		if n > r.left {
			n = r.left
		}
		// Whole words: a segment's last block may overshoot n by <8
		// bytes, which stay in the block (a multiple of 8) unread.
		for off := int64(0); off < n; off += 8 {
			r.x += 0x9E3779B97F4A7C15
			z := r.x
			z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
			z = (z ^ (z >> 27)) * 0x94D049BB133111EB
			z ^= z >> 31
			binary.LittleEndian.PutUint64(r.block[off:], z)
		}
		r.buf = r.block[:n]
		r.left -= n
	}
	n := copy(p, r.buf)
	r.buf = r.buf[n:]
	r.h.Write(p[:n])
	r.n += int64(n)
	return n, nil
}

func (r *segReader) digest() digest {
	var d digest
	r.h.Sum(d.sum[:0])
	d.n = r.n
	return d
}

// traceSource yields a trace backup's chunks as secrets (the §5.5
// "each chunk is treated as a secret" path): boundaries come from the
// trace, so the chunker is bypassed. Each chunk is a fresh buffer —
// BackupStream queues secrets to its encode workers, so the source may
// not reuse one — which adds exactly one allocation per secret to the
// process totals.
type traceSource struct {
	chunks []dedup.Chunk
	idx    int
	h      hash.Hash
	n      int64
}

func newTraceSource(b workload.Backup) *traceSource {
	return &traceSource{chunks: b.Chunks, h: sha256.New()}
}

// NextChunk implements client.ChunkSource.
func (s *traceSource) NextChunk() ([]byte, error) {
	if s.idx >= len(s.chunks) {
		return nil, io.EOF
	}
	c := s.chunks[s.idx]
	s.idx++
	data := workload.ChunkContent(c.ID, c.Size)
	s.h.Write(data)
	s.n += int64(len(data))
	return data, nil
}

func (s *traceSource) digest() digest {
	var d digest
	s.h.Sum(d.sum[:0])
	d.n = s.n
	return d
}

// verifySink hashes a restored stream; check compares it with what the
// generator produced at backup time.
type verifySink struct {
	h hash.Hash
	n int64
}

func newVerifySink() *verifySink { return &verifySink{h: sha256.New()} }

func (w *verifySink) Write(p []byte) (int, error) {
	w.h.Write(p)
	w.n += int64(len(p))
	return len(p), nil
}

func (w *verifySink) check(want digest) error {
	var got [sha256.Size]byte
	w.h.Sum(got[:0])
	if w.n != want.n {
		return fmt.Errorf("restored %d bytes, backed up %d", w.n, want.n)
	}
	if got != want.sum {
		return fmt.Errorf("restored bytes differ from backup (sha256 %x, want %x)", got[:8], want.sum[:8])
	}
	return nil
}
