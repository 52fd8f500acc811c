package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cdstore/internal/client"
	"cdstore/internal/storage"
)

// The seams are values the public API already accepts: the per-cloud
// client.Dialer (so every client<->cloud byte passes a wrapped
// net.Conn), the io.Reader / client.ChunkSource a backup reads, the
// io.Writer a restore fills, and the storage.Backend under each server.
// Byte and call counts are kept on every run — the end-to-end wire and
// stored-byte metrics are counted here — while times and spans are kept
// only when a tracer is attached.

// wireCounters totals the client side of every cloud connection.
type wireCounters struct {
	upBytes, downBytes atomic.Int64
	writes, reads      atomic.Int64
	writeNs, readNs    atomic.Int64 // traced runs only
}

type wireSnapshot struct {
	upBytes, downBytes, writes, reads, writeNs, readNs int64
}

func (w *wireCounters) snapshot() wireSnapshot {
	return wireSnapshot{
		upBytes: w.upBytes.Load(), downBytes: w.downBytes.Load(),
		writes: w.writes.Load(), reads: w.reads.Load(),
		writeNs: w.writeNs.Load(), readNs: w.readNs.Load(),
	}
}

func (a wireSnapshot) sub(b wireSnapshot) wireSnapshot {
	return wireSnapshot{
		upBytes: a.upBytes - b.upBytes, downBytes: a.downBytes - b.downBytes,
		writes: a.writes - b.writes, reads: a.reads - b.reads,
		writeNs: a.writeNs - b.writeNs, readNs: a.readNs - b.readNs,
	}
}

// session is one user's set of cloud connections, from Connect to
// Close. cur is the span of the operation the session is running, which
// becomes the parent of the wire spans its connections record.
type session struct {
	wire *wireCounters
	tr   *tracer
	cur  atomic.Pointer[openSpan]
	// rec, when non-nil, keeps a copy of every byte this session writes
	// to the recorded cloud: the request stream the server replay feeds
	// back into a fresh server.
	rec *recordedSession
}

// recordedSession is the raw client->cloud byte stream of one session.
type recordedSession struct {
	user  uint64
	phase string // backup, restore or repair
	mu    sync.Mutex
	data  []byte
}

type tracedConn struct {
	net.Conn
	s   *session
	rec *recordedSession
}

func (c *tracedConn) Write(p []byte) (int, error) {
	c.s.wire.writes.Add(1)
	if c.s.tr == nil {
		n, err := c.Conn.Write(p)
		c.s.wire.upBytes.Add(int64(n))
		return n, err
	}
	sp := c.s.tr.begin(c.s.cur.Load(), "wire.write")
	t := time.Now()
	n, err := c.Conn.Write(p)
	c.s.wire.writeNs.Add(time.Since(t).Nanoseconds())
	sp.end(int64(n))
	c.s.wire.upBytes.Add(int64(n))
	if c.rec != nil {
		c.rec.mu.Lock()
		c.rec.data = append(c.rec.data, p[:n]...)
		c.rec.mu.Unlock()
	}
	return n, err
}

func (c *tracedConn) Read(p []byte) (int, error) {
	c.s.wire.reads.Add(1)
	if c.s.tr == nil {
		n, err := c.Conn.Read(p)
		c.s.wire.downBytes.Add(int64(n))
		return n, err
	}
	sp := c.s.tr.begin(c.s.cur.Load(), "wire.read")
	t := time.Now()
	n, err := c.Conn.Read(p)
	c.s.wire.readNs.Add(time.Since(t).Nanoseconds())
	sp.end(int64(n))
	c.s.wire.downBytes.Add(int64(n))
	return n, err
}

// dialers returns the session's per-cloud dialers. addr(i) is where
// cloud i is reached now (its server, or its gateway); down(i) models
// an unreachable cloud the way cloud.Cluster.Dialers does.
func (s *session) dialers(n int, addr func(int) string, down func(int) bool, recordCloud int) []client.Dialer {
	ds := make([]client.Dialer, n)
	for i := range ds {
		i := i
		ds[i] = func() (net.Conn, error) {
			if down(i) {
				return nil, net.ErrClosed
			}
			conn, err := net.DialTimeout("tcp", addr(i), 5*time.Second)
			if err != nil {
				return nil, err
			}
			tc := &tracedConn{Conn: conn, s: s}
			if i == recordCloud {
				tc.rec = s.rec
			}
			return tc, nil
		}
	}
	return ds
}

// backendCounters totals the storage seam of every cloud.
type backendCounters struct {
	putCalls, putBytes, putNs atomic.Int64
	getCalls, getBytes, getNs atomic.Int64
}

type backendSnapshot struct {
	putCalls, putBytes, putNs, getCalls, getBytes, getNs int64
}

func (b *backendCounters) snapshot() backendSnapshot {
	return backendSnapshot{
		putCalls: b.putCalls.Load(), putBytes: b.putBytes.Load(), putNs: b.putNs.Load(),
		getCalls: b.getCalls.Load(), getBytes: b.getBytes.Load(), getNs: b.getNs.Load(),
	}
}

func (a backendSnapshot) sub(b backendSnapshot) backendSnapshot {
	return backendSnapshot{
		putCalls: a.putCalls - b.putCalls, putBytes: a.putBytes - b.putBytes, putNs: a.putNs - b.putNs,
		getCalls: a.getCalls - b.getCalls, getBytes: a.getBytes - b.getBytes, getNs: a.getNs - b.getNs,
	}
}

// tracedBackend wraps one cloud's storage.Backend. It is installed
// through the exported Cluster.Clouds[i].Backend.Backend field before
// any traffic, so the server, its container store and its scrubber all
// go through it. sizes tracks what the backend holds, for
// stored_per_logical.
type tracedBackend struct {
	storage.Backend
	c      *backendCounters
	tr     *tracer
	parent func() *openSpan // the phase in progress

	mu     sync.Mutex
	sizes  map[string]int64
	stored int64
}

func (b *tracedBackend) Put(name string, data []byte) error {
	sp := b.tr.begin(b.parent(), "storage.put")
	t := time.Now()
	err := b.Backend.Put(name, data)
	b.c.putNs.Add(time.Since(t).Nanoseconds())
	sp.end(int64(len(data)))
	b.c.putCalls.Add(1)
	b.c.putBytes.Add(int64(len(data)))
	if err == nil {
		b.mu.Lock()
		b.stored += int64(len(data)) - b.sizes[name]
		b.sizes[name] = int64(len(data))
		b.mu.Unlock()
	}
	return err
}

func (b *tracedBackend) Get(name string) ([]byte, error) {
	sp := b.tr.begin(b.parent(), "storage.get")
	t := time.Now()
	data, err := b.Backend.Get(name)
	b.c.getNs.Add(time.Since(t).Nanoseconds())
	sp.end(int64(len(data)))
	b.c.getCalls.Add(1)
	b.c.getBytes.Add(int64(len(data)))
	return data, err
}

func (b *tracedBackend) Delete(name string) error {
	err := b.Backend.Delete(name)
	if err == nil {
		b.mu.Lock()
		b.stored -= b.sizes[name]
		delete(b.sizes, name)
		b.mu.Unlock()
	}
	return err
}

func (b *tracedBackend) storedBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stored
}

// timedReader, timedSource and timedWriter are the input and output
// seams. In traced rounds they total the time spent inside the
// benchmark's own generators and verifying sinks, so the budget table
// can show how much of the process CPU is the harness and not the
// program.
type timedReader struct {
	r *segReader
	h *harness
}

func (t *timedReader) Read(p []byte) (int, error) {
	if t.h.tr == nil {
		return t.r.Read(p)
	}
	t0 := time.Now()
	n, err := t.r.Read(p)
	t.h.inputNs.Add(time.Since(t0).Nanoseconds())
	return n, err
}

type timedSource struct {
	src *traceSource
	h   *harness
}

func (t *timedSource) NextChunk() ([]byte, error) {
	if t.h.tr == nil {
		return t.src.NextChunk()
	}
	t0 := time.Now()
	b, err := t.src.NextChunk()
	t.h.inputNs.Add(time.Since(t0).Nanoseconds())
	return b, err
}

type timedWriter struct {
	w *verifySink
	h *harness
}

func (t *timedWriter) Write(p []byte) (int, error) {
	if t.h.tr == nil {
		return t.w.Write(p)
	}
	t0 := time.Now()
	n, err := t.w.Write(p)
	t.h.inputNs.Add(time.Since(t0).Nanoseconds())
	return n, err
}
