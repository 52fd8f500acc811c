// Package gateway implements the CDStore session-multiplexing proxy
// tier for one cloud: it accepts many downstream client connections
// speaking the plain per-session protocol and funnels them over a small
// pool of persistent upstream connections to that cloud's server, one
// virtual mux stream per downstream session.
//
// The point is amortization (ROADMAP item 3's perf half): a direct
// 1024-session deployment pays 1024 × (TCP handshake + Hello + two
// 256KB bufio rings) on the server; through the gateway the server pays
// that per POOLED connection — a handful — while each logical session
// costs it only a small virtual-session struct. The gateway is
// stateless: it holds no dedup, index, or user state, only in-flight
// request routing, so it can be restarted or scaled horizontally at
// will (clients reconnect and re-Hello; cubeFS's access tier and
// nil-store's gateway share this shape).
//
// Ordering and backpressure. Each downstream session is relayed in
// strict request→response lockstep onto ONE upstream connection chosen
// at session start (round-robin), so per-session FIFO is inherited from
// the carrier and responses are correlated by stream id alone. The
// server processes mux frames inline and blocks its reads while the
// flow limiter is exhausted — the upstream TCP
// window then fills, the gateway's relay goroutines stall in their
// writes, and the byte budget propagates to every downstream client
// without the gateway tracking a single byte itself.
package gateway

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"cdstore/internal/client"
	"cdstore/internal/protocol"
)

// Config configures a Gateway for one cloud.
type Config struct {
	// Dial opens one upstream connection to the cloud's server.
	Dial client.Dialer
	// UpstreamConns sizes the persistent upstream pool (default 4).
	UpstreamConns int
	// DownstreamBufBytes sizes each downstream connection's read/write
	// buffers. Downstream sessions are many and mostly idle, so the
	// default is 32KB — small enough that 1024 downstream sessions cost
	// the gateway what 128 would cost a direct server.
	DownstreamBufBytes int
}

// Stats are cumulative gateway counters.
type Stats struct {
	// Sessions counts downstream sessions accepted.
	Sessions uint64
	// UpstreamDials counts upstream connections established — the
	// amortization claim in one number: Sessions >> UpstreamDials.
	UpstreamDials uint64
	// Relayed counts request/response pairs proxied.
	Relayed uint64
}

// Gateway proxies downstream client sessions onto pooled upstream
// mux connections for one cloud.
type Gateway struct {
	cfg  Config
	pool *upstreamPool

	stats struct {
		sessions      atomic.Uint64
		upstreamDials atomic.Uint64
		relayed       atomic.Uint64
	}

	mu       sync.Mutex
	listener net.Listener
	downs    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool
}

// New builds a gateway; upstream connections are dialed lazily, on the
// first downstream session that needs one.
func New(cfg Config) (*Gateway, error) {
	if cfg.Dial == nil {
		return nil, errors.New("gateway: nil upstream dialer")
	}
	if cfg.UpstreamConns <= 0 {
		cfg.UpstreamConns = 4
	}
	if cfg.DownstreamBufBytes <= 0 {
		cfg.DownstreamBufBytes = 32 * 1024
	}
	g := &Gateway{cfg: cfg, downs: make(map[net.Conn]struct{})}
	g.pool = &upstreamPool{gw: g, conns: make([]*upstreamConn, cfg.UpstreamConns)}
	return g, nil
}

// Stats returns a snapshot of the counters.
func (g *Gateway) Stats() Stats {
	return Stats{
		Sessions:      g.stats.sessions.Load(),
		UpstreamDials: g.stats.upstreamDials.Load(),
		Relayed:       g.stats.relayed.Load(),
	}
}

// Serve accepts downstream connections from ln until Close.
func (g *Gateway) Serve(ln net.Listener) error {
	g.mu.Lock()
	g.listener = ln
	g.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			g.mu.Lock()
			closed := g.closed
			g.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			conn.Close()
			continue
		}
		g.downs[conn] = struct{}{}
		g.wg.Add(1)
		g.mu.Unlock()
		go func() {
			defer g.wg.Done()
			defer func() {
				conn.Close()
				g.mu.Lock()
				delete(g.downs, conn)
				g.mu.Unlock()
			}()
			_ = g.ServeDownstream(conn)
		}()
	}
}

// Close shuts the gateway down: listener, every downstream session, and
// the upstream pool.
func (g *Gateway) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	ln := g.listener
	for c := range g.downs {
		c.Close()
	}
	g.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	g.wg.Wait()
	g.pool.close()
	return nil
}

// ServeDownstream relays one downstream client session until Bye or
// EOF. Exported so tests and benchmarks can serve pipes directly.
//
// The relay discipline is strict lockstep — read request, forward on
// this session's stream, await the one routed response, write it back —
// which is exactly the exchange pattern internal/client's call()
// performs, so a client pointed at a gateway cannot tell it from a
// server. Concurrency across sessions comes from other goroutines
// pipelining their own streams onto the same upstream connections.
func (g *Gateway) ServeDownstream(rw io.ReadWriter) error {
	g.stats.sessions.Add(1)
	down := protocol.NewConnSize(rw, g.cfg.DownstreamBufBytes)
	var st *gwStream
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	frame := protocol.GetFrame()
	defer protocol.PutFrame(frame)
	for {
		typ, payload, err := down.ReadMsgInto(frame)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if typ == protocol.MsgBye {
			// Retire the virtual session upstream; the deferred close is
			// idempotent.
			if st != nil {
				st.close()
				st = nil
			}
			return nil
		}
		// First real message: bind this session to an upstream stream.
		if st == nil {
			st, err = g.pool.open()
			if err != nil {
				_ = down.WriteMsg(protocol.MsgError,
					protocol.EncodeError(protocol.CodeInternal, "gateway: no upstream: "+err.Error()))
				return err
			}
		}
		rtyp, reply, rframe, err := st.roundTrip(typ, payload)
		if err != nil {
			// The upstream connection died mid-exchange. The server-side
			// virtual session (its Hello) died with it, so this downstream
			// session cannot be resumed transparently; report and drop the
			// connection — the client reconnects and re-Hellos.
			_ = down.WriteMsg(protocol.MsgError,
				protocol.EncodeError(protocol.CodeInternal, "gateway: upstream lost: "+err.Error()))
			st = nil // stream died with its connection; nothing to Bye
			return err
		}
		g.stats.relayed.Add(1)
		werr := down.WriteMsg(rtyp, reply)
		protocol.PutFrame(rframe)
		if werr != nil {
			return werr
		}
	}
}

// upstreamPool is the per-cloud set of persistent mux connections.
// Slots are dialed lazily and redialed lazily after failure.
type upstreamPool struct {
	gw    *Gateway
	mu    sync.Mutex
	conns []*upstreamConn
	next  uint32
	done  bool
}

// open binds a new virtual stream to an upstream connection,
// round-robin across the pool, redialing dead slots on demand.
func (p *upstreamPool) open() (*gwStream, error) {
	var lastErr error
	for attempt := 0; attempt <= len(p.conns); attempt++ {
		p.mu.Lock()
		if p.done {
			p.mu.Unlock()
			return nil, errors.New("gateway closed")
		}
		i := int(p.next) % len(p.conns)
		p.next++
		u := p.conns[i]
		if u == nil || u.isDead() {
			nc, err := p.gw.cfg.Dial()
			if err != nil {
				p.mu.Unlock()
				lastErr = err
				continue
			}
			u = newUpstreamConn(nc)
			p.conns[i] = u
			p.gw.stats.upstreamDials.Add(1)
		}
		p.mu.Unlock()
		if st, ok := u.newStream(); ok {
			return st, nil
		}
		// Lost a race with the connection dying; the next attempt redials.
		lastErr = errors.New("upstream connection died")
	}
	return nil, fmt.Errorf("gateway: no upstream connection: %w", lastErr)
}

func (p *upstreamPool) close() {
	p.mu.Lock()
	p.done = true
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	for _, u := range conns {
		if u != nil {
			u.shutdown()
		}
	}
}

// muxReply is one routed upstream response. The payload aliases frame,
// which the consumer returns to the protocol pool after relaying —
// responses cross the gateway without a copy.
type muxReply struct {
	typ     byte
	payload []byte
	frame   *[]byte
}

// upstreamConn is one pooled mux connection plus its response router.
type upstreamConn struct {
	pc *protocol.Conn
	// wmu serializes mux writes from the relay goroutines; each
	// WriteMuxMsg is one flushed frame, so interleaving is at message
	// granularity, which is all the server's demux needs.
	wmu sync.Mutex

	mu         sync.Mutex
	waiters    map[uint32]chan muxReply
	nextStream uint32
	dead       bool
	err        error
}

func newUpstreamConn(nc net.Conn) *upstreamConn {
	u := &upstreamConn{pc: protocol.NewConn(nc), waiters: make(map[uint32]chan muxReply)}
	go u.readLoop()
	return u
}

func (u *upstreamConn) isDead() bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.dead
}

// newStream allocates the next virtual stream id on this connection.
// Ids are monotonic and never reused for the connection's lifetime, so
// a straggler response for an abandoned stream can never be misrouted
// to a later session. The reply channel holds one entry — the lockstep
// relay has at most one request outstanding per stream — so the read
// loop never blocks routing into it.
func (u *upstreamConn) newStream() (*gwStream, bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.dead {
		return nil, false
	}
	id := u.nextStream
	u.nextStream++
	ch := make(chan muxReply, 1)
	u.waiters[id] = ch
	return &gwStream{u: u, id: id, replies: ch}, true
}

// fail marks the connection dead and severs the transport. Waking the
// waiters is NOT done here: the read loop is the only goroutine that
// sends on waiter channels, so it alone may close them — it notices the
// severed transport, exits, and then closes every waiter. Callers other
// than the read loop therefore never race a close against a send.
func (u *upstreamConn) fail(err error) {
	u.mu.Lock()
	if !u.dead {
		u.dead = true
		u.err = err
	}
	u.mu.Unlock()
	u.pc.Close()
}

// closeWaiters wakes every blocked roundTrip after the read loop has
// exited (so no send can race the close).
func (u *upstreamConn) closeWaiters() {
	u.mu.Lock()
	waiters := u.waiters
	u.waiters = nil
	u.mu.Unlock()
	for _, ch := range waiters {
		close(ch)
	}
}

func (u *upstreamConn) shutdown() {
	u.wmu.Lock()
	_ = u.pc.WriteMsg(protocol.MsgBye, nil)
	u.wmu.Unlock()
	u.fail(errors.New("gateway closed"))
}

// readLoop routes every upstream frame to its stream's waiter. Frames
// are pooled; ownership passes to the waiter, or back to the pool right
// here when the stream is gone (session abandoned before its reply
// arrived).
func (u *upstreamConn) readLoop() {
	defer u.closeWaiters()
	for {
		frame := protocol.GetFrame()
		typ, payload, err := u.pc.ReadMsgInto(frame)
		if err != nil {
			protocol.PutFrame(frame)
			u.fail(err)
			return
		}
		if typ != protocol.MsgMuxData {
			// The server never volunteers non-mux traffic on a mux
			// connection; drop whatever this is.
			protocol.PutFrame(frame)
			continue
		}
		stream, ityp, inner, derr := protocol.DecodeMuxHeader(payload)
		if derr != nil {
			protocol.PutFrame(frame)
			u.fail(derr)
			return
		}
		u.mu.Lock()
		ch := u.waiters[stream]
		u.mu.Unlock()
		if ch == nil {
			protocol.PutFrame(frame)
			continue
		}
		select {
		case ch <- muxReply{typ: ityp, payload: inner, frame: frame}:
		default:
			// A reply nobody asked for (the lockstep relay has at most one
			// outstanding request per stream): drop it rather than block
			// routing for every other stream.
			protocol.PutFrame(frame)
		}
	}
}

// gwStream is one downstream session's virtual stream on an upstream
// connection.
type gwStream struct {
	u       *upstreamConn
	id      uint32
	replies chan muxReply
}

// roundTrip forwards one request and blocks for its routed response.
// The returned payload aliases the returned frame; the caller must
// PutFrame it after relaying.
func (st *gwStream) roundTrip(typ byte, payload []byte) (byte, []byte, *[]byte, error) {
	u := st.u
	u.wmu.Lock()
	err := u.pc.WriteMuxMsg(st.id, typ, payload)
	u.wmu.Unlock()
	if err != nil {
		u.fail(err)
		return 0, nil, nil, err
	}
	r, ok := <-st.replies
	if !ok {
		u.mu.Lock()
		err := u.err
		u.mu.Unlock()
		if err == nil {
			err = errors.New("upstream connection closed")
		}
		return 0, nil, nil, err
	}
	return r.typ, r.payload, r.frame, nil
}

// close retires the virtual session: unregister (so any straggler
// response is dropped by the read loop, not parked forever), drain a
// parked reply back to the frame pool, and tell the server the stream
// is done.
func (st *gwStream) close() {
	u := st.u
	u.mu.Lock()
	if u.waiters != nil {
		delete(u.waiters, st.id)
	}
	dead := u.dead
	u.mu.Unlock()
	select {
	case r, ok := <-st.replies:
		if ok {
			protocol.PutFrame(r.frame)
		}
	default:
	}
	if dead {
		return
	}
	u.wmu.Lock()
	_ = u.pc.WriteMuxMsg(st.id, protocol.MsgBye, nil)
	u.wmu.Unlock()
}
