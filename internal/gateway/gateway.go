// Package gateway implements the CDStore session-multiplexing proxy
// tier for one cloud: it accepts many downstream client connections
// speaking the plain per-session protocol and funnels them over a small
// pool of persistent upstream connections to that cloud's server, one
// virtual mux stream per downstream session.
//
// The point is amortization: a direct 1024-session deployment pays
// 1024 × (TCP handshake + Hello + two 256KB bufio rings) on the server;
// through the gateway the server pays that per POOLED connection — a
// handful — while each logical session costs it only a small
// virtual-session struct. The gateway is stateless: it holds no dedup,
// index, or user state, only in-flight request routing, so it can be
// restarted or scaled horizontally at will (clients reconnect and
// re-Hello; cubeFS's access tier and nil-store's gateway share this
// shape).
//
// Ordering and backpressure. Each downstream session is relayed in
// strict request→response lockstep onto ONE upstream connection chosen
// at session start (round-robin). Every upstream connection is a
// protocol.Pipe: the server answers a connection's requests in arrival
// order (see internal/protocol/pipe.go), so each relay reads its own
// reply, and the reply's stream id is checked against the stream that
// asked. The server processes mux frames inline and blocks its reads
// while the flow limiter is exhausted — the upstream TCP window then
// fills, the gateway's relay goroutines stall in their writes, and the
// byte budget propagates to every downstream client without the gateway
// tracking a single byte itself.
package gateway

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cdstore/internal/protocol"
)

// Config configures a Gateway for one cloud.
type Config struct {
	// Dial opens one upstream connection to the cloud's server.
	Dial func() (net.Conn, error)
	// UpstreamConns sizes the persistent upstream pool (default 4).
	UpstreamConns int
}

// downstreamBufBytes sizes each downstream connection's read/write
// buffers. Downstream sessions are many and mostly idle, so 32KB — small
// enough that 1024 downstream sessions cost the gateway what 128 would
// cost a direct server.
const downstreamBufBytes = 32 * 1024

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
	cfg Config

	// ioTimeout bounds every downstream connection (protocol.Conn.Bound):
	// a client that stalls inside a message, or never reads a reply, is
	// dropped, and its frame and upstream stream are released.
	// protocol.IOTimeout; a field so tests can shorten it.
	ioTimeout time.Duration

	stats struct {
		sessions      atomic.Uint64
		upstreamDials atomic.Uint64
		relayed       atomic.Uint64
	}

	// mu guards the listener, the downstream connections Serve accepted
	// and the pool of persistent upstream connections, whose slots are
	// dialed lazily and redialed after failure.
	mu        sync.Mutex
	listener  net.Listener
	downs     map[net.Conn]struct{}
	upstreams []*upstreamConn
	next      int
	wg        sync.WaitGroup
	closed    bool
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
	return &Gateway{
		cfg:       cfg,
		ioTimeout: protocol.IOTimeout,
		upstreams: make([]*upstreamConn, cfg.UpstreamConns),
		downs:     make(map[net.Conn]struct{}),
	}, nil
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
	ln, ups := g.listener, g.upstreams
	for c := range g.downs {
		c.Close()
	}
	g.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	g.wg.Wait()
	for _, u := range ups {
		if u != nil {
			_ = u.Send(func(pc *protocol.Conn) error { return pc.WriteMsg(protocol.MsgBye, nil) })
			u.Fail(errors.New("gateway closed"))
		}
	}
	return nil
}

// ServeDownstream relays one downstream client session until Bye or
// EOF. Exported so tests and benchmarks can serve pipes directly.
//
// The relay discipline is strict lockstep — read request, forward on
// this session's stream, read its reply, write it back — one exchange
// at a time, as a server answers a plain session, so a client pointed
// at a gateway cannot tell it from a server. Concurrency across
// sessions comes from other goroutines pipelining their own streams
// onto the same upstream connections. A stream with deadlines (a
// net.Conn) is bounded as a server bounds its clients; the wait for the
// upstream's reply is not, since a scrub pass's reply legitimately takes
// the whole pass.
func (g *Gateway) ServeDownstream(rw io.ReadWriter) error {
	g.stats.sessions.Add(1)
	down := protocol.NewConnSize(rw, downstreamBufBytes).Bound(g.ioTimeout)
	var st *gwStream
	defer func() { // retire the stream upstream, unless its connection failed
		if st != nil {
			_ = st.u.Send(func(pc *protocol.Conn) error { return pc.WriteMuxMsg(st.id, protocol.MsgBye, nil) })
		}
	}()
	// One frame carries the request and then its reply: the request has
	// been written upstream before the reply is read into the frame.
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
			return nil
		}
		// First real message: bind this session to an upstream stream.
		fresh := st == nil
		if fresh {
			if st, err = g.open(); err != nil {
				_ = down.WriteMsg(protocol.MsgError,
					protocol.EncodeError(protocol.CodeInternal, "gateway: no upstream: "+err.Error()))
				return err
			}
			payload = append([]byte(nil), payload...) // kept for a retry
		}
		rtyp, reply, err := st.roundTrip(typ, payload, frame)
		// An upstream that died while idle fails the first request sent on
		// it. Nothing of a new session was there, so its first message is
		// retried, at most once per pooled connection.
		for retry := 0; fresh && err != nil && st.u.Err() != nil && retry < g.cfg.UpstreamConns; retry++ {
			if st, err = g.open(); err != nil {
				break
			}
			rtyp, reply, err = st.roundTrip(typ, payload, frame)
		}
		if errors.Is(err, protocol.ErrTooLarge) {
			// Refused before a byte of it went upstream: the request is
			// the client's fault, and the upstream and this stream work.
			if err := down.WriteMsg(protocol.MsgError,
				protocol.EncodeError(protocol.CodeBadRequest, "gateway: "+err.Error())); err != nil {
				return err
			}
			continue
		}
		if err != nil {
			// The server-side session (its Hello) may have gone with the
			// upstream connection: report, drop, and let the client redial.
			_ = down.WriteMsg(protocol.MsgError,
				protocol.EncodeError(protocol.CodeInternal, "gateway: upstream lost: "+err.Error()))
			return err
		}
		g.stats.relayed.Add(1)
		if err := down.WriteMsg(rtyp, reply); err != nil {
			return err
		}
	}
}

// open binds a new virtual stream to an upstream connection,
// round-robin across the pool, redialing failed slots on demand.
func (g *Gateway) open() (*gwStream, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, errors.New("gateway closed")
	}
	var err error
	for range g.upstreams {
		i := g.next % len(g.upstreams)
		g.next++
		u := g.upstreams[i]
		if u == nil || u.Err() != nil {
			var nc net.Conn
			if nc, err = g.cfg.Dial(); err != nil {
				continue
			}
			u = &upstreamConn{Pipe: protocol.NewPipe(protocol.NewConn(nc))}
			g.upstreams[i] = u
			g.stats.upstreamDials.Add(1)
		}
		return &gwStream{u: u, id: u.nextStream.Add(1) - 1}, nil
	}
	return nil, fmt.Errorf("gateway: no upstream connection: %w", err)
}

// upstreamConn is one pooled mux connection. Stream ids are monotonic
// and never reused for the connection's lifetime.
type upstreamConn struct {
	*protocol.Pipe
	nextStream atomic.Uint32
}

// gwStream is one downstream session's virtual stream on an upstream
// connection.
type gwStream struct {
	u  *upstreamConn
	id uint32
}

// roundTrip forwards one request and reads its reply into frame, which
// the returned payload aliases. A reply that is not a mux frame of this
// stream breaks the reply order, so it fails the connection.
func (st *gwStream) roundTrip(typ byte, payload []byte, frame *[]byte) (byte, []byte, error) {
	otyp, reply, err := st.u.Call(func(pc *protocol.Conn) error {
		return pc.WriteMuxMsg(st.id, typ, payload)
	}, frame)
	if err != nil {
		return 0, nil, err
	}
	stream, ityp, inner, err := protocol.DecodeMuxHeader(reply)
	if err == nil && (otyp != protocol.MsgMuxData || stream != st.id) {
		err = fmt.Errorf("gateway: stream %d got a frame of type %d addressed to stream %d", st.id, otyp, stream)
	}
	if err != nil {
		st.u.Fail(err)
		return 0, nil, err
	}
	return ityp, inner, nil
}
