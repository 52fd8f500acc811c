package gateway_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cdstore/internal/client"
	"cdstore/internal/container"
	"cdstore/internal/gateway"
	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/server"
	"cdstore/internal/storage"
)

// testServer builds one in-process cloud server.
func testServer(t *testing.T, i, n, k int) *server.Server {
	t.Helper()
	srv, err := server.New(server.Config{
		CloudIndex: i, N: n, K: k,
		IndexDir: t.TempDir(),
		Backend:  storage.NewMemory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// testGateway fronts one server with a gateway whose upstream pool runs
// over net.Pipe.
func testGateway(t *testing.T, srv *server.Server, conns int) *gateway.Gateway {
	t.Helper()
	gw, err := gateway.New(gateway.Config{
		Dial: func() (net.Conn, error) {
			a, b := net.Pipe()
			go func() {
				srv.ServeConn(a)
				a.Close() // as Server.Serve does: a dropped connection fails the gateway's next call
			}()
			return b, nil
		},
		UpstreamConns: conns,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	return gw
}

// gatewayDialer gives a client a downstream connection into gw.
func gatewayDialer(gw *gateway.Gateway) client.Dialer {
	return func() (net.Conn, error) {
		a, b := net.Pipe()
		go func() {
			gw.ServeDownstream(a)
			a.Close() // as Gateway.Serve does
		}()
		return b, nil
	}
}

// readMsg reads one message into a payload of its own.
func readMsg(pc *protocol.Conn) (byte, []byte, error) {
	var frame []byte
	return pc.ReadMsgInto(&frame)
}

// TestBackupRestoreThroughGateway runs the full client workflow —
// backup, list, restore, delete — against a 4-cloud deployment fronted
// entirely by gateways. The relay must be protocol-transparent: the
// client code path is identical to dialing servers directly.
func TestBackupRestoreThroughGateway(t *testing.T) {
	const n, k = 4, 3
	dialers := make([]client.Dialer, n)
	gws := make([]*gateway.Gateway, n)
	for i := 0; i < n; i++ {
		srv := testServer(t, i, n, k)
		gws[i] = testGateway(t, srv, 2)
		dialers[i] = gatewayDialer(gws[i])
	}
	c, err := client.Connect(client.Options{UserID: 1, N: n, K: k, EncodeThreads: 2}, dialers)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	data := bytes.Repeat([]byte("through the gateway "), 20000) // ~400KB
	if _, err := c.Backup("/gw.tar", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	files, err := c.ListFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Path != "/gw.tar" {
		t.Fatalf("listing through gateway: %+v", files)
	}
	var out bytes.Buffer
	if _, err := c.Restore("/gw.tar", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restore through gateway corrupted data")
	}
	if err := c.Delete("/gw.tar"); err != nil {
		t.Fatal(err)
	}
	for i, gw := range gws {
		st := gw.Stats()
		if st.UpstreamDials > 2 {
			t.Fatalf("gateway %d dialed upstream %d times, pool is 2", i, st.UpstreamDials)
		}
		if st.Sessions == 0 || st.Relayed == 0 {
			t.Fatalf("gateway %d saw no traffic: %+v", i, st)
		}
	}
}

// TestManySessionsShareUpstreams is the amortization property itself:
// many concurrent logical sessions, each doing the hello/put/bye dance,
// must ride a two-connection upstream pool — sessions scale, upstream
// dials do not.
func TestManySessionsShareUpstreams(t *testing.T) {
	const sessions = 64
	srv := testServer(t, 0, 4, 3)
	gw := testGateway(t, srv, 2)

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			a, b := net.Pipe()
			go gw.ServeDownstream(a)
			pc := protocol.NewConn(b)
			defer pc.Close()
			exchange := func(typ byte, payload []byte, want byte) error {
				if err := pc.WriteMsg(typ, payload); err != nil {
					return err
				}
				rtyp, reply, err := readMsg(pc)
				if err != nil {
					return err
				}
				if rtyp != want {
					return fmt.Errorf("session %d: reply %d (%s), want %d", s, rtyp, reply, want)
				}
				return nil
			}
			if err := exchange(protocol.MsgHello, protocol.EncodeHello(uint64(s%8)), protocol.MsgHelloOK); err != nil {
				errs <- err
				return
			}
			data := []byte(fmt.Sprintf("session %d share", s))
			batch := protocol.EncodeShareBatch([]protocol.ShareUpload{
				{SecretSeq: 0, SecretSize: uint32(len(data)), Data: data},
			})
			if err := exchange(protocol.MsgPutShares, batch, protocol.MsgPutOK); err != nil {
				errs <- err
				return
			}
			errs <- pc.WriteMsg(protocol.MsgBye, nil)
		}(s)
	}
	wg.Wait()
	for i := 0; i < sessions; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st := gw.Stats()
	if st.Sessions != sessions {
		t.Fatalf("sessions %d, want %d", st.Sessions, sessions)
	}
	if st.UpstreamDials > 2 {
		t.Fatalf("%d sessions forced %d upstream dials; pool is 2", sessions, st.UpstreamDials)
	}
	if got := srv.Stats().SharesStored; got != sessions {
		t.Fatalf("server stored %d shares, want %d", got, sessions)
	}
}

// TestUpstreamLossSurfacesAndRedials kills every pooled upstream
// connection mid-deployment: the session that was riding one gets an
// in-band error (its server-side state died with the connection), and
// the next fresh session transparently triggers a redial and succeeds.
func TestUpstreamLossSurfacesAndRedials(t *testing.T) {
	srv := testServer(t, 0, 4, 3)
	var mu sync.Mutex
	var upstreams []net.Conn
	gw, err := gateway.New(gateway.Config{
		Dial: func() (net.Conn, error) {
			a, b := net.Pipe()
			go srv.ServeConn(a)
			mu.Lock()
			upstreams = append(upstreams, b)
			mu.Unlock()
			return b, nil
		},
		UpstreamConns: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	newSession := func() (net.Conn, *protocol.Conn) {
		a, b := net.Pipe()
		go gw.ServeDownstream(a)
		b.SetDeadline(time.Now().Add(5 * time.Second))
		return b, protocol.NewConn(b)
	}
	exchange := func(pc *protocol.Conn, typ byte, payload []byte) (byte, []byte, error) {
		if err := pc.WriteMsg(typ, payload); err != nil {
			return 0, nil, err
		}
		return readMsg(pc)
	}

	_, pc1 := newSession()
	defer pc1.Close()
	if rtyp, _, err := exchange(pc1, protocol.MsgHello, protocol.EncodeHello(1)); err != nil || rtyp != protocol.MsgHelloOK {
		t.Fatalf("first session hello: %d %v", rtyp, err)
	}

	// Sever the pooled upstream connection under the live session.
	mu.Lock()
	for _, c := range upstreams {
		c.Close()
	}
	severed := len(upstreams)
	mu.Unlock()
	if severed != 1 {
		t.Fatalf("pool of 1 dialed %d times before failure", severed)
	}

	// The riding session must see the failure, not hang: either an
	// in-band internal error or its downstream connection dropping.
	rtyp, reply, err := exchange(pc1, protocol.MsgListFiles, nil)
	if err == nil {
		if rtyp != protocol.MsgError {
			t.Fatalf("request on severed upstream got reply %d: %s", rtyp, reply)
		}
		re, derr := protocol.DecodeError(reply)
		if derr != nil || re.Code != protocol.CodeInternal {
			t.Fatalf("severed-upstream error: %+v %v", re, derr)
		}
	} else if errors.Is(err, protocol.ErrTooLarge) {
		t.Fatalf("unexpected framing error: %v", err)
	}

	// A fresh session redials and works.
	_, pc2 := newSession()
	defer pc2.Close()
	if rtyp, _, err := exchange(pc2, protocol.MsgHello, protocol.EncodeHello(2)); err != nil || rtyp != protocol.MsgHelloOK {
		t.Fatalf("post-failure session hello: %d %v", rtyp, err)
	}
	if rtyp, _, err := exchange(pc2, protocol.MsgListFiles, nil); err != nil || rtyp != protocol.MsgFileList {
		t.Fatalf("post-failure session list: %d %v", rtyp, err)
	}
	if dials := gw.Stats().UpstreamDials; dials != 2 {
		t.Fatalf("dials %d, want 2 (original + one redial)", dials)
	}
}

// TestMisroutedReplyFailsOnlyItsUpstream: an upstream that answers a
// stream with another stream's id breaks the reply order, so the gateway
// fails that connection, and the session on it gets an in-band error.
// The session on the other pooled connection carries on, and the next
// session bound to the failed slot redials it.
func TestMisroutedReplyFailsOnlyItsUpstream(t *testing.T) {
	srv := testServer(t, 0, 4, 3)
	var dials int
	gw, err := gateway.New(gateway.Config{
		Dial: func() (net.Conn, error) {
			a, b := net.Pipe()
			dials++ // the pool dials under its lock
			if dials > 1 {
				go srv.ServeConn(a)
				return b, nil
			}
			// The first upstream answers its first request, then every
			// later one as if it came from the next stream.
			go func() {
				pc := protocol.NewConn(a)
				defer pc.Close()
				for next := uint32(0); ; next = 1 {
					_, payload, err := readMsg(pc)
					if err != nil {
						return
					}
					stream, _, _, _ := protocol.DecodeMuxHeader(payload)
					if pc.WriteMuxMsg(stream+next, protocol.MsgHelloOK, protocol.EncodeHelloOK(0, 4, 3)) != nil {
						return
					}
				}
			}()
			return b, nil
		},
		UpstreamConns: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	session := func() *protocol.Conn {
		a, b := net.Pipe()
		go gw.ServeDownstream(a)
		b.SetDeadline(time.Now().Add(5 * time.Second))
		pc := protocol.NewConn(b)
		t.Cleanup(func() { pc.Close() })
		return pc
	}
	exchange := func(pc *protocol.Conn, typ byte, payload []byte) (byte, []byte) {
		t.Helper()
		if err := pc.WriteMsg(typ, payload); err != nil {
			t.Fatal(err)
		}
		rtyp, reply, err := readMsg(pc)
		if err != nil {
			t.Fatal(err)
		}
		return rtyp, reply
	}

	misrouted, healthy := session(), session()
	if rtyp, _ := exchange(misrouted, protocol.MsgHello, protocol.EncodeHello(1)); rtyp != protocol.MsgHelloOK {
		t.Fatalf("first session: hello reply %d", rtyp)
	}
	if rtyp, _ := exchange(healthy, protocol.MsgHello, protocol.EncodeHello(2)); rtyp != protocol.MsgHelloOK {
		t.Fatalf("session on the other upstream: hello reply %d", rtyp)
	}
	rtyp, reply := exchange(misrouted, protocol.MsgListFiles, nil)
	if rtyp != protocol.MsgError {
		t.Fatalf("misrouted reply relayed as type %d", rtyp)
	}
	if re, err := protocol.DecodeError(reply); err != nil || !strings.Contains(re.Msg, "addressed to stream 1") {
		t.Fatalf("misrouted reply error: %v %v", re, err)
	}
	if rtyp, _ := exchange(healthy, protocol.MsgListFiles, nil); rtyp != protocol.MsgFileList {
		t.Fatalf("session on the other upstream: list reply %d", rtyp)
	}
	redialed := session()
	if rtyp, _ := exchange(redialed, protocol.MsgHello, protocol.EncodeHello(3)); rtyp != protocol.MsgHelloOK {
		t.Fatalf("session on the failed slot: hello reply %d", rtyp)
	}
	if got := gw.Stats().UpstreamDials; got != 3 {
		t.Fatalf("%d upstream dials, want 3 (two, then the failed slot's redial)", got)
	}
}

// TestIdleUpstreamLossIsRetried: an upstream connection that dies while
// no session is using it fails the first request sent on it. When that
// request opens a session, the gateway sends it again, past every pooled
// connection that died the same way, until a redialed one answers: the
// session never sees the loss.
func TestIdleUpstreamLossIsRetried(t *testing.T) {
	srv := testServer(t, 0, 4, 3)
	var serverEnds []net.Conn
	gw, err := gateway.New(gateway.Config{
		Dial: func() (net.Conn, error) {
			a, b := net.Pipe()
			go srv.ServeConn(a)
			serverEnds = append(serverEnds, a) // the pool dials under its lock
			return b, nil
		},
		UpstreamConns: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	// hello runs one session, Hello then Bye, and returns once the
	// gateway has retired its stream upstream.
	hello := func(user uint64) {
		t.Helper()
		a, b := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- gw.ServeDownstream(a) }()
		b.SetDeadline(time.Now().Add(5 * time.Second))
		pc := protocol.NewConn(b)
		defer pc.Close()
		if err := pc.WriteMsg(protocol.MsgHello, protocol.EncodeHello(user)); err != nil {
			t.Fatal(err)
		}
		if rtyp, reply, err := readMsg(pc); err != nil || rtyp != protocol.MsgHelloOK {
			t.Fatalf("session of user %d: hello reply %d %s %v", user, rtyp, reply, err)
		}
		if err := pc.WriteMsg(protocol.MsgBye, nil); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("session of user %d: %v", user, err)
		}
	}
	hello(1)
	hello(2)
	for _, c := range serverEnds {
		c.Close() // the server drops both idle connections
	}
	hello(3)
	if dials := gw.Stats().UpstreamDials; dials != 3 {
		t.Fatalf("dials %d, want 3 (two, then one redial)", dials)
	}
}

// TestOversizedRequestIsRefusedInBand: a request that fits a plain
// frame but not a mux frame is refused with CodeBadRequest, and the
// session and its upstream carry on.
func TestOversizedRequestIsRefusedInBand(t *testing.T) {
	srv := testServer(t, 0, 4, 3)
	gw := testGateway(t, srv, 1)
	a, b := net.Pipe()
	go gw.ServeDownstream(a)
	b.SetDeadline(time.Now().Add(5 * time.Second))
	pc := protocol.NewConn(b)
	defer pc.Close()
	exchange := func(typ byte, payload []byte) (byte, []byte) {
		t.Helper()
		if err := pc.WriteMsg(typ, payload); err != nil {
			t.Fatal(err)
		}
		rtyp, reply, err := readMsg(pc)
		if err != nil {
			t.Fatal(err)
		}
		return rtyp, reply
	}
	if rtyp, _ := exchange(protocol.MsgHello, protocol.EncodeHello(1)); rtyp != protocol.MsgHelloOK {
		t.Fatalf("hello reply %d", rtyp)
	}
	rtyp, reply := exchange(protocol.MsgPutRecipe, make([]byte, protocol.MaxMessage))
	if rtyp != protocol.MsgError {
		t.Fatalf("oversized request relayed, reply %d", rtyp)
	}
	if re, err := protocol.DecodeError(reply); err != nil || re.Code != protocol.CodeBadRequest ||
		!strings.Contains(re.Msg, "exceeds MaxMessage") {
		t.Fatalf("oversized request error: %+v %v", re, err)
	}
	if rtyp, _ := exchange(protocol.MsgListFiles, nil); rtyp != protocol.MsgFileList {
		t.Fatalf("list after the refusal: reply %d", rtyp)
	}
	if got := gw.Stats().UpstreamDials; got != 1 {
		t.Fatalf("%d upstream dials, want 1: the refusal must not fail the upstream", got)
	}
}

// TestUnreachableUpstreamReportsInBand: when no upstream can be dialed
// at all, the downstream client gets a protocol-level error, not a
// silent hang.
func TestUnreachableUpstreamReportsInBand(t *testing.T) {
	gw, err := gateway.New(gateway.Config{
		Dial:          func() (net.Conn, error) { return nil, errors.New("cloud down") },
		UpstreamConns: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	a, b := net.Pipe()
	go gw.ServeDownstream(a)
	b.SetDeadline(time.Now().Add(5 * time.Second))
	pc := protocol.NewConn(b)
	defer pc.Close()
	if err := pc.WriteMsg(protocol.MsgHello, protocol.EncodeHello(1)); err != nil {
		t.Fatal(err)
	}
	rtyp, reply, err := readMsg(pc)
	if err != nil {
		t.Fatal(err)
	}
	if rtyp != protocol.MsgError {
		t.Fatalf("reply %d", rtyp)
	}
	re, derr := protocol.DecodeError(reply)
	if derr != nil || re.Code != protocol.CodeInternal {
		t.Fatalf("error: %+v %v", re, derr)
	}
}

// TestGatewayServeAcceptLoop exercises the listener-based entry point
// end to end over real TCP.
func TestGatewayServeAcceptLoop(t *testing.T) {
	srv := testServer(t, 0, 4, 3)
	gw := testGateway(t, srv, 2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go gw.Serve(ln)

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	pc := protocol.NewConn(nc)
	defer pc.Close()
	if err := pc.WriteMsg(protocol.MsgHello, protocol.EncodeHello(7)); err != nil {
		t.Fatal(err)
	}
	rtyp, _, err := readMsg(pc)
	if err != nil || rtyp != protocol.MsgHelloOK {
		t.Fatalf("hello over TCP through gateway: %d %v", rtyp, err)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
}

// fullTableListener fails its first fails Accept calls as a process out
// of file descriptors does, then accepts normally.
type fullTableListener struct {
	net.Listener
	fails atomic.Int32
}

func (l *fullTableListener) Accept() (net.Conn, error) {
	if l.fails.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", syscall.EMFILE)}
	}
	return l.Listener.Accept()
}

// helloAndQuery runs a client's first exchanges on pc: a Hello, then one
// MsgQuery.
func helloAndQuery(pc *protocol.Conn) error {
	for _, m := range []struct {
		typ, want byte
		payload   []byte
	}{
		{protocol.MsgHello, protocol.MsgHelloOK, protocol.EncodeHello(1)},
		{protocol.MsgQuery, protocol.MsgQueryResult, protocol.EncodeFingerprints([]metadata.Fingerprint{{1}})},
	} {
		if err := pc.WriteMsg(m.typ, m.payload); err != nil {
			return err
		}
		typ, _, err := readMsg(pc)
		if err != nil {
			return err
		}
		if typ != m.want {
			return fmt.Errorf("message type %d answered with type %d, want %d", m.typ, typ, m.want)
		}
	}
	return nil
}

// TestGatewaySurvivesFullDescriptorTable: Accept failing with EMFILE
// twice does not end Serve. It waits the full table out, the next client
// completes a Hello and a query through the gateway to its server, and
// Close then ends Serve with nil.
func TestGatewaySurvivesFullDescriptorTable(t *testing.T) {
	gw := testGateway(t, testServer(t, 0, 4, 3), 2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &fullTableListener{Listener: ln}
	fl.fails.Store(2)
	served := make(chan error, 1)
	go func() { served <- gw.Serve(fl) }()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	pc := protocol.NewConn(nc)
	defer pc.Close()
	answered := make(chan error, 1)
	go func() { answered <- helloAndQuery(pc) }()
	select {
	case err := <-served:
		t.Fatalf("Serve returned %v before serving the client", err)
	case err := <-answered:
		if err != nil {
			t.Fatalf("Hello and query after a full descriptor table: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no answer after a full descriptor table")
	}
	if n := fl.fails.Load(); n >= 0 {
		t.Fatalf("%d accept failures left unspent", n+1)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve after Close returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still running after Close")
	}
}

// TestQuarantinedShareKeepsSharedUpstream: a restore through gateways asks
// cloud 0 for shares a scrub pass quarantined. The server answers NotFound
// in-band, so the pooled upstream the request rode — shared with another
// user's session — stays up, and that session's next request succeeds.
func TestQuarantinedShareKeepsSharedUpstream(t *testing.T) {
	const n, k = 4, 3
	srvs := make([]*server.Server, n)
	dialers := make([]client.Dialer, n)
	backend := storage.NewMemory() // cloud 0's
	for i := range srvs {
		cfg := server.Config{CloudIndex: i, N: n, K: k, IndexDir: t.TempDir(), Backend: storage.NewMemory()}
		if i == 0 {
			cfg.Backend = backend
		}
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		srvs[i] = srv
		dialers[i] = gatewayDialer(testGateway(t, srv, 1))
	}
	connect := func(user uint64) *client.Client {
		c, err := client.Connect(client.Options{UserID: user, N: n, K: k, EncodeThreads: 2}, dialers)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	owner, other := connect(1), connect(2)
	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(37)).Read(data)
	if _, err := owner.Backup("/q.tar", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if err := srvs[0].Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := storage.Corrupt(backend,
		func(name string) bool { return strings.HasPrefix(name, "share-") },
		func(name string, raw []byte) []byte {
			out, _ := container.TamperEntries(name, raw, 3, 0x5a)
			return out
		}); err != nil {
		t.Fatal(err)
	}
	srvs[0].DropCaches()
	if pass, err := srvs[0].RunScrubPass(); err != nil || len(pass.Damaged) == 0 {
		t.Fatalf("scrub pass: %+v, %v", pass, err)
	}

	var out bytes.Buffer
	if _, err := owner.Restore("/q.tar", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restore past quarantined shares is not byte-identical")
	}
	if _, err := other.ScrubStatus(0); err != nil {
		t.Fatalf("another session on the shared upstream: %v", err)
	}
}
