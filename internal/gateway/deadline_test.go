package gateway

import (
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"cdstore/internal/protocol"
	"cdstore/internal/server"
	"cdstore/internal/storage"
)

// deadlineGateway fronts one in-process server with a gateway whose
// ioTimeout is d, over a single pooled upstream.
func deadlineGateway(t *testing.T, d time.Duration) *Gateway {
	t.Helper()
	srv, err := server.New(server.Config{CloudIndex: 0, N: 4, K: 3, IndexDir: t.TempDir(), Backend: storage.NewMemory()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	g, err := New(Config{
		Dial: func() (net.Conn, error) {
			a, b := net.Pipe()
			go func() {
				srv.ServeConn(a)
				a.Close()
			}()
			return b, nil
		},
		UpstreamConns: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	g.ioTimeout = d
	return g
}

// downstream serves one pipe connection on g and returns its client end,
// raw and framed; served receives what ServeDownstream returned.
func downstream(t *testing.T, g *Gateway) (net.Conn, *protocol.Conn, <-chan error) {
	t.Helper()
	a, b := net.Pipe()
	served := make(chan error, 1)
	go func() {
		served <- g.ServeDownstream(a)
		a.Close()
	}()
	pc := protocol.NewConn(b)
	t.Cleanup(func() { pc.Close() })
	return b, pc, served
}

// helloThrough runs one Hello exchange on pc.
func helloThrough(t *testing.T, pc *protocol.Conn) {
	t.Helper()
	if err := pc.WriteMsg(protocol.MsgHello, protocol.EncodeHello(1)); err != nil {
		t.Fatal(err)
	}
	var frame []byte
	if typ, _, err := pc.ReadMsgInto(&frame); err != nil || typ != protocol.MsgHelloOK {
		t.Fatalf("hello through the gateway: reply %d, %v", typ, err)
	}
}

// awaitDeadline waits for ServeDownstream to return a deadline error.
func awaitDeadline(t *testing.T, served <-chan error, what string) {
	t.Helper()
	select {
	case err := <-served:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: ServeDownstream returned %v, want a deadline error", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still holds its gateway session", what)
	}
}

// TestGatewayDropsStalledDownstream: a downstream session idle between
// messages is kept however long it idles, but a client that stops in the
// middle of a message header is dropped once ioTimeout has passed.
func TestGatewayDropsStalledDownstream(t *testing.T) {
	const d = 50 * time.Millisecond
	g := deadlineGateway(t, d)
	conn, pc, served := downstream(t, g)
	time.Sleep(4 * d)
	helloThrough(t, pc)
	time.Sleep(4 * d)
	helloThrough(t, pc)
	// Two of a header's five bytes, then nothing.
	if _, err := conn.Write([]byte{protocol.MsgListFiles, 0}); err != nil {
		t.Fatal(err)
	}
	awaitDeadline(t, served, "a client stalled mid-header")
}

// TestGatewayDropsDownstreamThatNeverReads: a client that sends a request
// and never reads the reply is dropped once the reply's write deadline
// passes, and the pooled upstream it shared keeps serving other sessions.
func TestGatewayDropsDownstreamThatNeverReads(t *testing.T) {
	g := deadlineGateway(t, 50*time.Millisecond)
	_, pc, served := downstream(t, g)
	if err := pc.WriteMsg(protocol.MsgHello, protocol.EncodeHello(1)); err != nil {
		t.Fatal(err)
	}
	awaitDeadline(t, served, "a client that never reads its reply")
	_, next, _ := downstream(t, g)
	helloThrough(t, next)
	if dials := g.Stats().UpstreamDials; dials != 1 {
		t.Fatalf("%d upstream dials, want the one pooled upstream kept", dials)
	}
}

// TestGatewayFailsStalledUpstream: an upstream that accepts the
// connection and then answers nothing fails once ioTimeout has passed;
// the downstream session gets an in-band error naming the upstream
// instead of waiting on the relay for good.
func TestGatewayFailsStalledUpstream(t *testing.T) {
	g, err := New(Config{
		Dial: func() (net.Conn, error) {
			a, b := net.Pipe()
			go io.Copy(io.Discard, a) // takes every request, answers none
			return b, nil
		},
		UpstreamConns: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.ioTimeout = 50 * time.Millisecond
	conn, pc, served := downstream(t, g)
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := pc.WriteMsg(protocol.MsgHello, protocol.EncodeHello(1)); err != nil {
		t.Fatal(err)
	}
	var frame []byte
	typ, reply, err := pc.ReadMsgInto(&frame)
	if err != nil {
		t.Fatalf("no reply from a gateway whose upstream stalled: %v", err)
	}
	re, derr := protocol.DecodeError(reply)
	if typ != protocol.MsgError || derr != nil || re.Code != protocol.CodeInternal || !strings.Contains(re.Msg, "did not answer") {
		t.Fatalf("reply %d %q, want an in-band error naming the stalled upstream", typ, reply)
	}
	awaitDeadline(t, served, "a session whose upstream stalled")
}
