package protocol_test

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"

	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/server"
	"cdstore/internal/storage"
)

// servedPipe is a pipe over an unbuffered net.Pipe whose far end a real
// server serves. wrap, if set, wraps the server's end.
func servedPipe(t *testing.T, wrap func(net.Conn) net.Conn) (*protocol.Pipe, net.Conn) {
	t.Helper()
	srv, err := server.New(server.Config{
		CloudIndex: 0, N: 4, K: 3,
		IndexDir: t.TempDir(),
		Backend:  storage.NewMemory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	a, b := net.Pipe()
	var end net.Conn = a
	if wrap != nil {
		end = wrap(a)
	}
	go srv.ServeConn(end)
	p := protocol.NewPipe(protocol.NewConn(b), "server")
	t.Cleanup(func() { p.Fail(errors.New("test over")) })
	return p, a
}

func muxCall(p *protocol.Pipe, stream uint32, typ byte, payload []byte) (byte, []byte, error) {
	var frame []byte
	otyp, reply, err := p.Call(typ, func(c *protocol.Conn) error { return c.WriteMuxMsg(stream, typ, payload) }, &frame)
	if err != nil {
		return 0, nil, err
	}
	if otyp != protocol.MsgMuxData {
		return 0, nil, fmt.Errorf("outer type %d", otyp)
	}
	got, ityp, inner, err := protocol.DecodeMuxHeader(reply)
	if err != nil {
		return 0, nil, err
	}
	if got != stream {
		return 0, nil, fmt.Errorf("stream %d got the reply of stream %d", stream, got)
	}
	return ityp, inner, nil
}

// TestPipeManyStreamsGetTheirOwnReplies runs many goroutines, each on a
// mux stream of its own, through one pipe: every reply carries the
// asking stream's id, and every query's answer has the length that
// query asked for.
func TestPipeManyStreamsGetTheirOwnReplies(t *testing.T) {
	p, _ := servedPipe(t, nil)
	const streams, rounds = 16, 20
	var wg sync.WaitGroup
	for s := uint32(0); s < streams; s++ {
		wg.Add(1)
		go func(s uint32) {
			defer wg.Done()
			if typ, _, err := muxCall(p, s, protocol.MsgHello, protocol.EncodeHello(uint64(s))); err != nil || typ != protocol.MsgHelloOK {
				t.Errorf("stream %d hello: type %d, %v", s, typ, err)
				return
			}
			for r := 0; r < rounds; r++ {
				fps := make([]metadata.Fingerprint, 1+int(s)*rounds+r)
				typ, reply, err := muxCall(p, s, protocol.MsgQuery, protocol.EncodeFingerprints(fps))
				if err != nil || typ != protocol.MsgQueryResult {
					t.Errorf("stream %d query %d: type %d, %v", s, r, typ, err)
					return
				}
				owned, err := protocol.DecodeBitmap(reply)
				if err != nil || len(owned) != len(fps) {
					t.Errorf("stream %d query %d: answer for %d fingerprints, asked %d (%v)", s, r, len(owned), len(fps), err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if err := p.Err(); err != nil {
		t.Fatalf("pipe failed: %v", err)
	}
}

// stallingConn holds every server reply until release is closed, and
// says on entered when the first one is held.
type stallingConn struct {
	net.Conn
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (c *stallingConn) Write(b []byte) (int, error) {
	c.once.Do(func() { close(c.entered) })
	<-c.release
	return c.Conn.Write(b)
}

// TestPipeDroppedConnectionFailsEveryCall drops the connection while one
// call waits for its reply and others wait to write: every call, and
// every later one, fails with the one error the pipe failed with.
func TestPipeDroppedConnectionFailsEveryCall(t *testing.T) {
	stall := &stallingConn{entered: make(chan struct{}), release: make(chan struct{})}
	p, serverEnd := servedPipe(t, func(c net.Conn) net.Conn { stall.Conn = c; return stall })
	t.Cleanup(func() { close(stall.release) })

	const callers = 8
	errs := make(chan error, callers)
	for s := uint32(0); s < callers; s++ {
		go func(s uint32) {
			_, _, err := muxCall(p, s, protocol.MsgHello, protocol.EncodeHello(1))
			errs <- err
		}(s)
	}
	<-stall.entered // the server holds the first reply
	serverEnd.Close()
	var first error
	for i := 0; i < callers; i++ {
		err := <-errs
		if err == nil {
			t.Fatal("a call succeeded over a dropped connection")
		}
		if first == nil {
			first = err
		}
		if err != first {
			t.Fatalf("calls failed with different errors: %v, %v", first, err)
		}
	}
	if p.Err() != first {
		t.Fatalf("pipe failed with %v, calls with %v", p.Err(), first)
	}
	if _, _, err := muxCall(p, 0, protocol.MsgListFiles, nil); err != first {
		t.Fatalf("call after the failure: %v, want %v", err, first)
	}
}

// TestPipeTooLargeFailsOnlyItsCall: a request refused before any byte of
// it is written fails its own call and leaves the pipe working.
func TestPipeTooLargeFailsOnlyItsCall(t *testing.T) {
	p, _ := servedPipe(t, nil)
	if typ, _, err := muxCall(p, 3, protocol.MsgHello, protocol.EncodeHello(1)); err != nil || typ != protocol.MsgHelloOK {
		t.Fatalf("hello: type %d, %v", typ, err)
	}
	huge := make([]byte, protocol.MaxMessage)
	if _, _, err := muxCall(p, 3, protocol.MsgPutRecipe, huge); !errors.Is(err, protocol.ErrTooLarge) {
		t.Fatalf("oversized request: %v, want ErrTooLarge", err)
	}
	if err := p.Err(); err != nil {
		t.Fatalf("an oversized request failed the pipe: %v", err)
	}
	typ, reply, err := muxCall(p, 3, protocol.MsgQuery, protocol.EncodeFingerprints(make([]metadata.Fingerprint, 5)))
	if err != nil || typ != protocol.MsgQueryResult {
		t.Fatalf("call after the refused one: type %d, %v", typ, err)
	}
	if owned, err := protocol.DecodeBitmap(reply); err != nil || len(owned) != 5 {
		t.Fatalf("call after the refused one got another reply: %d, %v", len(owned), err)
	}
}
