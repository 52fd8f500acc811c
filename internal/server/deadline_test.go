package server

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/storage"
)

// deadlineServer starts a server whose ioTimeout is d and serves one pipe
// connection on it, the client end of which is returned raw and framed,
// after a Hello. served receives what ServeConn returned.
func deadlineServer(t *testing.T, d time.Duration) (*Server, net.Conn, *protocol.Conn, <-chan error) {
	t.Helper()
	srv, err := New(Config{CloudIndex: 0, N: 4, K: 3, IndexDir: t.TempDir(), Backend: storage.NewMemory()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.ioTimeout = d
	a, b := net.Pipe()
	served := make(chan error, 1)
	go func() {
		served <- srv.ServeConn(a)
		a.Close()
	}()
	pc := protocol.NewConn(b)
	t.Cleanup(func() { pc.Close() })
	hello(t, pc, 1)
	return srv, b, pc, served
}

// awaitDeadline waits for ServeConn to return a deadline error.
func awaitDeadline(t *testing.T, served <-chan error, what string) {
	t.Helper()
	select {
	case err := <-served:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: ServeConn returned %v, want a deadline error", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still holds its connection", what)
	}
}

// TestStalledMessageIsDropped: a connection idle between messages is kept
// however long it idles, but a peer that stops in the middle of a message
// header is dropped once ioTimeout has passed.
func TestStalledMessageIsDropped(t *testing.T) {
	const d = 50 * time.Millisecond
	_, conn, pc, served := deadlineServer(t, d)
	time.Sleep(4 * d)
	if typ, _ := call(t, pc, protocol.MsgListFiles, nil); typ != protocol.MsgFileList {
		t.Fatalf("connection idle for %v not serving: reply %d", 4*d, typ)
	}
	// Two of a header's five bytes, then nothing.
	if _, err := conn.Write([]byte{protocol.MsgListFiles, 0}); err != nil {
		t.Fatal(err)
	}
	awaitDeadline(t, served, "a peer stalled mid-header")
}

// TestUnreadReplyReleasesFlowBytes: a session that asks for shares and
// never reads the reply holds the flow limiter's in-flight bytes — which
// a heal round reads as a busy cloud — only until the reply's write
// deadline drops the connection.
func TestUnreadReplyReleasesFlowBytes(t *testing.T) {
	srv, _, pc, served := deadlineServer(t, 50*time.Millisecond)
	putOneShareFile(t, srv, pc, "/unread.tar")
	fp := metadata.FingerprintOf([]byte("the one share of /unread.tar"))
	if err := pc.WriteMsg(protocol.MsgGetShares, protocol.EncodeFingerprints([]metadata.Fingerprint{fp})); err != nil {
		t.Fatal(err)
	}
	awaitDeadline(t, served, "a session that never reads its reply")
	if n := srv.flow.inflightBytes(); n != 0 {
		t.Fatalf("%d in-flight bytes still held after the connection was dropped", n)
	}
}
