package server

import (
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/storage"
)

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

// TestServerSurvivesFullDescriptorTable: Accept failing with EMFILE twice
// does not end Serve. It waits the full table out, the next client
// completes a Hello and a query, and Close then ends Serve with nil.
func TestServerSurvivesFullDescriptorTable(t *testing.T) {
	srv, err := New(Config{CloudIndex: 0, N: 4, K: 3, IndexDir: t.TempDir(), Backend: storage.NewMemory()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &fullTableListener{Listener: ln}
	fl.fails.Store(2)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(fl) }()

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
	if err := srv.Close(); err != nil {
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
