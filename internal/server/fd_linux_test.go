package server

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"

	"cdstore/internal/protocol"
	"cdstore/internal/storage"
)

func openDescriptors(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(fds)
}

// TestServerDescriptorsAndTablesStayConstant: a disk-backed cloud holds a
// handful of descriptors — two WALs, and after a Flush two SSTables —
// however many sessions it has served, and a Flush builds at most one
// table per index store. With a store per stripe the same sequence held
// 65 WALs open from the start and a Flush added up to 65 tables.
func TestServerDescriptorsAndTablesStayConstant(t *testing.T) {
	dir := t.TempDir()
	backend, err := storage.NewLocalDir(filepath.Join(dir, "backend"))
	if err != nil {
		t.Fatal(err)
	}
	before := openDescriptors(t)
	srv, err := New(Config{CloudIndex: 0, N: 4, K: 3, IndexDir: filepath.Join(dir, "index"), Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for s := 0; s < 8; s++ { // 8 direct sessions, each ending in Bye
		a, b := net.Pipe()
		served := make(chan error, 1)
		go func() { served <- srv.ServeConn(a) }()
		pc := protocol.NewConn(b)
		hello(t, pc, uint64(s+1))
		uploads := make([]protocol.ShareUpload, 100) // over every stripe by the end
		for i := range uploads {
			uploads[i] = protocol.ShareUpload{SecretSeq: uint64(i), SecretSize: 64, Data: []byte(fmt.Sprintf("session %d share %d", s, i))}
		}
		if typ, reply := call(t, pc, protocol.MsgPutShares, protocol.EncodeShareBatch(uploads)); typ != protocol.MsgPutOK {
			t.Fatalf("session %d put: %d %s", s, typ, reply)
		}
		if err := pc.WriteMsg(protocol.MsgBye, nil); err != nil {
			t.Fatal(err)
		}
		if err := <-served; err != nil {
			t.Fatalf("session %d ended with %v", s, err)
		}
		pc.Close()
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	if n, err := srv.CountShares(); err != nil || n != 800 {
		t.Fatalf("server indexes %d shares, %v; want 800", n, err)
	}
	tables, _ := filepath.Glob(filepath.Join(dir, "index", "*", "*.sst"))
	if len(tables) == 0 || len(tables) > 2 {
		t.Fatalf("Flush left %d SSTables, want 1 or 2: %v", len(tables), tables)
	}
	// Two WALs and the tables just built; the slack is for whatever the
	// runtime opens on its own (an epoll descriptor, an event descriptor).
	if held := openDescriptors(t) - before; held > 2+len(tables)+4 {
		t.Fatalf("the server holds %d descriptors after 8 sessions and a Flush, want at most %d", held, 2+len(tables)+4)
	}
}
