package client

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cdstore/internal/protocol"
	"cdstore/internal/secretshare"
)

// failingScheme wraps the real scheme but fails SplitInto on chosen
// secrets.
type failingScheme struct {
	secretshare.ArenaScheme
	failOn func(secret []byte) bool
}

var errBoom = errors.New("boom")

func (f *failingScheme) SplitInto(secret []byte, a *secretshare.Arena) ([][]byte, error) {
	if f.failOn(secret) {
		return nil, errBoom
	}
	return f.ArenaScheme.SplitInto(secret, a)
}

// sliceSource feeds fixed chunks, counting how many were pulled.
type sliceSource struct {
	chunks [][]byte
	next   int
	pulled int
}

func (s *sliceSource) NextChunk() ([]byte, error) {
	if s.next >= len(s.chunks) {
		return nil, io.EOF
	}
	c := s.chunks[s.next]
	s.next++
	s.pulled++
	return c, nil
}

// TestBackupEncodeErrorSingleThread is the regression test for the
// encode-worker hang: with EncodeThreads=1, a Split failure used to kill
// the only worker without draining the jobs channel, leaving the chunk
// producer blocked forever. The backup must instead terminate with the
// encode error.
func TestBackupEncodeErrorSingleThread(t *testing.T) {
	dialers := pipeDialers(t, 4, 3)
	base, err := Connect(Options{UserID: 1, N: 4, K: 3, EncodeThreads: 1}, dialers)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	// Fail on the marker chunk; plenty of chunks follow so the producer
	// would block against a dead worker pool without the drain.
	base.scheme = &failingScheme{
		ArenaScheme: base.scheme,
		failOn:      func(secret []byte) bool { return strings.HasPrefix(string(secret), "poison") },
	}
	chunks := make([][]byte, 300)
	for i := range chunks {
		chunks[i] = []byte(strings.Repeat("x", 512))
	}
	chunks[5] = []byte("poison" + strings.Repeat("y", 506))

	done := make(chan error, 1)
	go func() {
		_, err := base.BackupStream("/poisoned", &sliceSource{chunks: chunks})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, errBoom) {
			t.Fatalf("backup error = %v, want %v", err, errBoom)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("backup hung on encode error (jobs channel not drained)")
	}
}

// TestBackupEncodeErrorDeterministic checks the error surfaced is the
// failing secret with the LOWEST sequence number, regardless of worker
// interleaving.
func TestBackupEncodeErrorDeterministic(t *testing.T) {
	for run := 0; run < 5; run++ {
		dialers := pipeDialers(t, 4, 3)
		c, err := Connect(Options{UserID: 1, N: 4, K: 3, EncodeThreads: 4}, dialers)
		if err != nil {
			t.Fatal(err)
		}
		c.scheme = &failingScheme{
			ArenaScheme: c.scheme,
			failOn:      func(secret []byte) bool { return strings.HasPrefix(string(secret), "poison") },
		}
		chunks := make([][]byte, 64)
		for i := range chunks {
			chunks[i] = []byte(strings.Repeat("z", 512))
		}
		// Two poisoned secrets; seq 7 must win over seq 8.
		chunks[7] = []byte("poison-a" + strings.Repeat("7", 504))
		chunks[8] = []byte("poison-b" + strings.Repeat("8", 504))
		_, berr := c.BackupStream("/det", &sliceSource{chunks: chunks})
		if berr == nil {
			t.Fatal("poisoned backup succeeded")
		}
		if !strings.Contains(berr.Error(), "encode secret 7") {
			t.Fatalf("run %d: error %q, want the seq-7 failure", run, berr)
		}
		c.Close()
	}
}

// limitedConn fails every Write once budget bytes have been written,
// simulating a cloud connection that dies mid-backup.
type limitedConn struct {
	net.Conn
	mu     sync.Mutex
	budget int
}

func (lc *limitedConn) Write(p []byte) (int, error) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.budget <= 0 {
		return 0, errors.New("write budget exhausted")
	}
	lc.budget -= len(p)
	return lc.Conn.Write(p)
}

// TestBackupStopsChunkingAfterUploadFailure: a cloud that dies mid-upload
// must stop the chunk producer just like an encode failure does — a
// doomed backup must not chunk and encode the rest of the source.
func TestBackupStopsChunkingAfterUploadFailure(t *testing.T) {
	dialers := pipeDialers(t, 4, 3)
	plain := dialers[0]
	dialers[0] = func() (net.Conn, error) {
		conn, err := plain()
		if err != nil {
			return nil, err
		}
		return &limitedConn{Conn: conn, budget: 64 << 10}, nil
	}
	c, err := Connect(Options{UserID: 1, N: 4, K: 3, EncodeThreads: 2}, dialers)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Unique chunks so the session-level seen map cannot dedup them away
	// (every share must travel, forcing flush rounds against cloud 0).
	chunks := make([][]byte, 100000)
	for i := range chunks {
		chunks[i] = []byte(fmt.Sprintf("%08d", i))
	}
	src := &sliceSource{chunks: chunks}
	_, berr := c.BackupStream("/dead-cloud", src)
	if berr == nil {
		t.Fatal("backup against a dead cloud succeeded")
	}
	if !strings.Contains(berr.Error(), "cloud 0") {
		t.Fatalf("error %q does not name the failed cloud", berr)
	}
	if src.pulled > 20000 {
		t.Fatalf("producer pulled %d/100000 chunks after cloud 0 died", src.pulled)
	}
}

// TestBackupStopsChunkingAfterFailure ensures the producer stops pulling
// chunks soon after the encode pool fails instead of chunking the whole
// stream for nothing.
func TestBackupStopsChunkingAfterFailure(t *testing.T) {
	dialers := pipeDialers(t, 4, 3)
	c, err := Connect(Options{UserID: 1, N: 4, K: 3, EncodeThreads: 1}, dialers)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.scheme = &failingScheme{
		ArenaScheme: c.scheme,
		failOn:      func([]byte) bool { return true }, // first secret fails
	}
	chunks := make([][]byte, 100000)
	for i := range chunks {
		chunks[i] = []byte("abcdefgh")
	}
	src := &sliceSource{chunks: chunks}
	if _, err := c.BackupStream("/stop", src); err == nil {
		t.Fatal("backup succeeded")
	}
	// The producer may race a few chunks ahead (channel buffer), but must
	// not have consumed the whole stream.
	if src.pulled > 1000 {
		t.Fatalf("producer pulled %d chunks after the pool failed", src.pulled)
	}
}

// recipeRefuser fails the connection at the first MsgPutRecipe frame.
// protocol.Conn flushes once per message, so a Write that begins while
// no frame is in progress begins with a frame header.
type recipeRefuser struct {
	net.Conn
	remaining int // bytes of the current frame still to come
}

func (r *recipeRefuser) Write(p []byte) (int, error) {
	if r.remaining == 0 {
		if p[0] == protocol.MsgPutRecipe {
			return 0, errors.New("recipe refused")
		}
		r.remaining = 5 + int(binary.BigEndian.Uint32(p[1:5]))
	}
	r.remaining -= len(p)
	return r.Conn.Write(p)
}

// TestBackupRecipeErrorLowestCloudWins: the n recipes are put
// concurrently, but when several clouds refuse theirs the reported error
// is the lowest cloud's, run after run, as when they were put in turn.
func TestBackupRecipeErrorLowestCloudWins(t *testing.T) {
	for run := 0; run < 10; run++ {
		dialers := pipeDialers(t, 4, 3)
		for _, i := range []int{1, 3} {
			plain := dialers[i]
			dialers[i] = func() (net.Conn, error) {
				conn, err := plain()
				return &recipeRefuser{Conn: conn}, err
			}
		}
		c, err := Connect(Options{UserID: 1, N: 4, K: 3, EncodeThreads: 2}, dialers)
		if err != nil {
			t.Fatal(err)
		}
		chunks := make([][]byte, 40)
		for i := range chunks {
			chunks[i] = []byte(fmt.Sprintf("recipe-order-%04d", i))
		}
		_, berr := c.BackupStream("/refused", &sliceSource{chunks: chunks})
		if berr == nil || !strings.Contains(berr.Error(), "cloud 1 recipe") {
			t.Fatalf("run %d: error %v, want cloud 1's recipe failure", run, berr)
		}
		c.Close()
	}
}
