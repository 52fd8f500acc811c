package client

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cdstore/internal/core"
	"cdstore/internal/gateway"
	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/secretshare"
)

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
// encode error. The failure is a real one: an empty chunk, which the
// codec refuses.
func TestBackupEncodeErrorSingleThread(t *testing.T) {
	dialers := pipeDialers(t, 4, 3)
	base, err := Connect(Options{UserID: 1, N: 4, K: 3, EncodeThreads: 1}, dialers)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	// Fail on the empty chunk; plenty of chunks follow so the producer
	// would block against a dead worker pool without the drain.
	chunks := make([][]byte, 300)
	for i := range chunks {
		chunks[i] = []byte(strings.Repeat("x", 512))
	}
	chunks[5] = []byte{}

	done := make(chan error, 1)
	go func() {
		_, err := base.BackupStream("/poisoned", &sliceSource{chunks: chunks})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, secretshare.ErrEmptySecret) {
			t.Fatalf("backup error = %v, want %v", err, secretshare.ErrEmptySecret)
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
		chunks := make([][]byte, 64)
		for i := range chunks {
			chunks[i] = []byte(strings.Repeat("z", 512))
		}
		// Two empty secrets; seq 7 must win over seq 8.
		chunks[7], chunks[8] = []byte{}, []byte{}
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
	chunks := make([][]byte, 100000)
	for i := range chunks {
		chunks[i] = []byte("abcdefgh")
	}
	chunks[0] = []byte{} // the first secret fails
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

// countingSource yields count distinct secrets of size bytes each,
// counting how many were pulled.
type countingSource struct {
	count, size, pulled int
}

func (s *countingSource) NextChunk() ([]byte, error) {
	if s.pulled == s.count {
		return nil, io.EOF
	}
	chunk := make([]byte, s.size)
	binary.BigEndian.PutUint64(chunk, uint64(s.pulled))
	s.pulled++
	return chunk, nil
}

// throughGateways connects to cl with every cloud behind its own
// gateway, so each message the client sends travels upstream in a mux
// frame.
func throughGateways(t *testing.T, cl pipeCluster) *Client {
	t.Helper()
	dialers := make([]Dialer, len(cl))
	for i, pc := range cl {
		gw, err := gateway.New(gateway.Config{Dial: pc.dial, UpstreamConns: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { gw.Close() })
		dialers[i] = func() (net.Conn, error) {
			a, b := net.Pipe()
			go func() {
				gw.ServeDownstream(a)
				a.Close()
			}()
			return b, nil
		}
	}
	c, err := Connect(Options{K: 3, UserID: 1, N: len(cl)}, dialers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// limitPath is a path whose recipe at the most entries that fit in
// protocol.MaxMessage alone would be 1-5 bytes too long for a mux frame:
// (MaxMessage - header - len) mod 40 < MuxHeaderSize, with the 41-byte
// header of recipe format 2.
const limitPath = "/at-the-recipe-limit/through-a-gw.db"

// TestBackupStopsBeforeRecipeOutgrowsMaxMessage: a file of more secrets
// than one recipe message can list fails before the secret that would
// overflow it is encoded, with an error naming the limit, instead of
// after every share has been uploaded. The file is backed up through
// gateways, where the recipe also carries a mux header.
func TestBackupStopsBeforeRecipeOutgrowsMaxMessage(t *testing.T) {
	cl := newPipeCluster(t, 4, 3)
	c := throughGateways(t, cl)
	limit := metadata.MaxRecipeEntries(len(limitPath), protocol.MaxMessage-protocol.MuxHeaderSize)
	src := &countingSource{count: 140_000, size: 512}
	_, err := c.BackupStream(limitPath, src)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("more than %d secrets", limit)) ||
		!strings.Contains(err.Error(), "protocol.MaxMessage") {
		t.Fatalf("backup of %d secrets, limit %d: err=%v", src.count, limit, err)
	}
	if src.pulled > limit+1 {
		t.Errorf("%d secrets pulled from the source, limit %d", src.pulled, limit)
	}
	for i, cloud := range cl {
		if stored := cloud.srv.Stats().SharesStored; stored > uint64(limit) {
			t.Errorf("cloud %d stored %d shares, more than the %d a recipe can list", i, stored, limit)
		}
	}
}

// TestRecipeAtTheLimitCrossesAGateway: a file of exactly the most
// secrets a backup of this path accepts (the number the test above
// pins) stores its recipe through a gateway, and the recipe comes back
// through one: the limit leaves room for the mux header.
func TestRecipeAtTheLimitCrossesAGateway(t *testing.T) {
	cl := newPipeCluster(t, 4, 3)
	c := throughGateways(t, cl)
	limit := metadata.MaxRecipeEntries(len(limitPath), protocol.MaxMessage-protocol.MuxHeaderSize)
	if metadata.MaxRecipeEntries(len(limitPath), protocol.MaxMessage) == limit {
		t.Fatalf("%q is outside the window where the mux header changes the limit", limitPath)
	}
	if _, err := c.BackupStream(limitPath, &countingSource{count: limit, size: 512}); err != nil {
		t.Fatalf("backup of %d secrets: %v", limit, err)
	}
	for i, cc := range c.conns {
		reply, err := cc.call(protocol.MsgGetRecipe, protocol.EncodeString(limitPath), protocol.MsgRecipe)
		if err != nil {
			t.Fatalf("cloud %d: %v", i, err)
		}
		r, err := metadata.UnmarshalRecipe(reply)
		if err != nil {
			t.Fatalf("cloud %d recipe: %v", i, err)
		}
		if r.NumSecrets != uint64(limit) {
			t.Fatalf("cloud %d recipe lists %d secrets, want %d", i, r.NumSecrets, limit)
		}
	}
}

// maxShareSecret is the largest secret whose shares fit
// protocol.MaxShareBytes at (n,k) = (4,3).
func maxShareSecret(t *testing.T, c *Client) int {
	t.Helper()
	size := protocol.MaxShareBytes*c.opts.K - core.HashSize
	if c.codec.ShareSize(size) != protocol.MaxShareBytes || c.codec.ShareSize(size+1) <= protocol.MaxShareBytes {
		t.Fatalf("a %d-byte secret is not the largest whose shares fit %d bytes", size, protocol.MaxShareBytes)
	}
	return size
}

// TestBackupRefusesSecretPastMaxShareBytes: a secret whose shares no one
// message can carry through a gateway — 16 MiB, or one byte past the
// largest that fits — fails the backup before it is encoded, with an error
// naming the limit, and no cloud receives a share.
func TestBackupRefusesSecretPastMaxShareBytes(t *testing.T) {
	cl := newPipeCluster(t, 4, 3)
	c := cl.connect(t, Options{K: 3})
	for _, size := range []int{16 << 20, maxShareSecret(t, c) + 1} {
		_, err := c.BackupStream("/huge.img", &sliceSource{chunks: [][]byte{make([]byte, size)}})
		if err == nil || !strings.Contains(err.Error(), "protocol.MaxShareBytes") {
			t.Fatalf("backup of a %d-byte secret: err=%v", size, err)
		}
	}
	for i, cloud := range cl {
		if got := cloud.srv.Stats().SharesReceived; got != 0 {
			t.Errorf("cloud %d received %d shares", i, got)
		}
	}
}

// TestShareAtTheLimitCrossesAGateway: the largest secret a backup accepts
// stores its shares through gateways and restores through them byte for
// byte: a one-share MsgPutShares and a one-share MsgShares reply of
// protocol.MaxShareBytes both fit a mux frame.
func TestShareAtTheLimitCrossesAGateway(t *testing.T) {
	cl := newPipeCluster(t, 4, 3)
	c := throughGateways(t, cl)
	secret := make([]byte, maxShareSecret(t, c))
	rand.New(rand.NewSource(1)).Read(secret)
	if _, err := c.BackupStream("/limit.img", &sliceSource{chunks: [][]byte{secret}}); err != nil {
		t.Fatalf("backup of a %d-byte secret: %v", len(secret), err)
	}
	var out bytes.Buffer
	if _, err := c.Restore("/limit.img", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), secret) {
		t.Fatal("restore differs from the backup")
	}
}
