package client

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"sync/atomic"
	"testing"

	"cdstore/internal/core"
	"cdstore/internal/server"
	"cdstore/internal/storage"
)

// pipeDialers builds n in-process servers and dialers over net.Pipe.
func pipeDialers(t *testing.T, n, k int) []Dialer {
	t.Helper()
	dialers := make([]Dialer, n)
	for i := 0; i < n; i++ {
		srv, err := server.New(server.Config{
			CloudIndex: i, N: n, K: k,
			IndexDir: t.TempDir(),
			Backend:  storage.NewMemory(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		dialers[i] = func() (net.Conn, error) {
			a, b := net.Pipe()
			go func() {
				srv.ServeConn(a)
				a.Close() // as Server.Serve does: a dropped session fails the client's next call
			}()
			return b, nil
		}
	}
	return dialers
}

// connectedClouds counts the clouds c holds a session with.
func connectedClouds(c *Client) int {
	n := 0
	for _, cc := range c.conns {
		if cc != nil {
			n++
		}
	}
	return n
}

func TestConnectValidation(t *testing.T) {
	if _, err := Connect(Options{N: 3, K: 3}, nil); err == nil {
		t.Fatal("n == k accepted")
	}
	if _, err := Connect(Options{N: 4, K: 3}, make([]Dialer, 2)); err == nil {
		t.Fatal("wrong dialer count accepted")
	}
	// All-nil dialers: fewer than k clouds.
	if _, err := Connect(Options{N: 4, K: 3}, make([]Dialer, 4)); err == nil {
		t.Fatal("no reachable clouds accepted")
	}
}

func TestConnectHandshakeMismatch(t *testing.T) {
	// Server believes (n,k)=(4,3); client asks for (4,2): must fail fast.
	dialers := pipeDialers(t, 4, 3)
	if _, err := Connect(Options{UserID: 1, N: 4, K: 2}, dialers); err == nil {
		t.Fatal("parameter mismatch not detected at handshake")
	}
}

// closeRecorder is a client-side connection that records its Close.
type closeRecorder struct {
	net.Conn
	closed atomic.Bool
}

func (c *closeRecorder) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// TestConnectMismatchClosesEarlierSessions: when a later cloud answers
// the handshake as a different cloud, Connect fails and closes the
// sessions it had already opened instead of leaving them to the caller,
// who never gets a Client to close.
func TestConnectMismatchClosesEarlierSessions(t *testing.T) {
	dialers := pipeDialers(t, 4, 3)
	dialers[2], dialers[3] = dialers[3], dialers[2]
	conns := make([]*closeRecorder, len(dialers))
	for i, dial := range dialers {
		i, dial := i, dial
		dialers[i] = func() (net.Conn, error) {
			conn, err := dial()
			if err != nil {
				return nil, err
			}
			conns[i] = &closeRecorder{Conn: conn}
			return conns[i], nil
		}
	}
	if _, err := Connect(Options{UserID: 1, N: 4, K: 3}, dialers); err == nil {
		t.Fatal("swapped clouds not detected at handshake")
	}
	for i := 0; i < 2; i++ {
		if conns[i] == nil || !conns[i].closed.Load() {
			t.Errorf("cloud %d's session left open after the failed Connect", i)
		}
	}
}

func TestBackupRestoreOverPipes(t *testing.T) {
	dialers := pipeDialers(t, 4, 3)
	c, err := Connect(Options{UserID: 1, N: 4, K: 3, EncodeThreads: 2}, dialers)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := bytes.Repeat([]byte("cdstore pipes "), 20000) // ~280KB
	stats, err := c.Backup("/pipe.tar", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if stats.LogicalBytes != int64(len(data)) {
		t.Fatalf("LogicalBytes %d != %d", stats.LogicalBytes, len(data))
	}
	// Highly repetitive data dedups against itself within one backup:
	// transferred < logical shares.
	if stats.TransferredShareBytes >= stats.LogicalShareBytes {
		t.Fatalf("no in-stream dedup: sent %d of %d", stats.TransferredShareBytes, stats.LogicalShareBytes)
	}
	var out bytes.Buffer
	if _, err := c.Restore("/pipe.tar", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restore mismatch")
	}
}

func TestRestoreMissingFile(t *testing.T) {
	dialers := pipeDialers(t, 4, 3)
	c, err := Connect(Options{UserID: 1, N: 4, K: 3}, dialers)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Restore("/never-backed-up", io.Discard); err == nil {
		t.Fatal("restore of unknown file succeeded")
	}
}

func TestBackupEmptyFile(t *testing.T) {
	dialers := pipeDialers(t, 4, 3)
	c, err := Connect(Options{UserID: 1, N: 4, K: 3}, dialers)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stats, err := c.Backup("/empty.tar", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Secrets != 0 || stats.LogicalBytes != 0 {
		t.Fatalf("empty backup stats: %+v", stats)
	}
	var out bytes.Buffer
	rstats, err := c.Restore("/empty.tar", &out)
	if err != nil {
		t.Fatal(err)
	}
	if rstats.Bytes != 0 || out.Len() != 0 {
		t.Fatal("empty restore should produce no bytes")
	}
}

func TestRepairParameterValidation(t *testing.T) {
	dialers := pipeDialers(t, 4, 3)
	c, err := Connect(Options{UserID: 1, N: 4, K: 3}, dialers)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Repair("/x", -1); err == nil {
		t.Fatal("negative cloud index accepted")
	}
	if _, err := c.Repair("/x", 4); err == nil {
		t.Fatal("out-of-range cloud index accepted")
	}
}

// TestSchemeDefaultsToCAONTRS: the client disperses with CAONT-RS at
// (N, K) under the options' salt, unsalted by default — the shares any
// other client of the organisation computes for the same secret.
func TestSchemeDefaultsToCAONTRS(t *testing.T) {
	secret := []byte("one chunk, backed up by two organisations")
	for _, salt := range [][]byte{nil, []byte("org")} {
		c, err := Connect(Options{UserID: 1, N: 4, K: 3, Salt: salt}, pipeDialers(t, 4, 3))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.NewCAONTRSWithSalt(4, 3, salt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.codec.Split(secret)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Split(secret)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("salt %q: the client's shares are not CAONT-RS's", salt)
		}
		if got := connectedClouds(c); got != 4 {
			t.Fatalf("%d clouds connected, want 4", got)
		}
		c.Close()
	}
}

func TestPartialCloudConnect(t *testing.T) {
	dialers := pipeDialers(t, 4, 3)
	dialers[1] = nil // cloud 1 unreachable
	c, err := Connect(Options{UserID: 1, N: 4, K: 3}, dialers)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := connectedClouds(c); got != 3 || c.conns[1] != nil {
		t.Fatalf("%d clouds connected, want 3 without cloud 1", got)
	}
	// Backup must refuse without all clouds.
	if _, err := c.Backup("/x", bytes.NewReader([]byte("data"))); err == nil {
		t.Fatal("backup with missing cloud accepted")
	}
}
