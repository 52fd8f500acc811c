package client

import (
	"bytes"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cdstore/internal/protocol"
)

// silencer relays a cloud's sessions message by message until the cloud
// goes silent: from the first request of type on, it takes every request
// and answers none, as a cloud that accepted the connection and then
// stopped would.
type silencer struct {
	on     byte
	silent atomic.Bool
}

func (s *silencer) dial(next Dialer) Dialer {
	return func() (net.Conn, error) {
		up, err := next()
		if err != nil {
			return nil, err
		}
		down, mine := net.Pipe()
		go func() {
			defer up.Close()
			in, out := protocol.NewConn(mine), protocol.NewConn(up)
			var frame []byte
			for {
				typ, payload, err := in.ReadMsgInto(&frame)
				if err != nil {
					return
				}
				if typ == s.on {
					s.silent.Store(true)
				}
				if s.silent.Load() {
					continue
				}
				if err := out.WriteMsg(typ, payload); err != nil {
					return
				}
			}
		}()
		go io.Copy(mine, up)
		return down, nil
	}
}

// deadlineTimeout is the reply bound the deadline tests connect with.
const deadlineTimeout = 200 * time.Millisecond

// connectSilencing connects user 1 to cl, every session bounded by
// deadlineTimeout, with the cloud at index silent relayed through s.
func connectSilencing(t *testing.T, cl pipeCluster, silent int, s *silencer) *Client {
	t.Helper()
	dialers := make([]Dialer, len(cl))
	for i, pc := range cl {
		dialers[i] = pc.dial
	}
	dialers[silent] = s.dial(dialers[silent])
	c, err := connect(Options{UserID: 1, N: len(cl), K: 3}, dialers, deadlineTimeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// within runs op and fails the test if it has not returned after a few
// seconds: without a reply deadline, a silent cloud hangs it for good.
func within(t *testing.T, what string, op func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- op() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s still waiting on a silent cloud", what)
		return nil
	}
}

// TestBackupFailsOnSilentCloud: a cloud that stops answering mid-backup
// fails the backup once the reply bound has passed, with an error naming
// that cloud, instead of hanging it.
func TestBackupFailsOnSilentCloud(t *testing.T) {
	cl := newPipeCluster(t, 4, 3)
	c := connectSilencing(t, cl, 2, &silencer{on: protocol.MsgPutShares})
	err := within(t, "a backup", func() error {
		_, err := backup(c, "/silent.bin", repairTestData(61, 8*sessionChunk))
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "cloud 2 did not answer") {
		t.Fatalf("backup with cloud 2 silent: %v, want an error naming cloud 2", err)
	}
}

// TestRestoreFailsOverSilentCloud: at k=3 of n=4, a primary that stops
// answering mid-restore is dropped once the reply bound has passed and
// the spare takes its slot, so the restore completes.
func TestRestoreFailsOverSilentCloud(t *testing.T) {
	cl := newPipeCluster(t, 4, 3)
	c := connectSilencing(t, cl, 0, &silencer{on: protocol.MsgGetShares})
	data := repairTestData(62, 8*sessionChunk)
	if _, err := backup(c, "/silent.bin", data); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	var st *RestoreStats
	err := within(t, "a restore", func() error {
		var err error
		st, err = c.Restore("/silent.bin", &out)
		return err
	})
	if err != nil {
		t.Fatalf("restore with cloud 0 silent: %v", err)
	}
	if !bytes.Equal(out.Bytes(), data) || st.Failovers == 0 {
		t.Fatalf("restore: %d bytes, equal %v, %d failovers; want the file through a spare", out.Len(), bytes.Equal(out.Bytes(), data), st.Failovers)
	}
}
