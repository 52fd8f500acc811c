package scheduler

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cdstore/internal/client"
	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
)

// fakeClient is a scripted Client: per-cloud scrub reports, and repairs
// that record their calls, track how many run at once, and succeed with
// fixed stats or fail per path.
type fakeClient struct {
	uid     uint64
	reports map[int]*protocol.ScrubReport // missing cloud: unreachable
	failOn  map[string]error              // path -> repair error
	hold    time.Duration                 // how long each repair runs

	mu       sync.Mutex
	passes   []int
	calls    []string // "cloud path", in call order
	running  atomic.Int32
	maxAtOne atomic.Int32
}

var errDown = errors.New("cloud unreachable")

func (f *fakeClient) UserID() uint64 { return f.uid }

func (f *fakeClient) ScrubControl(cloud int, op byte) error {
	if f.reports[cloud] == nil {
		return errDown
	}
	f.mu.Lock()
	f.passes = append(f.passes, cloud)
	f.mu.Unlock()
	return nil
}

func (f *fakeClient) ScrubStatus(cloud int) (*protocol.ScrubReport, error) {
	if f.reports[cloud] == nil {
		return nil, errDown
	}
	return f.reports[cloud], nil
}

// Repair rebuilds 2 shares of 100 bytes from 600 downloaded (k=3 read
// amplification), per file.
func (f *fakeClient) Repair(path string, cloud int) (*client.RepairStats, error) {
	n := f.running.Add(1)
	defer f.running.Add(-1)
	for {
		max := f.maxAtOne.Load()
		if n <= max || f.maxAtOne.CompareAndSwap(max, n) {
			break
		}
	}
	time.Sleep(f.hold)
	f.mu.Lock()
	f.calls = append(f.calls, fmt.Sprintf("%d %s", cloud, path))
	f.mu.Unlock()
	if err := f.failOn[path]; err != nil {
		return nil, err
	}
	return &client.RepairStats{
		Secrets:        2,
		SharesRebuilt:  2,
		BytesReuploads: 200,
		Restore:        client.RestoreStats{DownloadedBytes: 600},
	}, nil
}

func (f *fakeClient) sortedCalls() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := append([]string(nil), f.calls...)
	sort.Strings(out)
	return out
}

func fps(n int) []metadata.Fingerprint {
	out := make([]metadata.Fingerprint, n)
	for i := range out {
		out[i][0] = byte(i + 1)
	}
	return out
}

// TestRunOnceRoutesAndAccounts is the round's whole decision table on one
// report set: a file with damaged shares and one whose recipe was lost
// each get one Repair call, another user's file and an "x1:" path are
// skipped, a clean cloud costs nothing, an unreachable cloud is counted
// and not fatal — and the outcome and lifetime counters carry the
// client's stats through unchanged.
func TestRunOnceRoutesAndAccounts(t *testing.T) {
	fc := &fakeClient{uid: 7, reports: map[int]*protocol.ScrubReport{
		0: {Affected: []protocol.AffectedFile{
			{UserID: 7, Path: "/a", Damaged: fps(3)},
			{UserID: 7, Path: "/lost", RecipeLost: true},
			{UserID: 8, Path: "/theirs", Damaged: fps(1)},
			{UserID: 7, Path: "x1:0a1b2c", Damaged: fps(1)},
		}},
		1: {}, // healthy
		// 2: unreachable
		3: {Affected: []protocol.AffectedFile{{UserID: 7, Path: "/b", Damaged: fps(2)}}},
	}}
	s := New(Config{Client: fc, N: 4, TriggerPass: true})
	r, err := s.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if r.CloudsPolled != 3 || r.CloudsDown != 1 || r.CloudsBusy != 0 || r.SkippedFiles != 2 {
		t.Errorf("round = polled %d down %d busy %d skipped %d, want 3 1 0 2",
			r.CloudsPolled, r.CloudsDown, r.CloudsBusy, r.SkippedFiles)
	}
	want := []string{"0 /a", "0 /lost", "3 /b"}
	if got := fc.sortedCalls(); !slices.Equal(got, want) {
		t.Errorf("repair calls = %q, want %q", got, want)
	}
	if fmt.Sprint(fc.passes) != "[0 1 3]" {
		t.Errorf("scrub passes triggered on %v, want [0 1 3]", fc.passes)
	}
	if len(r.Outcomes) != 3 {
		t.Fatalf("%d outcomes, want 3", len(r.Outcomes))
	}
	for _, o := range r.Outcomes {
		if o.Err != nil || o.SharesRebuilt != 2 || o.BytesReuploaded != 200 || o.BytesDownloaded != 600 {
			t.Errorf("outcome %+v: want 2 shares, 200 up, 600 down, no error", o)
		}
	}
	if c, want := s.Counters(), (Counters{
		Rounds: 1, Repairs: 3,
		SharesRebuilt: 6, BytesReuploaded: 600, BytesDownloaded: 1800,
	}); c != want {
		t.Errorf("counters = %+v, want %+v", c, want)
	}
}

// TestRunOnceIdleGate: a cloud reporting more in-flight bytes than the
// threshold is busy — its repairs wait — while one at the threshold, and
// a busy cloud with nothing to repair, are not.
func TestRunOnceIdleGate(t *testing.T) {
	damaged := []protocol.AffectedFile{{UserID: 1, Path: "/f", Damaged: fps(1)}}
	fc := &fakeClient{uid: 1, reports: map[int]*protocol.ScrubReport{
		0: {InflightBytes: 4097, Affected: damaged},
		1: {InflightBytes: 4096, Affected: damaged},
		2: {InflightBytes: 1 << 30},
	}}
	s := New(Config{Client: fc, N: 3, IdleThresholdBytes: 4096})
	r, _ := s.RunOnce()
	if r.CloudsPolled != 3 || r.CloudsBusy != 1 {
		t.Errorf("polled %d busy %d, want 3 1", r.CloudsPolled, r.CloudsBusy)
	}
	if got, want := fc.sortedCalls(), []string{"1 /f"}; !slices.Equal(got, want) {
		t.Errorf("repair calls = %q, want %q", got, want)
	}
	if len(fc.passes) != 0 {
		t.Errorf("passes triggered without TriggerPass: %v", fc.passes)
	}

	// The default threshold admits only a fully idle cloud; once the load
	// drains, the next round picks the deferred repair up.
	fc.reports[1].InflightBytes = 1
	s = New(Config{Client: fc, N: 2})
	if r, _ = s.RunOnce(); r.CloudsBusy != 2 || len(r.Outcomes) != 0 {
		t.Errorf("threshold 0: busy %d outcomes %d, want 2 0", r.CloudsBusy, len(r.Outcomes))
	}
	fc.reports[0].InflightBytes, fc.reports[1].InflightBytes = 0, 0
	if r, _ = s.RunOnce(); r.CloudsBusy != 0 || len(r.Outcomes) != 2 {
		t.Errorf("after drain: busy %d outcomes %d, want 0 2", r.CloudsBusy, len(r.Outcomes))
	}
	if c := s.Counters(); c.Rounds != 2 || c.Repairs != 2 {
		t.Errorf("counters %+v, want 2 rounds, 2 repairs", c)
	}
}

// TestRunOnceBoundsConcurrency: with many affected files on one cloud, no
// more than Concurrency repairs are ever in flight, and with room for
// more than one they do overlap.
func TestRunOnceBoundsConcurrency(t *testing.T) {
	var affected []protocol.AffectedFile
	for i := 0; i < 9; i++ {
		affected = append(affected, protocol.AffectedFile{UserID: 1, Path: fmt.Sprintf("/f%d", i), Damaged: fps(1)})
	}
	for _, limit := range []int{0, 1, 3} {
		fc := &fakeClient{uid: 1, hold: 5 * time.Millisecond,
			reports: map[int]*protocol.ScrubReport{0: {Affected: affected}}}
		r, _ := New(Config{Client: fc, N: 1, Concurrency: limit}).RunOnce()
		if len(r.Outcomes) != len(affected) {
			t.Errorf("Concurrency %d: %d outcomes, want %d", limit, len(r.Outcomes), len(affected))
		}
		want := int32(limit)
		if limit <= 0 {
			want = 1 // the default
		}
		if got := fc.maxAtOne.Load(); got > want || (want > 1 && got < 2) {
			t.Errorf("Concurrency %d: %d repairs in flight at once, want <= %d and overlapping", limit, got, want)
		}
	}
}

// TestRunOnceErrorDoesNotStallBatch: a failing file is reported and
// counted, and every other file of the batch — on that cloud and the
// next — is still repaired.
func TestRunOnceErrorDoesNotStallBatch(t *testing.T) {
	boom := errors.New("boom")
	fc := &fakeClient{uid: 1, failOn: map[string]error{"/bad": boom, "/bad-recipe": boom},
		reports: map[int]*protocol.ScrubReport{
			0: {Affected: []protocol.AffectedFile{
				{UserID: 1, Path: "/bad", Damaged: fps(1)},
				{UserID: 1, Path: "/good", Damaged: fps(1)},
				{UserID: 1, Path: "/bad-recipe", RecipeLost: true},
				{UserID: 1, Path: "/good2", Damaged: fps(1)},
			}},
			1: {Affected: []protocol.AffectedFile{{UserID: 1, Path: "/next", RecipeLost: true}}},
		}}
	s := New(Config{Client: fc, N: 2, Concurrency: 2})
	r, err := s.RunOnce()
	if err != nil {
		t.Fatalf("RunOnce: %v (a file's error must stay in its outcome)", err)
	}
	if len(r.Outcomes) != 5 || len(fc.sortedCalls()) != 5 {
		t.Fatalf("%d outcomes, %d calls, want 5 and 5", len(r.Outcomes), len(fc.calls))
	}
	for _, o := range r.Outcomes {
		failed := o.Path == "/bad" || o.Path == "/bad-recipe"
		if failed != errors.Is(o.Err, boom) {
			t.Errorf("outcome %s: err=%v", o.Path, o.Err)
		}
		if failed && (o.SharesRebuilt != 0 || o.BytesReuploaded != 0 || o.BytesDownloaded != 0) {
			t.Errorf("failed outcome %s carries stats: %+v", o.Path, o)
		}
	}
	if c, want := s.Counters(), (Counters{
		Rounds: 1, Repairs: 3, RepairErrors: 2,
		SharesRebuilt: 6, BytesReuploaded: 600, BytesDownloaded: 1800,
	}); c != want {
		t.Errorf("counters = %+v, want %+v", c, want)
	}
}

// TestStartCloseRunsRounds: the background loop polls on its interval and
// Close waits it out; without an interval Start is a no-op.
func TestStartCloseRunsRounds(t *testing.T) {
	fc := &fakeClient{uid: 1, reports: map[int]*protocol.ScrubReport{0: {}}}
	s := New(Config{Client: fc, N: 1, Interval: time.Millisecond})
	s.Start()
	deadline := time.Now().Add(5 * time.Second)
	for s.Counters().Rounds < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Close()
	s.Close() // idempotent
	after := s.Counters().Rounds
	if after < 3 {
		t.Fatalf("background loop ran %d rounds in 5s, want >= 3", after)
	}
	time.Sleep(5 * time.Millisecond)
	if s.Counters().Rounds != after {
		t.Error("rounds still running after Close")
	}

	idle := New(Config{Client: fc, N: 1})
	idle.Start()
	idle.Close()
	if idle.Counters().Rounds != 0 {
		t.Error("Start without an Interval ran a round")
	}
}
