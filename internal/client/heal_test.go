package client

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
)

// fakeHealer is a scripted healer: per-cloud scrub reports, a listing of
// encoded paths, and repairs that record their calls, track how many run
// at once, and succeed with fixed stats or fail per path.
type fakeHealer struct {
	reports map[int]*protocol.ScrubReport // missing cloud: unreachable
	plain   map[string]string             // path ID -> plaintext path
	failOn  map[string]error              // path -> repair error
	hold    time.Duration                 // how long each repair runs
	listed  int                           // plainPaths calls

	mu       sync.Mutex
	passes   []int
	calls    []string // "cloud path", in call order
	running  atomic.Int32
	maxAtOne atomic.Int32
}

var errDown = errors.New("cloud unreachable")

func (f *fakeHealer) RunScrubPass(cloud int) error {
	if f.reports[cloud] == nil {
		return errDown
	}
	f.mu.Lock()
	f.passes = append(f.passes, cloud)
	f.mu.Unlock()
	return nil
}

func (f *fakeHealer) ScrubStatus(cloud int) (*protocol.ScrubReport, error) {
	if f.reports[cloud] == nil {
		return nil, errDown
	}
	return f.reports[cloud], nil
}

func (f *fakeHealer) plainPaths() (map[string]string, error) {
	f.listed++
	return f.plain, nil
}

// Repair rebuilds 2 shares of 100 bytes from 600 downloaded (k=3 read
// amplification), per file.
func (f *fakeHealer) Repair(path string, cloud int) (*RepairStats, error) {
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
	return &RepairStats{
		Secrets:        2,
		SharesRebuilt:  2,
		BytesReuploads: 200,
		Restore:        RestoreStats{DownloadedBytes: 600},
	}, nil
}

func (f *fakeHealer) sortedCalls() []string {
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

// TestHealRoutesAndAccounts is the round's whole decision table on one
// report set: every reachable cloud runs a pass first, a file with damaged
// shares and one whose recipe was lost each get one Repair call, an "x1:"
// name is repaired under the plaintext path the user's listing gives its
// path ID and skipped when the listing has none, the listing is asked for
// once, a clean cloud costs nothing, an unreachable cloud is counted and
// not fatal — and the outcomes carry the client's stats through unchanged.
func TestHealRoutesAndAccounts(t *testing.T) {
	fc := &fakeHealer{plain: map[string]string{"0a1b2c": "/enc"}, reports: map[int]*protocol.ScrubReport{
		0: {Affected: []protocol.AffectedFile{
			{Path: "/a", Damaged: fps(3)},
			{Path: "/lost", RecipeLost: true},
			{Path: "x1:0a1b2c:4:00ff", Damaged: fps(1)},
			{Path: "x1:ffffff:3:00ff", Damaged: fps(1)},
		}},
		1: {}, // healthy
		// 2: unreachable
		3: {Affected: []protocol.AffectedFile{{Path: "/b", Damaged: fps(2)}}},
	}}
	r := heal(fc, 4)
	if r.CloudsPolled != 3 || r.CloudsDown != 1 || r.CloudsBusy != 0 || r.SkippedFiles != 1 {
		t.Errorf("round = polled %d down %d busy %d skipped %d, want 3 1 0 1",
			r.CloudsPolled, r.CloudsDown, r.CloudsBusy, r.SkippedFiles)
	}
	if fc.listed != 1 {
		t.Errorf("the round listed the user's files %d times, want 1", fc.listed)
	}
	want := []string{"0 /a", "0 /enc", "0 /lost", "3 /b"}
	if got := fc.sortedCalls(); !slices.Equal(got, want) {
		t.Errorf("repair calls = %q, want %q", got, want)
	}
	if fmt.Sprint(fc.passes) != "[0 1 3]" {
		t.Errorf("scrub passes triggered on %v, want [0 1 3]", fc.passes)
	}
	if len(r.Outcomes) != 4 {
		t.Fatalf("%d outcomes, want 4", len(r.Outcomes))
	}
	for _, o := range r.Outcomes {
		if o.Err != nil || o.SharesRebuilt != 2 || o.BytesReuploaded != 200 || o.BytesDownloaded != 600 {
			t.Errorf("outcome %+v: want 2 shares, 200 up, 600 down, no error", o)
		}
	}
}

// TestHealBusyGate: a cloud reporting any in-flight bytes is busy — its
// repairs wait — while a busy cloud with nothing to repair is not counted
// busy; once the load drains, the next round picks the deferred repairs up.
func TestHealBusyGate(t *testing.T) {
	damaged := []protocol.AffectedFile{{Path: "/f", Damaged: fps(1)}}
	fc := &fakeHealer{reports: map[int]*protocol.ScrubReport{
		0: {InflightBytes: 1, Affected: damaged},
		1: {Affected: damaged},
		2: {InflightBytes: 1 << 30},
	}}
	r := heal(fc, 3)
	if r.CloudsPolled != 3 || r.CloudsBusy != 1 {
		t.Errorf("polled %d busy %d, want 3 1", r.CloudsPolled, r.CloudsBusy)
	}
	if got, want := fc.sortedCalls(), []string{"1 /f"}; !slices.Equal(got, want) {
		t.Errorf("repair calls = %q, want %q", got, want)
	}

	fc.reports[0].InflightBytes = 0
	if r = heal(fc, 1); r.CloudsBusy != 0 || len(r.Outcomes) != 1 {
		t.Errorf("after drain: busy %d outcomes %d, want 0 1", r.CloudsBusy, len(r.Outcomes))
	}
}

// TestHealBoundsConcurrency: with many affected files on one cloud, no
// more than healConcurrency repairs are ever in flight, and they do
// overlap.
func TestHealBoundsConcurrency(t *testing.T) {
	var affected []protocol.AffectedFile
	for i := 0; i < 9; i++ {
		affected = append(affected, protocol.AffectedFile{Path: fmt.Sprintf("/f%d", i), Damaged: fps(1)})
	}
	fc := &fakeHealer{hold: 5 * time.Millisecond,
		reports: map[int]*protocol.ScrubReport{0: {Affected: affected}}}
	r := heal(fc, 1)
	if len(r.Outcomes) != len(affected) {
		t.Errorf("%d outcomes, want %d", len(r.Outcomes), len(affected))
	}
	if got := fc.maxAtOne.Load(); got != healConcurrency {
		t.Errorf("%d repairs in flight at once, want %d", got, healConcurrency)
	}
}

// TestHealErrorDoesNotStallBatch: a failing file is reported in its
// outcome, and every other file of the batch — on that cloud and the
// next — is still repaired.
func TestHealErrorDoesNotStallBatch(t *testing.T) {
	boom := errors.New("boom")
	fc := &fakeHealer{failOn: map[string]error{"/bad": boom, "/bad-recipe": boom},
		reports: map[int]*protocol.ScrubReport{
			0: {Affected: []protocol.AffectedFile{
				{Path: "/bad", Damaged: fps(1)},
				{Path: "/good", Damaged: fps(1)},
				{Path: "/bad-recipe", RecipeLost: true},
				{Path: "/good2", Damaged: fps(1)},
			}},
			1: {Affected: []protocol.AffectedFile{{Path: "/next", RecipeLost: true}}},
		}}
	r := heal(fc, 2)
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
}

// TestHealRepairsEncodedPaths: a file backed up with EncodePaths reaches a
// cloud's report under its "x1:" name. The round decodes the name through
// the user's listing and heals, under the plaintext path, exactly the
// shares a tamper damaged, so the cloud then carries decode weight again.
func TestHealRepairsEncodedPaths(t *testing.T) {
	const target = 2
	cl := newPipeCluster(t, 4, 3)
	opts := Options{K: 3, EncodePaths: true}
	data := chunksOf(idRange(0, 9)...)
	if _, err := backup(cl.connect(t, opts), "/enc/f.bin", data); err != nil {
		t.Fatal(err)
	}
	tampered := cl[target].tamperShares(t, 3)

	c := cl.connect(t, opts)
	r := c.Heal()
	if r.SkippedFiles != 0 || len(r.Outcomes) != 1 {
		t.Fatalf("round skipped %d files, made %d repairs; want 0 and 1", r.SkippedFiles, len(r.Outcomes))
	}
	if o := r.Outcomes[0]; o.Err != nil || o.Cloud != target || o.Path != "/enc/f.bin" || o.SharesRebuilt != int64(len(tampered)) {
		t.Fatalf("outcome %+v: want /enc/f.bin on cloud %d, %d shares rebuilt", o, target, len(tampered))
	}
	if r = c.Heal(); len(r.Outcomes) != 0 || r.SkippedFiles != 0 {
		t.Fatalf("a second round still repairs: %+v", r)
	}
	// Clouds 1, 2 and 3 are exactly k: every share the target serves is used.
	var out bytes.Buffer
	st, err := cl.connect(t, opts, 0).Restore("/enc/f.bin", &out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) || st.SubsetRetries != 0 {
		t.Fatalf("restore through the healed cloud: %d subset retries, bytes equal %v", st.SubsetRetries, bytes.Equal(out.Bytes(), data))
	}
}
