package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	if got := percentile(nil, 50); got != 0 {
		t.Fatalf("percentile of no samples = %v, want 0", got)
	}
	s := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {100, 10}, {1, 1}, {0, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if s[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

// A percentile is a tail estimate only with ten samples beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{99, 90, false}, {100, 90, true}, {144, 90, true}, {12, 90, false}, {999, 99, false}, {1000, 99, true}, {20, 50, true}, {19, 50, false}} {
		if got := tailResolved(c.n, c.p); got != c.want {
			t.Errorf("tailResolved(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: 1, Name: "backup", Start: 0, End: 100},
		// Two overlapping children and one that runs past the parent:
		// they cover [10,40] and [90,100] of it, 40 in all.
		{ID: 2, Parent: 1, Op: 1, Name: "wire.write", Start: 10, End: 30},
		{ID: 3, Parent: 1, Op: 1, Name: "wire.write", Start: 20, End: 40},
		{ID: 4, Parent: 1, Op: 1, Name: "wire.read", Start: 90, End: 120},
		// A grandchild takes from its parent, not from the root.
		{ID: 5, Parent: 2, Op: 1, Name: "inner", Start: 12, End: 17},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 60, 2: 15, 3: 20, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
	agg := aggregate(spans)
	if w := agg["wire.write"]; w.Count != 2 || w.BusyNs != 40 || w.SelfNs != 35 {
		t.Errorf("wire.write aggregate = %+v, want count 2, busy 40, self 35", w)
	}
}

func TestTracerNestsOperations(t *testing.T) {
	var none *tracer
	none.begin(nil, "x").end(1) // the untraced run: all no-ops

	tr := newTracer()
	phase := tr.beginOp(nil, "phase.backup")
	op := tr.beginOp(phase, "backup")
	child := tr.begin(op, "wire.write")
	child.end(7)
	op.end(0)
	phase.end(0)
	if len(tr.spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(tr.spans))
	}
	w, b, p := tr.spans[0], tr.spans[1], tr.spans[2]
	if w.Parent != b.ID || w.Op != b.ID || b.Parent != p.ID || b.Op == p.Op || w.Bytes != 7 {
		t.Errorf("bad nesting: write %+v backup %+v phase %+v", w, b, p)
	}
	if w.Start < b.Start || w.End > b.End {
		t.Errorf("child [%d,%d] outside parent [%d,%d]", w.Start, w.End, b.Start, b.End)
	}
}

// The generators must give the same bytes for the same seed whatever
// the sizes of the reads, and other bytes for another seed.
func TestSegReaderIsDeterministic(t *testing.T) {
	segs := []segment{{seed: mix(7, 1), n: 100003}, {seed: mix(7, 2), n: 70001}}
	whole, err := io.ReadAll(newSegReader(segs))
	if err != nil || len(whole) != 170004 {
		t.Fatalf("read %d bytes, err %v", len(whole), err)
	}
	r := newSegReader(segs)
	var pieces bytes.Buffer
	buf := make([]byte, 777)
	for {
		n, err := r.Read(buf)
		pieces.Write(buf[:n])
		if err == io.EOF {
			break
		}
	}
	if !bytes.Equal(whole, pieces.Bytes()) {
		t.Fatal("content depends on read sizes")
	}
	other, _ := io.ReadAll(newSegReader([]segment{{seed: mix(8, 1), n: 100003}}))
	if bytes.Equal(whole[:100003], other) {
		t.Fatal("another seed gave the same bytes")
	}
	sink := newVerifySink()
	sink.Write(whole)
	if err := sink.check(r.digest()); err != nil {
		t.Fatalf("digest of identical bytes: %v", err)
	}
	whole[5] ^= 1
	sink = newVerifySink()
	sink.Write(whole)
	if err := sink.check(r.digest()); err == nil {
		t.Fatal("a flipped bit passed verification")
	}
}

func TestWatchdogCountsAStallAsFailed(t *testing.T) {
	h := &harness{ops: &runState{}, opTimeout: 20 * time.Millisecond}
	release := make(chan struct{})
	defer close(release)
	err := h.runOp("backup /stuck", func() error { <-release; return nil })
	if !errors.Is(err, errStall) {
		t.Fatalf("err = %v, want a stall", err)
	}
	if h.ops.attempted.Load() != 1 || h.ops.failed.Load() != 1 || !h.stalled {
		t.Fatalf("attempted %d failed %d stalled %v, want 1 1 true", h.ops.attempted.Load(), h.ops.failed.Load(), h.stalled)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkJSON is the schema of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json and the runner must name the same workloads and the
// same metrics, within the driver's limits.
func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the runner's default is %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the runner", len(bj.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the runner (or their reasons differ)", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 {
			t.Errorf("workload %q: bad or repeated name, or reason over 200 characters", w.Name)
		}
		seen[w.Name] = true
	}

	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the runner", len(bj.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in the runner", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the runner (at most 128)", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in the runner", i, m, d)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name, or bad unit", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		seen[d.Name] = true
	}
}

// Every workload, at toy size: an untraced run must report exactly the
// end-to-end metrics and a traced run exactly the per-layer ones, with
// every restore verified and no operation failed.
func TestWorkloadsSmoke(t *testing.T) {
	for _, spec := range workloads {
		spec := spec
		t.Run(spec.name, func(t *testing.T) {
			start := time.Now()
			for _, traced := range []bool{false, true} {
				res, err := run(runConfig{
					spec: spec, sz: toySizing, seed: 11, trace: traced,
					minRounds: 1, traceDir: t.TempDir(),
				})
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct %v, %d of %d operations failed", traced, res.Correct, res.Failed, res.Attempted)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics reported, %d defined", traced, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					mv, ok := res.Metrics[d.Name]
					if !ok || mv.Unit != d.Unit || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
						t.Errorf("traced=%v: metric %s missing, mis-united or not finite: %+v", traced, d.Name, mv)
					}
					if !traced && mv.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, mv.Value)
					}
				}
				var out bytes.Buffer
				printResult(&out, res)
				for _, d := range defs {
					if !bytes.Contains(out.Bytes(), []byte("  "+d.Name+" ")) {
						t.Errorf("traced=%v: the table does not print %s", traced, d.Name)
					}
				}
				if !traced {
					continue
				}
				// The bypass predictions hold in the numbers.
				chunked := spec.name == "unique_cold" || spec.name == "degraded_repair"
				if got := res.Metrics["chunker.busy_s_per_gib"].Value; (got > 0) != chunked {
					t.Errorf("chunker.busy_s_per_gib = %v, chunker used = %v", got, chunked)
				}
				sessions, dials := res.Metrics["gateway.sessions"].Value, res.Metrics["gateway.upstream_dials"].Value
				if spec.gateway && !(sessions > dials && dials > 0) {
					t.Errorf("gateway.sessions %v, upstream_dials %v: want sessions > dials > 0", sessions, dials)
				}
				if !spec.gateway && sessions != 0 {
					t.Errorf("gateway.sessions = %v on a direct-connection workload", sessions)
				}
				if _, err := os.Stat(res.Meta["trace_file"]); err != nil {
					t.Errorf("trace file: %v", err)
				}
			}
			t.Logf("%s: %.2fs", spec.name, time.Since(start).Seconds())
		})
	}
}
