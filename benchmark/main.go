// Command benchmark is the repo benchmark: four workloads against the
// real stack (a 4-cloud cloud.Cluster on disk over host loopback TCP,
// (n,k)=(4,3)), every restored byte SHA-256-verified, end-to-end
// metrics from untraced runs and a per-layer budget from a traced run
// plus layer replay. BENCHMARK.json at the repo root names the metrics;
// README.md in this directory defines them.
//
// One workload:
//
//	go run ./benchmark -workload fsl_weekly -seed 7 -seconds 12 -trace 0
//
// prints the metric table and, as the last line, one JSON object
// {"correct","attempted","failed","metrics"}. -trace 1 reports the
// per-layer metrics instead, prints the budget table and writes
// benchmark/out/<workload>.trace.json. -workload all runs every
// workload in a process of its own (peak_rss_mb is per process);
// -selfcheck runs two full sets and compares them with the bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// runDeadline ends a single-workload run that has not finished: the
// driver allows 180 s, and a hang must end as a non-zero exit.
const runDeadline = 170 * time.Second

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 12

func main() {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 7, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", defaultSeconds, "timed seconds to measure per run")
	trace := flag.Int("trace", 0, "1: traced run, per-layer metrics and budget table")
	jsonOut := flag.String("json", "", "also write the result(s) to this file")
	selfcheck := flag.Bool("selfcheck", false, "run two full sets and compare them with the bounds")
	flag.Parse()

	switch {
	case *selfcheck:
		os.Exit(selfCheck(*seed, *seconds))
	case *workload == "all":
		results, err := runAll(*seed, *seconds, *trace == 1)
		if err == nil && *jsonOut != "" {
			err = writeJSON(*jsonOut, results)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}

	spec, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	time.AfterFunc(runDeadline, func() {
		fmt.Fprintln(os.Stderr, "benchmark: run exceeded its deadline")
		os.Exit(3)
	})
	raiseFDLimit()
	res, err := run(runConfig{
		spec: spec, sz: fullSizing, seed: *seed, seconds: *seconds,
		trace: *trace == 1, minRounds: 3, extraSetups: 5, traceDir: filepath.Join("benchmark", "out"),
	})
	if err != nil {
		// A stalled operation cannot be cancelled; report and leave.
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if errors.Is(err, errStall) {
			os.Exit(3)
		}
		os.Exit(1)
	}
	printResult(os.Stdout, res)
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, res); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Println(string(line))
}

// raiseFDLimit lifts the soft descriptor limit to the hard one. Every
// direct-connection Bye leaves up to 64 new SSTables per cloud that
// nothing compacts, each an open file: 32 direct sessions held 7.5k
// descriptors while sizing. runtime.open_fds_peak and
// index.sstables_per_shard make that visible.
func raiseFDLimit() {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return
	}
	lim.Cur = lim.Max
	_ = syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim) // best effort: the run still reports its peak
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runChild runs one workload in a process of its own and returns its
// result. The child prints its tables to our stdout.
func runChild(name string, seed int64, seconds float64, trace bool) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp("", "cdstore-benchmark-result-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	t := 0
	if trace {
		t = 1
	}
	cmd := exec.Command(exe,
		"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(t), "-json", tmp.Name())
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		return nil, err
	}
	var res runResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// runAll runs every workload untraced and, with trace, traced as well.
func runAll(seed int64, seconds float64, trace bool) ([]*runResult, error) {
	var out []*runResult
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && !trace {
				continue
			}
			res, err := runChild(w.name, seed, seconds, traced)
			if err != nil {
				return out, err
			}
			if !res.Correct {
				return out, fmt.Errorf("workload %s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
			}
			out = append(out, res)
		}
	}
	return out, nil
}

// selfCheck runs two full untraced sets of the same binary and prints,
// per end-to-end metric and workload, both values, their relative
// difference and the bound. It fails if the second set is worse than
// the first by more than a bound.
//
// The two runs of a workload are made back to back, after one discarded
// run: timings follow the filesystem's state (see the README), which
// moves over minutes and moves most while a fresh directory tree sees
// its first thousands of creations and deletions.
func selfCheck(seed int64, seconds float64) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark: selfcheck:", err)
		return 1
	}
	if _, err := runChild(workloads[0].name, seed, seconds, false); err != nil {
		return fail(err)
	}
	var sets [2][]*runResult
	for _, w := range workloads {
		for i := range sets {
			res, err := runChild(w.name, seed, seconds, false)
			if err != nil {
				return fail(err)
			}
			if !res.Correct {
				return fail(fmt.Errorf("workload %s: %d of %d operations failed", w.name, res.Failed, res.Attempted))
			}
			sets[i] = append(sets[i], res)
		}
	}
	fmt.Printf("== selfcheck: two sets of the same code, seed %d\n", seed)
	fmt.Printf("  %-16s %-24s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	bad := 0
	for w := range sets[0] {
		for _, d := range endToEnd {
			a, b := sets[0][w].Metrics[d.Name].Value, sets[1][w].Metrics[d.Name].Value
			worse := worseBy(d, a, b)
			mark := ""
			if worse > d.Bound {
				mark = "  EXCEEDED"
				bad++
			}
			fmt.Printf("  %-16s %-24s %14.6g %14.6g %8.2f%% %6.0f%%%s\n",
				sets[0][w].Workload, d.Name, a, b, worse*100, d.Bound*100, mark)
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d metric(s) differ by more than their bound\n", bad)
		return 1
	}
	fmt.Println("selfcheck: every end-to-end metric of every workload agrees within its bound")
	return 0
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worseBy(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return div(a-b, a)
	}
	return div(b-a, a)
}
