package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"cdstore/internal/gf256"
)

// runConfig is one invocation on one workload.
type runConfig struct {
	spec    workloadSpec
	sz      sizing
	seed    int64
	seconds float64
	trace   bool
	// minRounds is the least number of rounds whatever seconds says:
	// set-up time is reported as a median and needs several set-ups. A
	// traced run makes its rounds in pairs, untraced then traced.
	minRounds int
	// extraSetups is how many set-ups an untraced run makes beyond the
	// one of each round.
	extraSetups int
	// traceDir is where <workload>.trace.json goes.
	traceDir string
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one invocation reports.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Rounds    int                    `json:"rounds"`
	TimedS    float64                `json:"timed_s"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Meta      map[string]string      `json:"meta"`

	budget []budgetRow
	// seams aggregates the spans of the traced rounds by name; seamGiB
	// is the logical volume those rounds backed up.
	seams   map[string]layerTime
	seamGiB float64
}

// medianOf is the median over the rounds of one per-round value.
func medianOf(rounds []*roundResult, f func(*roundResult) float64) float64 {
	v := make([]float64, len(rounds))
	for i, r := range rounds {
		v[i] = f(r)
	}
	return median(v)
}

func mib(n int64) float64 { return float64(n) / (1 << 20) }

func (r *roundResult) timedS() float64 { return r.backup.wallS + r.restore.wallS + r.repair.wallS }

// endToEndValues computes the end-to-end metrics from untraced rounds.
func endToEndValues(rounds []*roundResult) map[string]float64 {
	return map[string]float64{
		"backup_mbps":            medianOf(rounds, func(r *roundResult) float64 { return div(mib(r.logical()), r.backup.wallS) }),
		"restore_mbps":           medianOf(rounds, func(r *roundResult) float64 { return div(mib(r.restored()), r.restore.wallS) }),
		"repair_mbps":            medianOf(rounds, func(r *roundResult) float64 { return div(mib(r.repaired), r.repair.wallS) }),
		"wire_up_per_logical":    medianOf(rounds, func(r *roundResult) float64 { return div(float64(r.wireBackup.upBytes), float64(r.logical())) }),
		"wire_down_per_restored": medianOf(rounds, func(r *roundResult) float64 { return div(float64(r.wireRestore.downBytes), float64(r.restored())) }),
		"stored_per_logical":     medianOf(rounds, func(r *roundResult) float64 { return div(float64(r.storedBytes), float64(r.logical())) }),
		"repair_read_amp":        medianOf(rounds, func(r *roundResult) float64 { return div(float64(r.repairRS.DownloadedBytes), float64(r.reupload)) }),
		"usd_per_tb_month":       medianOf(rounds, func(r *roundResult) float64 { return r.usdPerTBMonth }),
		"cpu_s_per_gib":          medianOf(rounds, func(r *roundResult) float64 { return div(r.backup.cpuS+r.restore.cpuS, gib(r.logical())) }),
		"peak_rss_mb":            peakRSSMiB(),
	}
}

// peakRSSMiB reads the process high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// liveLayerValues computes the per-layer metrics the live rounds give:
// seam counts and waits from the traced rounds, allocation counts from
// the untraced ones (spans allocate).
func liveLayerValues(traced, untraced []*roundResult) map[string]float64 {
	m := make(map[string]float64)
	var connect, backupFile, restoreFile []float64
	for _, r := range traced {
		connect = append(connect, r.connectMs...)
		backupFile = append(backupFile, r.backupFileS...)
		restoreFile = append(restoreFile, r.restoreFileS...)
	}
	m["client.connect_ms_p50"] = percentile(connect, 50)
	m["client.backup_file_s_p50"] = percentile(backupFile, 50)
	m["client.backup_file_s_p90"] = percentile(backupFile, 90)
	m["client.backup_file_samples"] = float64(len(backupFile))
	m["client.restore_file_s_p50"] = percentile(restoreFile, 50)
	m["client.restore_file_s_p90"] = percentile(restoreFile, 90)
	m["client.restore_file_samples"] = float64(len(restoreFile))

	med := func(f func(*roundResult) float64) float64 { return medianOf(traced, f) }
	m["client.wire_writes_per_secret"] = med(func(r *roundResult) float64 { return div(float64(r.wireBackup.writes), float64(r.secrets())) })
	m["client.wire_reads_per_secret"] = med(func(r *roundResult) float64 { return div(float64(r.wireRestore.reads), float64(r.rs.Secrets)) })
	m["client.wire_write_wait_s_per_gib"] = med(func(r *roundResult) float64 { return div(float64(r.wireBackup.writeNs)/1e9, gib(r.logical())) })
	m["client.wire_read_wait_s_per_gib"] = med(func(r *roundResult) float64 {
		return div(float64(r.wireBackup.readNs+r.wireRestore.readNs)/1e9, gib(r.logical()))
	})
	m["client.intra_user_saving"] = med(func(r *roundResult) float64 { return r.bs.IntraUserSaving() })
	m["client.shares_sent_per_secret"] = med(func(r *roundResult) float64 { return div(float64(r.bs.SharesSent), float64(r.secrets())) })
	m["client.restore_cache_hit_frac"] = med(func(r *roundResult) float64 {
		return div(float64(r.rs.CacheHitBytes), float64(r.rs.CacheHitBytes+r.rs.DownloadedBytes))
	})
	m["client.subset_retries"] = med(func(r *roundResult) float64 { return float64(r.rs.SubsetRetries + r.repairRS.SubsetRetries) })
	m["client.failovers"] = med(func(r *roundResult) float64 { return float64(r.rs.Failovers + r.repairRS.Failovers) })

	m["gateway.sessions"] = med(func(r *roundResult) float64 { return float64(r.gwSessions) })
	m["gateway.upstream_dials"] = med(func(r *roundResult) float64 { return float64(r.gwDials) })
	m["gateway.relayed_per_session"] = med(func(r *roundResult) float64 { return div(float64(r.gwRelayed), float64(r.gwSessions)) })

	m["server.inter_user_dedup_frac"] = med(func(r *roundResult) float64 {
		return 1 - div(float64(r.srvBackup.SharesStored), float64(r.srvBackup.SharesReceived))
	})
	m["server.intra_hit_frac"] = med(func(r *roundResult) float64 {
		return div(float64(r.srvBackup.IntraHits), float64(r.srvBackup.IntraQueries))
	})
	m["server.bytes_served_per_restored"] = med(func(r *roundResult) float64 { return div(float64(r.srvRestore.BytesServed), float64(r.restored())) })

	m["index.sstables_per_shard"] = med(func(r *roundResult) float64 { return r.sstablesPerShard })

	m["storage.put_calls_per_gib"] = med(func(r *roundResult) float64 { return div(float64(r.beBackup.putCalls), gib(r.logical())) })
	m["storage.put_s_per_gib"] = med(func(r *roundResult) float64 { return div(float64(r.beBackup.putNs)/1e9, gib(r.logical())) })
	m["storage.get_s_per_gib"] = med(func(r *roundResult) float64 { return div(float64(r.beRestore.getNs)/1e9, gib(r.restored())) })
	m["storage.get_bytes_per_served_byte"] = med(func(r *roundResult) float64 {
		return div(float64(r.beRestore.getBytes), float64(r.srvRestore.BytesServed))
	})

	m["scrub.pass_s_per_gib"] = med(func(r *roundResult) float64 { return div(r.scrubS, gib(r.logical())) })
	m["harness.input_s_per_gib"] = med(func(r *roundResult) float64 {
		return div(float64(r.inputBackupNs+r.inputRestoreNs)/1e9, gib(r.logical()))
	})

	m["runtime.allocs_per_secret_backup"] = medianOf(untraced, func(r *roundResult) float64 { return div(float64(r.backup.mallocs), float64(r.secrets())) })
	m["runtime.allocs_per_secret_restore"] = medianOf(untraced, func(r *roundResult) float64 { return div(float64(r.restore.mallocs), float64(r.rs.Secrets)) })
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["runtime.gc_cpu_frac"] = ms.GCCPUFraction
	for _, rounds := range [][]*roundResult{traced, untraced} {
		for _, r := range rounds {
			m["runtime.open_fds_peak"] = math.Max(m["runtime.open_fds_peak"], float64(r.openFDsPeak))
		}
	}
	m["trace.overhead_frac"] = div(medianOf(traced, (*roundResult).timedS), medianOf(untraced, (*roundResult).timedS)) - 1
	return m
}

// budgetRow is one line of the budget table: a layer's replayed busy
// seconds per logical GiB of this workload, and what share of the live
// phase's CPU seconds that is.
type budgetRow struct {
	phase, layer string
	sPerGiB      float64
	share        float64
}

// budget attributes the live CPU seconds of the backup and restore
// phases to the replayed layers. Rows are per logical GiB of the
// workload's own inputs, so they compare with 1024/backup_mbps and
// cpu_s_per_gib. What the rows do not cover is glue: channels,
// syscalls, scheduling, GC.
func budget(spec workloadSpec, m map[string]float64, rep *replayResult, rec *roundResult, untraced []*roundResult) []budgetRow {
	liveBackup := medianOf(untraced, func(r *roundResult) float64 { return div(r.backup.cpuS, gib(r.logical())) })
	liveRestore := medianOf(untraced, func(r *roundResult) float64 { return div(r.restore.cpuS, gib(r.logical())) })
	// Only shares that survive intra-user dedup are framed and sent.
	sent := 1 - m["client.intra_user_saving"]
	// The recorded cloud is one of n on backup and one of the k that
	// serve a restore.
	g := gib(rec.logical())
	combine := m["core.combine_s_per_gib"]
	if spec.degraded {
		combine = m["core.combine_degraded_s_per_gib"]
	}
	rows := []budgetRow{
		{phase: "backup", layer: "chunker", sPerGiB: m["chunker.busy_s_per_gib"]},
		{phase: "backup", layer: "core.split (aont+reedsolomon inside)", sPerGiB: m["core.split_s_per_gib"]},
		{phase: "backup", layer: "metadata.fingerprint (client, n shares)", sPerGiB: m["metadata.fingerprint_s_per_gib"]},
		{phase: "backup", layer: "protocol.put_frame (sent shares)", sPerGiB: m["protocol.put_frame_s_per_gib"] * sent},
		{phase: "backup", layer: "server x n (query+put+recipe+bye; index, container, storage inside)", sPerGiB: div(rep.serverBackupS*cloudsN, g)},
		{phase: "backup", layer: "harness inputs (generator + sha256)", sPerGiB: div(float64(rec.inputBackupNs)/1e9, g)},
		{phase: "restore", layer: "core.combine", sPerGiB: combine},
		{phase: "restore", layer: "server x k (recipe+get; index, container, storage inside)", sPerGiB: div(rep.serverRestoreS*cloudsK, g)},
		{phase: "restore", layer: "harness outputs (sha256 of restored bytes)", sPerGiB: div(float64(rec.inputRestoreNs)/1e9, g)},
	}
	var backupSum, restoreSum float64
	for i := range rows {
		live := liveBackup
		if rows[i].phase == "restore" {
			live = liveRestore
		}
		rows[i].share = div(rows[i].sPerGiB, live)
		if strings.HasPrefix(rows[i].layer, "harness") {
			continue // shown, but the harness is not a layer of the program
		}
		if rows[i].phase == "backup" {
			backupSum += rows[i].sPerGiB
		} else {
			restoreSum += rows[i].sPerGiB
		}
	}
	m["budget.backup_cpu_attributed_frac"] = div(backupSum, liveBackup)
	m["budget.restore_cpu_attributed_frac"] = div(restoreSum, liveRestore)
	rows = append(rows,
		budgetRow{phase: "backup", layer: "live process CPU", sPerGiB: liveBackup, share: 1},
		budgetRow{phase: "restore", layer: "live process CPU", sPerGiB: liveRestore, share: 1},
	)
	return rows
}

// run measures one workload. Untraced: rounds until the timed phases
// add up to cfg.seconds. Traced: pairs of an untraced and a traced
// round (their difference is the tracing overhead), then the layer
// replay.
func run(cfg runConfig) (*runResult, error) {
	res := &runResult{
		Workload: cfg.spec.name, Seed: cfg.seed, Trace: cfg.trace,
		Metrics: make(map[string]metricValue),
		Meta: map[string]string{
			"gf256_kernel": gf256.New().Kernel(),
			"gomaxprocs":   strconv.Itoa(runtime.GOMAXPROCS(0)),
			"users":        strconv.Itoa(cfg.spec.users),
			"n,k":          fmt.Sprintf("%d,%d", cloudsN, cloudsK),
		},
	}
	ops := &runState{}
	defer ops.removeDirs()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var untraced, traced []*roundResult
	var runErr error
	for round := 0; len(untraced)+len(traced) < cfg.minRounds || res.TimedS < cfg.seconds; round++ {
		r, err := runRound(cfg.spec, cfg.sz, cfg.seed, round, nil, false, ops)
		if err != nil {
			runErr = err
			break
		}
		untraced = append(untraced, r)
		res.TimedS += r.timedS()

		if !cfg.trace {
			continue
		}
		// Only the first traced round's request stream is kept for the
		// server replay: it is the recorded cloud's whole upload volume.
		r, err = runRound(cfg.spec, cfg.sz, cfg.seed, round, tr, len(traced) == 0, ops)
		if err != nil {
			runErr = err
			break
		}
		traced = append(traced, r)
		res.TimedS += r.timedS()
	}
	res.Rounds = len(untraced) + len(traced)
	res.Attempted, res.Failed = ops.attempted.Load(), ops.failed.Load()
	res.Correct = runErr == nil && res.Failed == 0
	if runErr != nil {
		return res, runErr
	}

	if !cfg.trace {
		v := endToEndValues(untraced)
		// Set-up is cheap next to a round, so it is sampled more often
		// than once a round: the median is over all of them.
		setups := make([]float64, 0, len(untraced)+cfg.extraSetups)
		for _, r := range untraced {
			setups = append(setups, r.setupS)
		}
		for i := 0; i < cfg.extraSetups; i++ {
			s, err := setUpOnly(cfg.spec, cfg.sz, cfg.seed, len(untraced)+i, ops)
			if err != nil {
				res.Correct = false
				return res, err
			}
			setups = append(setups, s)
		}
		v["setup_s"] = median(setups)
		res.Attempted, res.Failed = ops.attempted.Load(), ops.failed.Load()
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metricValue{Value: v[d.Name], Unit: d.Unit}
		}
		return res, nil
	}

	m := liveLayerValues(traced, untraced)
	rep, err := replay(cfg.spec, cfg.sz, cfg.seed, traced[0].recorded)
	if err != nil {
		res.Correct = false
		return res, fmt.Errorf("layer replay: %w", err)
	}
	for k, v := range rep.m {
		m[k] = v
	}
	res.budget = budget(cfg.spec, m, rep, traced[0], untraced)
	res.seams = aggregate(tr.spans)
	for _, r := range traced {
		res.seamGiB += gib(r.logical())
	}
	for _, d := range perLayer {
		res.Metrics[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	path := filepath.Join(cfg.traceDir, cfg.spec.name+".trace.json")
	if err := tr.write(path, cfg.spec.name, cfg.seed, res.Meta); err != nil {
		return res, fmt.Errorf("trace file: %w", err)
	}
	res.Meta["trace_file"] = path
	return res, nil
}

// printResult writes the human-readable tables: every metric by name
// with its unit, then (traced) the budget table.
func printResult(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "== %s  seed %d  %d rounds  %.1f s timed  kernel %s\n",
		res.Workload, res.Seed, res.Rounds, res.TimedS, res.Meta["gf256_kernel"])
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		mv, ok := res.Metrics[d.Name]
		if !ok {
			continue
		}
		note := d.Help
		if res.Trace {
			note = "-> " + d.Moves
		}
		if strings.HasSuffix(d.Name, "_p90") {
			n := int(res.Metrics[strings.TrimSuffix(d.Name, "s_p90")+"samples"].Value)
			if !tailResolved(n, 90) {
				note = fmt.Sprintf("(n=%d < 100: not a tail estimate) ", n) + note
			}
		}
		fmt.Fprintf(w, "  %-38s %14.6g %-6s  %s\n", d.Name, mv.Value, mv.Unit, note)
	}
	fmt.Fprintf(w, "  %-38s %14.6g %-6s (%d of %d operations)\n", "failed_ops_frac",
		div(float64(res.Failed), float64(res.Attempted)), "ratio", res.Failed, res.Attempted)
	if len(res.budget) == 0 {
		return
	}
	fmt.Fprintf(w, "  -- seams of the live traced rounds: spans by name; self = span minus the union of its children\n")
	names := make([]string, 0, len(res.seams))
	for name := range res.seams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := res.seams[name]
		fmt.Fprintf(w, "  %-16s %8d spans  busy %9.4f s/GiB  self %9.4f s/GiB\n",
			name, a.Count, div(float64(a.BusyNs)/1e9, res.seamGiB), div(float64(a.SelfNs)/1e9, res.seamGiB))
	}
	fmt.Fprintf(w, "  -- budget: replayed busy seconds per logical GiB, and share of the live phase's CPU\n")
	for _, b := range res.budget {
		fmt.Fprintf(w, "  %-8s %-72s %9.4f s/GiB %6.1f%%\n", b.phase, b.layer, b.sPerGiB, b.share*100)
	}
	fmt.Fprintf(w, "  attributed: backup %.1f%%  restore %.1f%%  (the rest is glue: channels, syscalls, scheduling, GC)  trace overhead %.1f%%\n",
		res.Metrics["budget.backup_cpu_attributed_frac"].Value*100,
		res.Metrics["budget.restore_cpu_attributed_frac"].Value*100,
		res.Metrics["trace.overhead_frac"].Value*100)
}
