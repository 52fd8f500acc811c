package main

import (
	"math"
	"sort"
)

// metricDef names one metric. BENCHMARK.json lists the same names; a
// test holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	Bound float64
	// Moves says, for a per-layer metric, which end-to-end metric it is
	// predicted to move and on which workload.
	Moves string
	Help  string
}

// endToEnd is what a backup operator sees. Every workload reports every
// one of them. failed operations are not a metric here: the result line
// carries them as attempted/failed, and the table prints
// failed_ops_frac from those.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Help: "input generation + cluster/gateway start + one untimed warm-up backup+restore; median over every set-up of the run"},
	{Name: "backup_mbps", Unit: "MiB/s", Better: "higher", Bound: 0.25,
		Help: "logical MiB backed up / wall of the backup phase, which ends after Server.Flush on every cloud"},
	{Name: "restore_mbps", Unit: "MiB/s", Better: "higher", Bound: 0.25,
		Help: "SHA-256-verified logical MiB / wall of the restore phase (k clouds, parity decode, on degraded_repair)"},
	{Name: "repair_mbps", Unit: "MiB/s", Better: "higher", Bound: 0.25,
		Help: "logical MiB of backups rebuilt on the replaced cloud / wall of the repair phase"},
	{Name: "wire_up_per_logical", Unit: "ratio", Better: "lower", Bound: 0.02,
		Help: "bytes written client->clouds during the backup phase, counted at the wrapped net.Conn / logical bytes"},
	{Name: "wire_down_per_restored", Unit: "ratio", Better: "lower", Bound: 0.02,
		Help: "bytes read from the clouds during the restore phase / bytes restored: billed egress"},
	{Name: "stored_per_logical", Unit: "ratio", Better: "lower", Bound: 0.02,
		Help: "backend bytes after the backup phase's flush, recipes included / logical bytes"},
	{Name: "repair_read_amp", Unit: "ratio", Better: "lower", Bound: 0.02,
		Help: "share bytes downloaded / share bytes re-uploaded during repair (= k today)"},
	{Name: "usd_per_tb_month", Unit: "USD", Better: "lower", Bound: 0.02,
		Help: "cost.AnalyzeMeasured on the measured volumes, 1 TB/week, 5% restored per month"},
	{Name: "cpu_s_per_gib", Unit: "s/GiB", Better: "lower", Bound: 0.25,
		Help: "process user+sys seconds over backup+restore / logical GiB (client, four servers and the generator share the process)"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.20,
		Help: "VmHWM of the process at the end of the run; inputs are streamed, not held"},
}

const (
	perGiB = "s/GiB"
	count  = "count"
	ratio  = "ratio"
)

// perLayer is the budget: one group per module. Every workload reports
// every one; a layer a workload bypasses reports 0, which is the
// prediction the bypass makes.
var perLayer = []metricDef{
	// chunker
	{Name: "chunker.busy_s_per_gib", Unit: perGiB, Better: "lower", Moves: "backup_mbps on unique_cold (Rabin) and degraded_repair (FastCDC); 0 on fsl_weekly, vm_fleet"},
	{Name: "chunker.avg_chunk_bytes", Unit: "B", Better: "higher", Moves: "per-secret fixed costs everywhere the chunker runs"},
	// core / aont / reedsolomon / metadata
	{Name: "core.split_s_per_gib", Unit: perGiB, Better: "lower", Moves: "backup_mbps, cpu_s_per_gib everywhere; largest share on fsl_weekly"},
	{Name: "core.combine_s_per_gib", Unit: perGiB, Better: "lower", Moves: "restore_mbps on all but degraded_repair"},
	{Name: "core.combine_degraded_s_per_gib", Unit: perGiB, Better: "lower", Moves: "restore_mbps on degraded_repair; repair_mbps everywhere"},
	{Name: "core.split_allocs_per_secret", Unit: count, Better: "lower", Moves: "cpu_s_per_gib, peak_rss_mb on vm_fleet"},
	{Name: "core.combine_allocs_per_secret", Unit: count, Better: "lower", Moves: "cpu_s_per_gib on vm_fleet"},
	{Name: "aont.package_s_per_gib", Unit: perGiB, Better: "lower", Moves: "backup_mbps everywhere (inside core.split)"},
	{Name: "aont.unpack_s_per_gib", Unit: perGiB, Better: "lower", Moves: "restore_mbps everywhere (inside core.combine)"},
	{Name: "reedsolomon.encode_s_per_gib", Unit: perGiB, Better: "lower", Moves: "backup_mbps everywhere (inside core.split)"},
	{Name: "reedsolomon.reconstruct_s_per_gib", Unit: perGiB, Better: "lower", Moves: "restore_mbps on degraded_repair; repair_mbps everywhere"},
	{Name: "metadata.fingerprint_s_per_gib", Unit: perGiB, Better: "lower", Moves: "backup_mbps, cpu_s_per_gib everywhere: all n shares, paid by the client and again by the server"},
	// protocol
	{Name: "protocol.put_frame_s_per_gib", Unit: perGiB, Better: "lower", Moves: "backup_mbps on unique_cold; cpu_s_per_gib on vm_fleet"},
	{Name: "protocol.allocs_per_msg", Unit: count, Better: "lower", Moves: "cpu_s_per_gib on vm_fleet"},
	// client
	{Name: "client.connect_ms_p50", Unit: "ms", Better: "lower", Moves: "backup_mbps on vm_fleet (one session per image per week)"},
	{Name: "client.backup_file_s_p50", Unit: "s", Better: "lower", Moves: "backup_mbps"},
	{Name: "client.backup_file_s_p90", Unit: "s", Better: "lower", Moves: "backup_mbps; a tail estimate only where samples >= 100 (vm_fleet)"},
	{Name: "client.backup_file_samples", Unit: count, Better: "higher", Moves: "none: the sample count behind the two rows above"},
	{Name: "client.restore_file_s_p50", Unit: "s", Better: "lower", Moves: "restore_mbps"},
	{Name: "client.restore_file_s_p90", Unit: "s", Better: "lower", Moves: "restore_mbps; a tail estimate only where samples >= 100 (vm_fleet)"},
	{Name: "client.restore_file_samples", Unit: count, Better: "higher", Moves: "none: the sample count behind the two rows above"},
	{Name: "client.wire_writes_per_secret", Unit: count, Better: "lower", Moves: "backup_mbps on vm_fleet"},
	{Name: "client.wire_reads_per_secret", Unit: count, Better: "lower", Moves: "restore_mbps on vm_fleet"},
	{Name: "client.wire_write_wait_s_per_gib", Unit: perGiB, Better: "lower", Moves: "backup_mbps on unique_cold"},
	{Name: "client.wire_read_wait_s_per_gib", Unit: perGiB, Better: "lower", Moves: "backup_mbps on fsl_weekly (query round trips); restore_mbps everywhere"},
	{Name: "client.intra_user_saving", Unit: ratio, Better: "higher", Moves: "wire_up_per_logical"},
	{Name: "client.shares_sent_per_secret", Unit: count, Better: "lower", Moves: "wire_up_per_logical"},
	{Name: "client.restore_cache_hit_frac", Unit: ratio, Better: "higher", Moves: "wire_down_per_restored on the trace workloads"},
	{Name: "client.subset_retries", Unit: count, Better: "lower", Moves: "restore_mbps, wire_down_per_restored (0 on healthy data)"},
	{Name: "client.failovers", Unit: count, Better: "lower", Moves: "restore_mbps (0 on healthy data)"},
	// gateway
	{Name: "gateway.sessions", Unit: count, Better: "higher", Moves: "none: vm_fleet only, 0 elsewhere"},
	{Name: "gateway.upstream_dials", Unit: count, Better: "lower", Moves: "backup_mbps, restore_mbps on vm_fleet"},
	{Name: "gateway.relayed_per_session", Unit: count, Better: "lower", Moves: "backup_mbps, restore_mbps on vm_fleet"},
	{Name: "gateway.relay_us_per_msg", Unit: "us", Better: "lower", Moves: "backup_mbps, restore_mbps on vm_fleet only"},
	// server
	{Name: "server.query_us_per_fp", Unit: "us", Better: "lower", Moves: "backup_mbps on fsl_weekly"},
	{Name: "server.put_us_per_share", Unit: "us", Better: "lower", Moves: "backup_mbps on unique_cold (store) and vm_fleet (dedup hit)"},
	{Name: "server.get_us_per_share", Unit: "us", Better: "lower", Moves: "restore_mbps everywhere; repair_mbps"},
	{Name: "server.put_allocs_per_share", Unit: count, Better: "lower", Moves: "cpu_s_per_gib on vm_fleet"},
	{Name: "server.inter_user_dedup_frac", Unit: ratio, Better: "higher", Moves: "stored_per_logical on vm_fleet"},
	{Name: "server.intra_hit_frac", Unit: ratio, Better: "higher", Moves: "wire_up_per_logical on fsl_weekly"},
	{Name: "server.bytes_served_per_restored", Unit: ratio, Better: "lower", Moves: "wire_down_per_restored"},
	// index (lsmkv folded in)
	{Name: "index.reserve_commit_us_per_share", Unit: "us", Better: "lower", Moves: "backup_mbps on unique_cold"},
	{Name: "index.lookup_us_per_share", Unit: "us", Better: "lower", Moves: "restore_mbps on the direct-connection workloads"},
	{Name: "index.owned_us_per_fp", Unit: "us", Better: "lower", Moves: "backup_mbps on fsl_weekly"},
	{Name: "index.wal_syncs_per_kshare", Unit: count, Better: "lower", Moves: "backup_mbps on unique_cold (0 while the index WAL is never fsynced)"},
	{Name: "index.sstables_per_shard", Unit: count, Better: "lower", Moves: "backup_mbps on fsl_weekly; restore_mbps on the direct-connection workloads"},
	// container / storage
	{Name: "container.add_s_per_gib", Unit: perGiB, Better: "lower", Moves: "backup_mbps on unique_cold; none on vm_fleet"},
	{Name: "container.get_us_per_entry", Unit: "us", Better: "lower", Moves: "restore_mbps, repair_mbps"},
	{Name: "container.cache_hit_frac", Unit: ratio, Better: "higher", Moves: "restore_mbps, repair_mbps"},
	{Name: "storage.put_calls_per_gib", Unit: count, Better: "lower", Moves: "backup_mbps on unique_cold"},
	{Name: "storage.put_s_per_gib", Unit: perGiB, Better: "lower", Moves: "backup_mbps on unique_cold; none on vm_fleet"},
	{Name: "storage.get_s_per_gib", Unit: perGiB, Better: "lower", Moves: "restore_mbps, repair_mbps"},
	{Name: "storage.get_bytes_per_served_byte", Unit: ratio, Better: "lower", Moves: "restore_mbps: whole-container reads per share served"},
	// scrub
	{Name: "scrub.pass_s_per_gib", Unit: perGiB, Better: "lower", Moves: "none today: the baseline for budgeted-scrub work"},
	// runtime / budget
	{Name: "runtime.allocs_per_secret_backup", Unit: count, Better: "lower", Moves: "cpu_s_per_gib, peak_rss_mb; most on vm_fleet"},
	{Name: "runtime.allocs_per_secret_restore", Unit: count, Better: "lower", Moves: "cpu_s_per_gib, peak_rss_mb; most on vm_fleet"},
	{Name: "runtime.gc_cpu_frac", Unit: ratio, Better: "lower", Moves: "cpu_s_per_gib"},
	{Name: "runtime.open_fds_peak", Unit: count, Better: "lower", Moves: "failed operations once the descriptor limit is near"},
	{Name: "harness.input_s_per_gib", Unit: perGiB, Better: "lower", Moves: "none: the benchmark's own generators and verifying sinks, part of cpu_s_per_gib"},
	{Name: "budget.backup_cpu_attributed_frac", Unit: ratio, Better: "higher", Moves: "none: replayed layer seconds / live backup CPU seconds; the rest is glue"},
	{Name: "budget.restore_cpu_attributed_frac", Unit: ratio, Better: "higher", Moves: "none: replayed layer seconds / live restore CPU seconds"},
	{Name: "trace.overhead_frac", Unit: ratio, Better: "lower", Moves: "none: traced vs untraced wall of the timed phases"},
}

// percentile is the nearest-rank percentile of samples (p in 0..100);
// 0 for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailResolved reports whether percentile p of n samples has at least
// ten samples beyond it — the rule for calling it a tail estimate.
func tailResolved(n int, p float64) bool {
	return float64(n)*(100-p) >= 1000
}

// median of the per-round values of one metric.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
