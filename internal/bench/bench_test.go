package bench

import (
	"testing"

	"cdstore/internal/workload"
)

// raceEnabled reports whether the race detector is compiled in
// (race_test.go sets it). Timing assertions consult it: race
// instrumentation slows Go code far more than the assembly it calls.
var raceEnabled bool

func TestTable1ShapesHold(t *testing.T) {
	rows, err := Table1(4, 3, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Name] = r
		// Measured blowup tracks the analytic formula within 2% + padding.
		if r.MeasuredBlowup < r.AnalyticBlowup-0.01 || r.MeasuredBlowup > r.AnalyticBlowup*1.02+0.02 {
			t.Errorf("%s: measured %.4f vs analytic %.4f", r.Name, r.MeasuredBlowup, r.AnalyticBlowup)
		}
	}
	// Table 1 ordering: SSSS blows up n, IDA n/k, others in between.
	if byName["SSSS"].MeasuredBlowup <= byName["SSMS"].MeasuredBlowup {
		t.Error("SSSS must have the largest blowup")
	}
	if byName["IDA"].MeasuredBlowup > byName["AONT-RS"].MeasuredBlowup {
		t.Error("IDA must have the smallest blowup")
	}
	if byName["IDA"].R != 0 || byName["SSSS"].R != 2 || byName["CAONT-RS"].R != 2 {
		t.Error("confidentiality degrees wrong")
	}
}

func TestEncodingSpeedVsThreadsShape(t *testing.T) {
	// §5.3's headline: CAONT-RS encodes faster than CAONT-RS-Rivest
	// (bulk AES-CTR vs per-word AES). `go test ./...` runs packages
	// concurrently, so wall-clock speeds are noisy; measuring the two
	// schemes ADJACENTLY and comparing the per-repetition ratio makes
	// the comparison robust to load that shifts both equally, and the
	// best ratio over repetitions discards asymmetric spikes.
	secrets, err := chunkRandomData(8, 53)
	if err != nil {
		t.Fatal(err)
	}
	schemes, err := encodeSchemes(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	caontrs, rivest := schemes[0], schemes[2]
	bestRatio := 0.0
	for rep := 0; rep < 5; rep++ {
		dFast, err := encodeAll(caontrs, secrets, 2)
		if err != nil {
			t.Fatal(err)
		}
		dSlow, err := encodeAll(rivest, secrets, 2)
		if err != nil {
			t.Fatal(err)
		}
		if ratio := dSlow.Seconds() / dFast.Seconds(); ratio > bestRatio {
			bestRatio = ratio
		}
	}
	// The paper reports +54-61%; ground truth on this host is ~+55%.
	// Require any speedup at all to fail only on real regressions.
	if bestRatio <= 1.0 {
		t.Errorf("CAONT-RS never beat CAONT-RS-Rivest (best ratio %.2f); OAEP advantage lost", bestRatio)
	}
}

func TestEncodingSpeedVsNShape(t *testing.T) {
	if raceEnabled {
		// Race instrumentation slows the GF(2^8) kernels ~100x while AES
		// and SHA (assembly) keep their speed, which inflates the RS share
		// of the cost and sinks the n=8/n=4 ratio below any threshold that
		// is meaningful uninstrumented.
		t.Skip("timing-shape assertion skipped under the race detector")
	}
	rows, err := EncodingSpeedVsN(6, 2, []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	var caontrs4, caontrs8 float64
	for _, r := range rows {
		if r.Scheme == "CAONT-RS" && r.N == 4 {
			caontrs4 = r.MBps
		}
		if r.Scheme == "CAONT-RS" && r.N == 8 {
			caontrs8 = r.MBps
		}
	}
	if caontrs4 == 0 || caontrs8 == 0 {
		t.Fatal("missing rows")
	}
	// The paper sees only ~8% decline from n=4 to n=20 because
	// GF-Complete's SIMD Galois arithmetic makes RS nearly free; our
	// table-driven pure-Go GF(2^8) makes RS cost visible, so the decline
	// is steeper (documented in EXPERIMENTS.md). Still: encoding must not
	// collapse.
	if caontrs8 < caontrs4*0.30 {
		t.Errorf("n=8 speed %.0f less than 30%% of n=4 speed %.0f", caontrs8, caontrs4)
	}
}

func TestDedupEfficiencyRows(t *testing.T) {
	rows, err := DedupEfficiency(
		workload.FSLConfig{Users: 4, Weeks: 4, ChunksPerUser: 400, Seed: 1},
		workload.VMConfig{Users: 10, Weeks: 4, ChunksPerImage: 300, Seed: 2},
		4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("got %d rows, want 8 (2 datasets x 4 weeks)", len(rows))
	}
	for _, r := range rows {
		if r.Week > 1 && r.Dataset == "FSL" && r.IntraSaving < 0.90 {
			t.Errorf("FSL week %d intra %.3f < 0.90", r.Week, r.IntraSaving)
		}
		if r.CumPhysicalShares > r.CumTransferred || r.CumTransferred > r.CumLogicalShares {
			t.Errorf("volume ordering violated at %s week %d", r.Dataset, r.Week)
		}
	}
	// VM week 1 inter saving ~93%.
	for _, r := range rows {
		if r.Dataset == "VM" && r.Week == 1 {
			if r.InterSaving < 0.80 {
				t.Errorf("VM week 1 inter saving %.3f < 0.80", r.InterSaving)
			}
		}
	}
}

func TestCostRowsShapes(t *testing.T) {
	a, err := CostVsWeeklySize([]float64{1, 16, 64}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 3 || a[1].SavingVsAONTRS < 0.65 {
		t.Fatalf("16TB saving %.3f too low", a[1].SavingVsAONTRS)
	}
	if a[0].SavingVsAONTRS > a[2].SavingVsAONTRS {
		t.Error("saving should grow with weekly size")
	}
	b, err := CostVsDedupRatio([]float64{1, 10, 50}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if b[0].SavingVsAONTRS >= b[2].SavingVsAONTRS {
		t.Error("saving should grow with dedup ratio")
	}
}

func TestCloudSpeedsMatchTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("shaped transfer test skipped in -short mode")
	}
	rows, err := CloudSpeeds(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	want := map[string]float64{"Amazon": 5.87, "Google": 4.99, "Azure": 19.59, "Rackspace": 19.42}
	for _, r := range rows {
		target := want[r.Cloud]
		if r.UpMean < target*0.6 || r.UpMean > target*1.4 {
			t.Errorf("%s upload %.2f MB/s, Table 2 says %.2f", r.Cloud, r.UpMean, target)
		}
		if r.DownMean <= 0 {
			t.Errorf("%s download non-positive", r.Cloud)
		}
	}
}

func TestBaselineTransferUnshapedShape(t *testing.T) {
	// Unshaped links leave both uploads CPU-bound (encoding dominates),
	// so dup ~ unique here; the dup >> unique shape is a network effect
	// asserted on the shaped LAN testbed below.
	res, err := BaselineTransfer(TestbedUnshaped, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.UploadDupMBps < res.UploadUniqueMBps*0.7 {
		t.Errorf("dup upload %.0f MB/s much slower than unique %.0f MB/s",
			res.UploadDupMBps, res.UploadUniqueMBps)
	}
	if res.DownloadMBps <= 0 {
		t.Error("download speed non-positive")
	}
}

func TestBaselineTransferLANShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shaped transfer test skipped in -short mode")
	}
	// Figure 7(a) LAN bars: upload(dup) 149.9 > upload(uniq) 77.5 MB/s —
	// duplicate uploads skip the data transfer, so the client NIC stops
	// being the bottleneck.
	res, err := BaselineTransfer(TestbedLAN, 24)
	if err != nil {
		t.Fatal(err)
	}
	if res.UploadDupMBps <= res.UploadUniqueMBps {
		t.Errorf("LAN dup upload %.1f MB/s should exceed unique %.1f MB/s",
			res.UploadDupMBps, res.UploadUniqueMBps)
	}
	// Unique upload is bounded by ~k/n of the NIC rate (plus overheads).
	if res.UploadUniqueMBps > 110 {
		t.Errorf("unique upload %.1f MB/s exceeds the shaped NIC ceiling", res.UploadUniqueMBps)
	}
}

func TestAggregateUploadScales(t *testing.T) {
	rows, err := AggregateUpload([]int{1, 2}, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.DupAggMBps <= 0 || r.UniqueAggMBps <= 0 {
			t.Fatalf("non-positive aggregate: %+v", r)
		}
	}
}

func TestTraceDrivenTransferRuns(t *testing.T) {
	// Unshaped: both phases are CPU-bound (encoding dominates), so only
	// sanity is asserted here; the first-vs-subsequent gap is a network
	// effect checked on the shaped testbed below.
	res, err := TraceDrivenTransfer(TestbedUnshaped, 2, 150)
	if err != nil {
		t.Fatal(err)
	}
	if res.UploadFirstMBps <= 0 || res.UploadSubsqMBps <= 0 || res.DownloadMBps <= 0 {
		t.Errorf("non-positive speeds: %+v", res)
	}
}

func TestTraceDrivenTransferCloudShape(t *testing.T) {
	if testing.Short() {
		t.Skip("shaped transfer test skipped in -short mode")
	}
	// On the WAN testbed the network dominates, so intra-user dedup makes
	// subsequent backups much faster than the first (Figure 7(b)'s cloud
	// bars: 56.2 vs 6.9 MB/s).
	res, err := TraceDrivenTransfer(TestbedCloud, 2, 600)
	if err != nil {
		t.Fatal(err)
	}
	if res.UploadSubsqMBps <= res.UploadFirstMBps {
		t.Errorf("subsequent upload %.1f MB/s should exceed first %.1f MB/s on WAN",
			res.UploadSubsqMBps, res.UploadFirstMBps)
	}
}

func TestCombinedChunkEncodeSlower(t *testing.T) {
	encodeOnly, combined, err := CombinedChunkEncodeSpeed(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	// §5.3: combined chunking+encoding drops ~16%; assert it doesn't
	// somehow get faster and stays within a sane band.
	if combined > encodeOnly*1.15 {
		t.Errorf("combined %.0f faster than encode-only %.0f", combined, encodeOnly)
	}
	if combined <= 0 {
		t.Error("combined speed non-positive")
	}
}

func TestDedupAblation(t *testing.T) {
	rows, err := DedupAblation(
		workload.FSLConfig{Users: 4, Weeks: 4, ChunksPerUser: 400, Seed: 1},
		workload.VMConfig{Users: 10, Weeks: 4, ChunksPerImage: 300, Seed: 2},
		4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		// Global dedup can never transfer more than two-stage.
		if r.TransferredGlobalMB > r.TransferredTwoStageMB {
			t.Errorf("%s: global transferred more than two-stage", r.Dataset)
		}
		// Storage equals global transfer (inter-user dedup converges).
		if r.PhysicalMB != r.TransferredGlobalMB {
			t.Errorf("%s: stored %.1f != global transferred %.1f", r.Dataset, r.PhysicalMB, r.TransferredGlobalMB)
		}
	}
	// The VM dataset's huge cross-user redundancy makes the bandwidth
	// premium of two-stage dedup far larger than FSL's.
	if rows[1].ExtraTransferPct < rows[0].ExtraTransferPct {
		t.Errorf("VM premium %.1f%% should exceed FSL premium %.1f%%",
			rows[1].ExtraTransferPct, rows[0].ExtraTransferPct)
	}
}
