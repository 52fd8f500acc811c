package cost

import (
	"math"
	"testing"
)

func TestEgressTieredPricing(t *testing.T) {
	cases := []struct {
		gb   float64
		want float64
	}{
		{0, 0},
		{1, 0},           // first GB free
		{11, 10 * 0.120}, // 1 free + 10 billed
		{10*TB + 1, 0 + (10*TB-1)*0.120 + 1*0.090}, // crosses into the 2nd tier
	}
	for _, c := range cases {
		got := EgressMonthlyCost(c.gb, EgressTiers2014)
		if math.Abs(got-c.want) > 1e-6 {
			t.Errorf("EgressMonthlyCost(%v) = %v, want %v", c.gb, got, c.want)
		}
	}
}

func TestEgressMonotonic(t *testing.T) {
	prev := -1.0
	for gb := 0.0; gb < 600*TB; gb += 37 * TB / 2 {
		cost := EgressMonthlyCost(gb, EgressTiers2014)
		if cost < prev {
			t.Fatalf("egress cost decreased at %v GB", gb)
		}
		prev = cost
	}
}

func TestMeasuredDedupRatio(t *testing.T) {
	m := Measured{LogicalShareBytes: 4000, StoredShareBytes: 400}
	if got := m.DedupRatio(); math.Abs(got-10) > 1e-9 {
		t.Fatalf("DedupRatio = %v, want 10", got)
	}
	if got := (Measured{}).DedupRatio(); got != 0 {
		t.Fatalf("empty DedupRatio = %v, want 0", got)
	}
}

// TestAnalyzeMeasuredHealthy: a clean run — every restored byte
// downloaded exactly once, no repair — carries no degraded premium, and
// the storage side matches Analyze at the measured ratio.
func TestAnalyzeMeasuredHealthy(t *testing.T) {
	m := Measured{
		LogicalBytes:          3 << 30,
		LogicalShareBytes:     4 << 30,
		TransferredShareBytes: 2 << 30,
		StoredShareBytes:      1 << 30,
		RestoredBytes:         3 << 30,
		RestoreEgressBytes:    3 << 30,
	}
	mr, err := AnalyzeMeasured(m, 1.0, 0.10, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mr.DedupRatio-4) > 1e-9 {
		t.Fatalf("DedupRatio = %v, want 4", mr.DedupRatio)
	}
	ref, err := Analyze(Params{WeeklyBackupGB: TB, DedupRatio: 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mr.CDStoreTotalUSD-ref.CDStoreTotalUSD) > 1e-6 {
		t.Fatalf("storage side %v diverges from Analyze %v", mr.CDStoreTotalUSD, ref.CDStoreTotalUSD)
	}
	if mr.DegradedPremiumUSD > 1e-6 {
		t.Fatalf("healthy run has degraded premium %v", mr.DegradedPremiumUSD)
	}
	if mr.RestoreEgressUSD <= 0 {
		t.Fatal("restoring 10%/month must bill egress")
	}
	if mr.TotalUSD <= mr.CDStoreTotalUSD {
		t.Fatal("total must include the egress bill")
	}
	if mr.USDPerTBMonth <= 0 {
		t.Fatal("USDPerTBMonth not computed")
	}
	wantPerTB := mr.TotalUSD / (ref.LogicalGB / TB)
	if math.Abs(mr.USDPerTBMonth-wantPerTB) > 1e-9 {
		t.Fatalf("USDPerTBMonth = %v, want %v", mr.USDPerTBMonth, wantPerTB)
	}
}

// TestAnalyzeMeasuredDegradedPremium: subset retries inflate restore
// egress past the restored volume and repair adds its k-shares-per-share
// amplification; the premium must price exactly that excess.
func TestAnalyzeMeasuredDegradedPremium(t *testing.T) {
	m := Measured{
		LogicalBytes:       3 << 30,
		LogicalShareBytes:  4 << 30,
		StoredShareBytes:   2 << 30,
		RestoredBytes:      3 << 30,
		RestoreEgressBytes: 4 << 30, // extra shares fetched by §3.2 retries
		RepairEgressBytes:  2 << 30, // rebuild downloads
	}
	mr, err := AnalyzeMeasured(m, 1.0, 0.10, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if mr.DegradedPremiumUSD <= 0 {
		t.Fatal("degraded run must carry an egress premium")
	}
	if mr.RepairEgressUSD <= 0 {
		t.Fatal("repair egress not billed")
	}
	// The premium is the bill beyond the clean once-per-byte floor.
	healthy := m
	healthy.RestoreEgressBytes = healthy.RestoredBytes
	healthy.RepairEgressBytes = 0
	base, err := AnalyzeMeasured(healthy, 1.0, 0.10, Params{})
	if err != nil {
		t.Fatal(err)
	}
	wantPremium := mr.RestoreEgressUSD + mr.RepairEgressUSD - base.RestoreEgressUSD
	if math.Abs(mr.DegradedPremiumUSD-wantPremium) > 1e-6 {
		t.Fatalf("premium %v, want %v", mr.DegradedPremiumUSD, wantPremium)
	}
	if mr.TotalUSD <= base.TotalUSD {
		t.Fatal("degraded total must exceed healthy total")
	}
}

// TestAnalyzeMeasuredRatioClamp: a pathological run that stored more
// than its logical share volume still prices at ratio 1, never cheaper.
func TestAnalyzeMeasuredRatioClamp(t *testing.T) {
	m := Measured{
		LogicalShareBytes: 1 << 30,
		StoredShareBytes:  2 << 30,
		RestoredBytes:     1 << 30,
	}
	mr, err := AnalyzeMeasured(m, 1.0, 0, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if mr.DedupRatio != 1 {
		t.Fatalf("ratio clamped to %v, want 1", mr.DedupRatio)
	}
	if mr.RestoreEgressUSD != 0 || mr.DegradedPremiumUSD != 0 {
		t.Fatal("zero restore fraction must bill zero egress")
	}
}
