package cost

// Measured-volume analysis: instead of the synthetic Params knobs of
// Analyze, this path is fed the transfer volumes a real run recorded
// (the repository benchmark, benchmark/) — logical bytes backed up, shares
// actually sent over the wire after two-stage dedup, shares stored, and
// the egress the restores and repairs pulled back down. The dedup ratio
// and the egress bill are then *measurements*, not assumptions, which is
// what keeps the §5.6 cost argument honest as the code changes.

import "math"

// EgressTier is one tier of S3 internet-outbound transfer pricing.
type EgressTier struct {
	// UpToGB is the cumulative upper bound of this tier in GB
	// (math.Inf(1) for the last tier).
	UpToGB float64
	// PricePerGB is the per-GB transfer-out price in this tier (USD).
	PricePerGB float64
}

// EgressTiers2014 is S3's internet data-transfer-out pricing of
// September 2014: the first GB each month is free, then $0.12/GB up to
// 10TB, stepping down for heavier use. Inbound transfer is free (§3.1),
// which is why Analyze ignores the upload direction entirely; the
// download direction — restores and repairs — is what this table prices.
var EgressTiers2014 = []EgressTier{
	{UpToGB: 1, PricePerGB: 0},
	{UpToGB: 10 * TB, PricePerGB: 0.120},
	{UpToGB: 50 * TB, PricePerGB: 0.090},
	{UpToGB: 150 * TB, PricePerGB: 0.070},
	{UpToGB: 500 * TB, PricePerGB: 0.050},
	{UpToGB: math.Inf(1), PricePerGB: 0.040},
}

// EgressMonthlyCost returns the cost of transferring gb gigabytes out of
// the cloud in one month under tiered pricing.
func EgressMonthlyCost(gb float64, tiers []EgressTier) float64 {
	cost := 0.0
	prev := 0.0
	remaining := gb
	for _, t := range tiers {
		if remaining <= 0 {
			break
		}
		span := t.UpToGB - prev
		take := math.Min(remaining, span)
		cost += take * t.PricePerGB
		remaining -= take
		prev = t.UpToGB
	}
	return cost
}

// Measured holds the transfer volumes recorded by one benchmark run.
// All fields are bytes.
type Measured struct {
	// LogicalBytes is the pre-dedup user data backed up.
	LogicalBytes int64
	// LogicalShareBytes is the share volume before dedup
	// (logical × n/k dispersal blowup).
	LogicalShareBytes int64
	// TransferredShareBytes is the share volume actually uploaded after
	// client-side (intra-user) dedup.
	TransferredShareBytes int64
	// StoredShareBytes is the share volume retained on the clouds after
	// server-side (inter-user) dedup.
	StoredShareBytes int64
	// RestoredBytes is the logical data handed back to users by restores.
	RestoredBytes int64
	// RestoreEgressBytes is the distinct-download volume the restores
	// pulled from the clouds — under the healthy path this tracks
	// RestoredBytes (k shares reassemble one package), and it grows when
	// corruption forces brute-force k-subset retries to fetch extra
	// shares (§3.2).
	RestoreEgressBytes int64
	// RepairEgressBytes is the volume downloaded to rebuild shares on a
	// replacement cloud. Repair reads k shares per share rebuilt, so this
	// amplifies the degraded-read bill well beyond the clean-restore
	// floor.
	RepairEgressBytes int64
}

// DedupRatio is the end-to-end ratio of logical share volume to stored
// share volume (§5.4's metric, measured rather than assumed).
func (m Measured) DedupRatio() float64 {
	if m.StoredShareBytes == 0 {
		return 0
	}
	return float64(m.LogicalShareBytes) / float64(m.StoredShareBytes)
}

// MeasuredResult extends the §5.6 comparison with the egress side of the
// bill, derived from measured volumes.
type MeasuredResult struct {
	Result
	// DedupRatio is the measured ratio fed into the storage analysis.
	DedupRatio float64
	// RestoreEgressUSD and RepairEgressUSD price the month's scaled
	// download volumes.
	RestoreEgressUSD float64
	RepairEgressUSD  float64
	// DegradedPremiumUSD is the part of the egress bill above the clean
	// floor: what subset retries and repair amplification cost beyond
	// downloading each restored byte exactly once.
	DegradedPremiumUSD float64
	// TotalUSD is storage + VM + recipe + egress.
	TotalUSD float64
	// USDPerTBMonth normalizes TotalUSD by the retained logical volume.
	USDPerTBMonth float64
}

// AnalyzeMeasured runs the §5.6 analysis with the dedup ratio and egress
// volumes taken from a benchmark run instead of synthetic knobs. The
// measured run is scaled so its logical backup volume represents
// weeklyTB terabytes per week; restoreFracPerMonth is the fraction of
// the retained data restored per month (the paper's cost study covers
// backup only, i.e. 0; disaster-recovery planning uses > 0), and the
// measured egress-to-restore overhead ratios are preserved under the
// scaling.
func AnalyzeMeasured(m Measured, weeklyTB, restoreFracPerMonth float64, params Params) (MeasuredResult, error) {
	var mr MeasuredResult
	ratio := m.DedupRatio()
	if ratio < 1 {
		// A run that stored more than it ingested still prices as ratio 1
		// (dedup can only help; overhead is carried by the recipe/index
		// terms, not the share store).
		ratio = 1
	}
	p := params
	p.WeeklyBackupGB = weeklyTB * TB
	p.DedupRatio = ratio
	r, err := Analyze(p)
	if err != nil {
		return mr, err
	}
	mr.Result = r
	mr.DedupRatio = ratio

	// Scale the measured egress volumes to the deployment: the run
	// restored some fraction of its logical data with a measured
	// overhead ratio (egress / restored); the deployment restores
	// restoreFracPerMonth of its retained volume each month with the
	// same overhead.
	restoredGBMonth := r.LogicalGB * restoreFracPerMonth
	restoreOverhead := 1.0
	if m.RestoredBytes > 0 {
		restoreOverhead = float64(m.RestoreEgressBytes) / float64(m.RestoredBytes)
	}
	repairOverhead := 0.0
	if m.RestoredBytes > 0 {
		repairOverhead = float64(m.RepairEgressBytes) / float64(m.RestoredBytes)
	}
	restoreEgressGB := restoredGBMonth * restoreOverhead
	repairEgressGB := restoredGBMonth * repairOverhead

	// Each cloud bills its own tier schedule; restores spread the
	// distinct downloads evenly across the k live clouds and repair
	// across the k sources, so per-cloud volume is total/n at best —
	// using n keeps the estimate conservative (cheaper tiers engage
	// later, not sooner).
	n := float64(p.N)
	if n == 0 {
		n = 4
	}
	mr.RestoreEgressUSD = n * EgressMonthlyCost(restoreEgressGB/n, EgressTiers2014)
	mr.RepairEgressUSD = n * EgressMonthlyCost(repairEgressGB/n, EgressTiers2014)

	// The clean floor: every restored byte downloaded exactly once,
	// no repair traffic.
	floorUSD := n * EgressMonthlyCost(restoredGBMonth/n, EgressTiers2014)
	mr.DegradedPremiumUSD = mr.RestoreEgressUSD + mr.RepairEgressUSD - floorUSD
	if mr.DegradedPremiumUSD < 0 {
		mr.DegradedPremiumUSD = 0
	}

	mr.TotalUSD = r.CDStoreTotalUSD + mr.RestoreEgressUSD + mr.RepairEgressUSD
	retainedTB := r.LogicalGB / TB
	if retainedTB > 0 {
		mr.USDPerTBMonth = mr.TotalUSD / retainedTB
	}
	return mr, nil
}
