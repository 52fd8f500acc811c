package dedup

// GlobalSimulator models the naive alternative CDStore rejects (§3.3): a
// client-side *global* deduplication, where the client asks the cloud
// whether ANY user already stores a fingerprint and skips the upload if
// so. It saves more upload bandwidth than two-stage deduplication — the
// exact ablation quantified by CompareStrategies — but it leaks a side
// channel: the attacker's own transfer volume reveals whether other
// users hold specific content (Harnik et al.; Halevi et al.).
type GlobalSimulator struct {
	n         int
	sizer     ShareSizer
	globalSet map[uint64]struct{}
}

// NewGlobalSimulator creates a client-side-global-dedup simulator.
func NewGlobalSimulator(n int, sizer ShareSizer) *GlobalSimulator {
	return &GlobalSimulator{n: n, sizer: sizer, globalSet: make(map[uint64]struct{})}
}

// Upload replays one backup under global client-side dedup.
func (g *GlobalSimulator) Upload(user int, chunks []Chunk) Stats {
	var st Stats
	for _, c := range chunks {
		shareSize := int64(g.sizer(int(c.Size))) * int64(g.n)
		st.LogicalData += int64(c.Size)
		st.LogicalShares += shareSize
		if _, ok := g.globalSet[c.ID]; ok {
			continue // global duplicate: neither transferred nor stored
		}
		g.globalSet[c.ID] = struct{}{}
		st.TransferredShares += shareSize
		st.PhysicalShares += shareSize
	}
	return st
}

// StrategyComparison contrasts two-stage and global dedup on a workload.
type StrategyComparison struct {
	TwoStage Stats
	Global   Stats
	// ExtraTransferFraction is how much more bandwidth two-stage costs:
	// (twoStage.Transferred - global.Transferred) / global.Transferred.
	ExtraTransferFraction float64
}

// CompareStrategies replays the same per-user backup streams through both
// strategies. uploads[i] is (user, chunks) in arrival order.
func CompareStrategies(n int, sizer ShareSizer, uploads []struct {
	User   int
	Chunks []Chunk
}) StrategyComparison {
	two := NewSimulator(n, sizer)
	glob := NewGlobalSimulator(n, sizer)
	var out StrategyComparison
	for _, u := range uploads {
		out.TwoStage.Add(two.Upload(u.User, u.Chunks))
		out.Global.Add(glob.Upload(u.User, u.Chunks))
	}
	if out.Global.TransferredShares > 0 {
		out.ExtraTransferFraction = float64(out.TwoStage.TransferredShares-out.Global.TransferredShares) /
			float64(out.Global.TransferredShares)
	}
	// Storage outcome is identical by construction: inter-user dedup at
	// the server removes exactly what global dedup would have skipped.
	return out
}
