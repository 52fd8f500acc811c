// Package dedup models CDStore's two-stage deduplication (§3.3) over
// chunk-fingerprint streams, without moving real data. The evaluation in
// §5.4 (Figure 6) is a trace study of exactly this kind: it replays
// fingerprints and sizes and accounts four volumes — logical data,
// logical shares, transferred shares (after intra-user dedup), and
// physical shares (after inter-user dedup).
package dedup

import "fmt"

// Chunk is one logical chunk occurrence in a backup stream, identified by
// a fingerprint surrogate ID (identical content <=> identical ID, the
// property convergent dispersal guarantees for shares).
type Chunk struct {
	ID   uint64
	Size int32
}

// ShareSizer maps a secret size to the per-cloud share size; plug in the
// scheme's ShareSize to account for dispersal-level redundancy exactly.
type ShareSizer func(secretSize int) int

// CAONTRSSizer returns the CAONT-RS share size function for parameter k:
// ceil((size+32)/k) rounded so the package divides evenly (the hash tail
// is the 32-byte convergent key).
func CAONTRSSizer(k int) ShareSizer {
	return func(secretSize int) int {
		pkg := secretSize + 32
		return (pkg + k - 1) / k
	}
}

// Stats accumulates the four §5.4 volumes, in bytes.
type Stats struct {
	LogicalData       int64 // original user data
	LogicalShares     int64 // all n shares before any deduplication
	TransferredShares int64 // after intra-user dedup (sent over Internet)
	PhysicalShares    int64 // after inter-user dedup (finally stored)
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.LogicalData += other.LogicalData
	s.LogicalShares += other.LogicalShares
	s.TransferredShares += other.TransferredShares
	s.PhysicalShares += other.PhysicalShares
}

// IntraSaving is the intra-user deduplication saving: one minus the ratio
// of transferred to logical shares (§5.4).
func (s Stats) IntraSaving() float64 {
	if s.LogicalShares == 0 {
		return 0
	}
	return 1 - float64(s.TransferredShares)/float64(s.LogicalShares)
}

// InterSaving is the inter-user deduplication saving: one minus the ratio
// of physical to transferred shares (§5.4).
func (s Stats) InterSaving() float64 {
	if s.TransferredShares == 0 {
		return 0
	}
	return 1 - float64(s.PhysicalShares)/float64(s.TransferredShares)
}

// DedupRatio is logical shares / physical shares (§5.6's metric for the
// cost analysis).
func (s Stats) DedupRatio() float64 {
	if s.PhysicalShares == 0 {
		return 0
	}
	return float64(s.LogicalShares) / float64(s.PhysicalShares)
}

// Simulator replays backup streams through two-stage deduplication for an
// n-cloud deployment. Because share placement is deterministic (share i
// of equal secrets is identical and lands on cloud i, §3.2), the dedup
// outcome is identical at every cloud, so one cloud is simulated and
// volumes are scaled by n.
type Simulator struct {
	n         int
	sizer     ShareSizer
	userSets  map[int]map[uint64]struct{} // per-user share ownership
	globalSet map[uint64]struct{}         // per-cloud global share set
}

// NewSimulator creates a simulator for n clouds with the given share
// sizing function.
func NewSimulator(n int, sizer ShareSizer) *Simulator {
	return &Simulator{
		n:         n,
		sizer:     sizer,
		userSets:  make(map[int]map[uint64]struct{}),
		globalSet: make(map[uint64]struct{}),
	}
}

// Upload replays one user's backup stream and returns the volumes it
// contributed.
func (s *Simulator) Upload(user int, chunks []Chunk) Stats {
	us := s.userSets[user]
	if us == nil {
		us = make(map[uint64]struct{})
		s.userSets[user] = us
	}
	var st Stats
	for _, c := range chunks {
		shareSize := int64(s.sizer(int(c.Size))) * int64(s.n)
		st.LogicalData += int64(c.Size)
		st.LogicalShares += shareSize
		if _, ok := us[c.ID]; ok {
			continue // intra-user duplicate: not even transferred
		}
		us[c.ID] = struct{}{}
		st.TransferredShares += shareSize
		if _, ok := s.globalSet[c.ID]; ok {
			continue // inter-user duplicate: transferred but not stored
		}
		s.globalSet[c.ID] = struct{}{}
		st.PhysicalShares += shareSize
	}
	return st
}

// String renders cumulative-style stats for debugging.
func (s Stats) String() string {
	return fmt.Sprintf("logical=%d logicalShares=%d transferred=%d physical=%d (intra=%.1f%% inter=%.1f%%)",
		s.LogicalData, s.LogicalShares, s.TransferredShares, s.PhysicalShares,
		100*s.IntraSaving(), 100*s.InterSaving())
}
