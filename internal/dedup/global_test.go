package dedup

import "testing"

func TestGlobalDedupSavesMoreBandwidth(t *testing.T) {
	// Two users with identical data: global dedup suppresses the second
	// user's transfer entirely; two-stage transfers it (then discards it
	// server-side). Identical physical storage either way.
	chunks := []Chunk{{ID: 1, Size: 8192}, {ID: 2, Size: 8192}}
	uploads := []struct {
		User   int
		Chunks []Chunk
	}{
		{User: 1, Chunks: chunks},
		{User: 2, Chunks: chunks},
	}
	cmp := CompareStrategies(4, CAONTRSSizer(3), uploads)
	if cmp.Global.TransferredShares >= cmp.TwoStage.TransferredShares {
		t.Fatalf("global (%d) should transfer less than two-stage (%d)",
			cmp.Global.TransferredShares, cmp.TwoStage.TransferredShares)
	}
	if cmp.TwoStage.PhysicalShares != cmp.Global.PhysicalShares {
		t.Fatalf("physical storage differs: %d vs %d — the strategies must store identically",
			cmp.TwoStage.PhysicalShares, cmp.Global.PhysicalShares)
	}
	if cmp.ExtraTransferFraction <= 0 {
		t.Fatalf("extra transfer fraction %.3f, want > 0", cmp.ExtraTransferFraction)
	}
}

func TestGlobalDedupLeaksSideChannel(t *testing.T) {
	sizer := CAONTRSSizer(3)
	glob := NewGlobalSimulator(4, sizer)
	victim := []Chunk{{ID: 42, Size: 8192}}
	glob.Upload(1, victim) // victim stores sensitive content

	// The attacker probes with the suspected content they never uploaded.
	probe := []Chunk{{ID: 42, Size: 8192}}
	if !glob.Leaks(probe, map[uint64]bool{}) {
		t.Fatal("global dedup should leak the victim's possession of chunk 42")
	}
	// Probing for absent content leaks nothing.
	if glob.Leaks([]Chunk{{ID: 99, Size: 8192}}, map[uint64]bool{}) {
		t.Fatal("absent content falsely reported as leaking")
	}
	// Content the prober itself owns is not a leak.
	glob.Upload(2, []Chunk{{ID: 7, Size: 100}})
	if glob.Leaks([]Chunk{{ID: 7, Size: 100}}, map[uint64]bool{7: true}) {
		t.Fatal("self-owned content flagged as leak")
	}
}

func TestTwoStageTransferIndependentOfOtherUsers(t *testing.T) {
	// The flip side: under two-stage dedup the transfer volume of user 2
	// is IDENTICAL whether or not user 1 holds the same data — no
	// observable signal.
	chunks := []Chunk{{ID: 5, Size: 4096}, {ID: 6, Size: 4096}}
	withPrior := NewSimulator(4, CAONTRSSizer(3))
	withPrior.Upload(1, chunks)
	a := withPrior.Upload(2, chunks)

	withoutPrior := NewSimulator(4, CAONTRSSizer(3))
	b := withoutPrior.Upload(2, chunks)

	if a.TransferredShares != b.TransferredShares {
		t.Fatalf("two-stage transfer differs with (%d) vs without (%d) prior upload: side channel",
			a.TransferredShares, b.TransferredShares)
	}
}

// Leaks reports whether an attacker uploading probe chunks would observe
// a transfer pattern that depends on other users' data: true iff any
// probe chunk is suppressed because a DIFFERENT user stored it. This is
// the §3.3 side channel in its simplest observable form.
func (g *GlobalSimulator) Leaks(probe []Chunk, ownedByProber map[uint64]bool) bool {
	for _, c := range probe {
		if _, ok := g.globalSet[c.ID]; ok && !ownedByProber[c.ID] {
			return true
		}
	}
	return false
}
