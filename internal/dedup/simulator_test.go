package dedup

import "testing"

func TestSizerMatchesCAONTRS(t *testing.T) {
	sizer := CAONTRSSizer(3)
	// 8192-byte secret: package 8224 -> ceil/3 = 2742.
	if got := sizer(8192); got != 2742 {
		t.Fatalf("sizer(8192) = %d, want 2742", got)
	}
	if got := sizer(1); got != 11 {
		t.Fatalf("sizer(1) = %d, want 11", got)
	}
}

func TestFirstUploadAllVolumesEqual(t *testing.T) {
	sim := NewSimulator(4, CAONTRSSizer(3))
	chunks := []Chunk{{ID: 1, Size: 8192}, {ID: 2, Size: 4096}, {ID: 3, Size: 8192}}
	st := sim.Upload(0, chunks)
	if st.LogicalData != 8192+4096+8192 {
		t.Fatalf("LogicalData = %d", st.LogicalData)
	}
	if st.LogicalShares != st.TransferredShares || st.TransferredShares != st.PhysicalShares {
		t.Fatalf("fresh upload should have equal share volumes: %+v", st)
	}
	// Blowup ~ n/k = 4/3.
	blowup := float64(st.LogicalShares) / float64(st.LogicalData)
	if blowup < 1.33 || blowup > 1.35 {
		t.Fatalf("blowup = %.4f, want ~4/3", blowup)
	}
}

func TestIntraUserDedup(t *testing.T) {
	sim := NewSimulator(4, CAONTRSSizer(3))
	chunks := []Chunk{{ID: 1, Size: 8192}, {ID: 2, Size: 8192}}
	sim.Upload(0, chunks)
	st := sim.Upload(0, chunks) // same user re-uploads
	if st.TransferredShares != 0 || st.PhysicalShares != 0 {
		t.Fatalf("repeat upload transferred %d stored %d; want 0,0", st.TransferredShares, st.PhysicalShares)
	}
	if st.IntraSaving() != 1.0 {
		t.Fatalf("intra saving %.2f, want 1.0", st.IntraSaving())
	}
}

func TestInterUserDedup(t *testing.T) {
	sim := NewSimulator(4, CAONTRSSizer(3))
	chunks := []Chunk{{ID: 1, Size: 8192}, {ID: 2, Size: 8192}}
	sim.Upload(0, chunks)
	st := sim.Upload(1, chunks) // different user, same content
	if st.TransferredShares == 0 {
		t.Fatal("user 2 must transfer (intra dedup cannot cross users)")
	}
	if st.PhysicalShares != 0 {
		t.Fatalf("user 2's duplicates stored %d bytes; inter dedup failed", st.PhysicalShares)
	}
	if st.InterSaving() != 1.0 {
		t.Fatalf("inter saving %.2f, want 1.0", st.InterSaving())
	}
}

func TestIntraDupWithinSingleStream(t *testing.T) {
	sim := NewSimulator(4, CAONTRSSizer(3))
	// Same chunk appears twice in one backup.
	st := sim.Upload(0, []Chunk{{ID: 7, Size: 4096}, {ID: 7, Size: 4096}})
	if st.LogicalShares != 2*st.TransferredShares {
		t.Fatalf("in-stream duplicate not deduplicated: %+v", st)
	}
}

func TestDedupRatio(t *testing.T) {
	sim := NewSimulator(4, CAONTRSSizer(3))
	chunks := []Chunk{{ID: 1, Size: 8192}}
	var total Stats
	for week := 0; week < 10; week++ {
		total.Add(sim.Upload(0, chunks))
	}
	if r := total.DedupRatio(); r < 9.9 || r > 10.1 {
		t.Fatalf("dedup ratio %.2f, want ~10 for 10 identical weekly backups", r)
	}
}

func TestUniqueShares(t *testing.T) {
	sim := NewSimulator(4, CAONTRSSizer(3))
	sim.Upload(0, []Chunk{{ID: 1, Size: 100}, {ID: 2, Size: 100}})
	sim.Upload(1, []Chunk{{ID: 2, Size: 100}, {ID: 3, Size: 100}})
	if len(sim.globalSet) != 3 {
		t.Fatalf("unique shares = %d, want 3", len(sim.globalSet))
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{LogicalData: 1, LogicalShares: 2, TransferredShares: 1, PhysicalShares: 1}
	if s.String() == "" {
		t.Fatal("empty stats string")
	}
}
