package workload

import (
	"bytes"
	"io"
	"testing"

	"cdstore/internal/dedup"
)

func TestFSLProfileMatchesPaper(t *testing.T) {
	// Scaled-down FSL trace must land in the paper's measured bands:
	// intra savings >=94% after week 1, inter savings <=13% every week.
	backups := GenerateFSL(FSLConfig{Users: 9, Weeks: 8, ChunksPerUser: 1500, Seed: 1})
	sim := dedup.NewSimulator(4, dedup.CAONTRSSizer(3))
	for w := range backups {
		var week dedup.Stats
		for _, b := range backups[w] {
			week.Add(sim.Upload(b.User, b.Chunks))
		}
		if w > 0 {
			if s := week.IntraSaving(); s < 0.94 {
				t.Errorf("week %d intra saving %.3f < 0.94", w, s)
			}
		}
		if s := week.InterSaving(); s > 0.20 {
			t.Errorf("week %d inter saving %.3f > 0.20 (FSL band is <=13%%)", w, s)
		}
	}
}

func TestVMProfileMatchesPaper(t *testing.T) {
	backups := GenerateVM(VMConfig{Users: 40, Weeks: 8, ChunksPerImage: 800, Seed: 2})
	sim := dedup.NewSimulator(4, dedup.CAONTRSSizer(3))
	for w := range backups {
		var week dedup.Stats
		for _, b := range backups[w] {
			week.Add(sim.Upload(b.User, b.Chunks))
		}
		if w == 0 {
			// Clones of one master image: ~93% inter-user saving.
			if s := week.InterSaving(); s < 0.85 || s > 0.97 {
				t.Errorf("week 0 inter saving %.3f outside [0.85, 0.97]", s)
			}
		} else {
			if s := week.IntraSaving(); s < 0.97 {
				t.Errorf("week %d intra saving %.3f < 0.97", w, s)
			}
			// Correlated edits: savings in (and around) the 12-47% band.
			if s := week.InterSaving(); s < 0.05 || s > 0.60 {
				t.Errorf("week %d inter saving %.3f outside [0.05, 0.60]", w, s)
			}
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := GenerateFSL(FSLConfig{Users: 3, Weeks: 3, ChunksPerUser: 100, Seed: 7})
	b := GenerateFSL(FSLConfig{Users: 3, Weeks: 3, ChunksPerUser: 100, Seed: 7})
	for w := range a {
		for u := range a[w] {
			if len(a[w][u].Chunks) != len(b[w][u].Chunks) {
				t.Fatal("FSL generator not deterministic (lengths)")
			}
			for i := range a[w][u].Chunks {
				if a[w][u].Chunks[i] != b[w][u].Chunks[i] {
					t.Fatal("FSL generator not deterministic (chunks)")
				}
			}
		}
	}
	c := GenerateFSL(FSLConfig{Users: 3, Weeks: 3, ChunksPerUser: 100, Seed: 8})
	if c[0][0].Chunks[0] == a[0][0].Chunks[0] && c[0][0].Chunks[1] == a[0][0].Chunks[1] {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestFSLChunkSizesInRange(t *testing.T) {
	backups := GenerateFSL(FSLConfig{Users: 2, Weeks: 2, ChunksPerUser: 500, Seed: 3})
	var total, count int64
	for _, wk := range backups {
		for _, b := range wk {
			for _, c := range b.Chunks {
				if c.Size < 2048 || c.Size > 16384 {
					t.Fatalf("chunk size %d outside [2KB, 16KB]", c.Size)
				}
				total += int64(c.Size)
				count++
			}
		}
	}
	avg := total / count
	if avg < 4096 || avg > 12288 {
		t.Fatalf("average chunk size %d outside [4KB, 12KB]", avg)
	}
}

func TestVMFixedChunkSize(t *testing.T) {
	backups := GenerateVM(VMConfig{Users: 3, Weeks: 2, ChunksPerImage: 100, Seed: 4})
	for _, wk := range backups {
		for _, b := range wk {
			for _, c := range b.Chunks {
				if c.Size != 4096 {
					t.Fatalf("VM chunk size %d, want 4096", c.Size)
				}
			}
		}
	}
}

func TestChunkContentDeterministicAndDistinct(t *testing.T) {
	a := ChunkContent(42, 4096)
	b := ChunkContent(42, 4096)
	c := ChunkContent(43, 4096)
	if !bytes.Equal(a, b) {
		t.Fatal("same ID, different content")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different IDs, same content")
	}
	if len(a) != 4096 {
		t.Fatalf("content length %d", len(a))
	}
	// Odd sizes are filled too.
	if got := ChunkContent(1, 100); len(got) != 100 {
		t.Fatalf("odd size content length %d", len(got))
	}
}

func TestChunkIterStreamsWholeBackup(t *testing.T) {
	b := Backup{User: 0, Week: 0, Chunks: []dedup.Chunk{
		{ID: 1, Size: 3000}, {ID: 2, Size: 5000}, {ID: 3, Size: 100},
	}}
	it := NewChunkIter(b)
	for i, c := range b.Chunks {
		got, err := it.NextChunk()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ChunkContent(c.ID, c.Size)) {
			t.Fatalf("chunk %d does not match its materialized content", i)
		}
	}
	if _, err := it.NextChunk(); err != io.EOF {
		t.Fatalf("after the last chunk: %v, want io.EOF", err)
	}
}

func TestUniqueDataSeeded(t *testing.T) {
	a := UniqueData(1, 1000)
	b := UniqueData(1, 1000)
	c := UniqueData(2, 1000)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed differs")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds identical")
	}
}

func TestCumulativeVolumesShrinkLikeFig6b(t *testing.T) {
	// After 8 VM weeks, physical shares must be a small fraction of
	// logical data (paper: 0.8% after 16 weeks on the real set; the
	// scaled trace should still show an order-of-magnitude reduction).
	backups := GenerateVM(VMConfig{Users: 30, Weeks: 8, ChunksPerImage: 600, Seed: 5})
	sim := dedup.NewSimulator(4, dedup.CAONTRSSizer(3))
	var cum dedup.Stats
	for _, wk := range backups {
		for _, b := range wk {
			cum.Add(sim.Upload(b.User, b.Chunks))
		}
	}
	frac := float64(cum.PhysicalShares) / float64(cum.LogicalData)
	if frac > 0.10 {
		t.Fatalf("physical/logical = %.3f; expected <= 0.10 for VM-like trace", frac)
	}
	if cum.TransferredShares >= cum.LogicalShares {
		t.Fatal("intra dedup saved nothing cumulatively")
	}
	if cum.PhysicalShares >= cum.TransferredShares {
		t.Fatal("inter dedup saved nothing cumulatively")
	}
}
