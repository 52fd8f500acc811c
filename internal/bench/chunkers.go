package bench

import (
	"crypto/sha256"
	"fmt"
	"io"
	"time"

	"cdstore/internal/chunker"
	"cdstore/internal/workload"
)

// -------------------------------------------------------- chunker comparison

// ChunkerRow compares one chunking algorithm on a two-week churned
// backup pair: raw chunking speed, average chunk size, and the dedup
// survival between the weeks — the fraction of week-1 chunk bytes that
// reappear verbatim in week 2 and so cost nothing to store or upload.
// Chunking choice drives the dedup ratio the paper's cost analysis
// bills.
type ChunkerRow struct {
	Chunker      string
	MBps         float64
	AvgChunkKB   float64
	Chunks       int
	DedupSurvive float64 // week-2 bytes deduplicated against week 1
}

// churnedWeekPair builds two backup images: week 2 is week 1 with a few
// replaced spans plus one small insertion near the front, so every later
// byte shifts — the pattern that collapses fixed-size dedup while
// content-defined chunkers resynchronize.
func churnedWeekPair(dataMB int, seed int64) (week1, week2 []byte) {
	week1 = workload.UniqueData(seed, dataMB<<20)
	week2 = append([]byte{}, week1...)
	for i := 0; i < dataMB/2; i++ {
		off := (i*2654435+12345)%(len(week2)-16384) + 8192
		copy(week2[off:], workload.UniqueData(seed+100+int64(i), 16384))
	}
	week2 = append(append(append([]byte{}, week2[:4096]...), workload.UniqueData(seed+99, 64)...), week2[4096:]...)
	return week1, week2
}

// ChunkerComparison benchmarks fixed-size, Rabin, and FastCDC chunking
// on the same churned content.
func ChunkerComparison(dataMB int) ([]ChunkerRow, error) {
	week1, week2 := churnedWeekPair(dataMB, 71)
	chunkers := []struct {
		name string
		mk   func(io.Reader) chunker.Chunker
	}{
		{"fixed-8KB", func(r io.Reader) chunker.Chunker {
			fc, err := chunker.NewFixed(r, 8192)
			if err != nil {
				panic(err)
			}
			return fc
		}},
		{"rabin", func(r io.Reader) chunker.Chunker { return chunker.NewRabin(r) }},
		{"fastcdc", func(r io.Reader) chunker.Chunker { return chunker.NewFastCDC(r) }},
	}
	rows := make([]ChunkerRow, 0, len(chunkers))
	for _, c := range chunkers {
		start := time.Now()
		c1, err := chunker.ChunkAll(c.mk(newSliceReader(week1)))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		elapsed := time.Since(start)
		c2, err := chunker.ChunkAll(c.mk(newSliceReader(week2)))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		seen := make(map[[32]byte]bool, len(c1))
		for _, ck := range c1 {
			seen[sha256.Sum256(ck.Data)] = true
		}
		surviving := 0
		for _, ck := range c2 {
			if seen[sha256.Sum256(ck.Data)] {
				surviving += len(ck.Data)
			}
		}
		rows = append(rows, ChunkerRow{
			Chunker:      c.name,
			MBps:         float64(len(week1)) / (1 << 20) / elapsed.Seconds(),
			AvgChunkKB:   float64(len(week1)) / float64(len(c1)) / 1024,
			Chunks:       len(c1),
			DedupSurvive: float64(surviving) / float64(len(week2)),
		})
	}
	return rows, nil
}
