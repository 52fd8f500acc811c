// Package workload synthesizes the two evaluation datasets of §5.2.
//
// The real traces are unavailable (FSL's Fslhomes snapshot set is large
// and the VM dataset was never published), so generators reproduce their
// *measured deduplication profiles* instead, which is what Figure 6 and
// the trace-driven transfer tests consume:
//
//   - FSL-like: nine users' weekly home-directory backups; users modify a
//     few percent of chunks per week (intra-user savings >=94% after the
//     first backup) and share little content with each other (inter-user
//     savings <=13%). Variable-size chunks, 8KB average.
//
//   - VM-like: weekly snapshots of 156 VM images cloned from one master
//     image (inter-user saving ~93% in week 1), with correlated student
//     edits afterwards (inter savings 12-47%, intra >=98%). Fixed-size
//     4KB chunks, zero-filled chunks removed, as in the paper.
//
// Generators emit chunk fingerprint streams (dedup.Chunk) and can also
// materialize chunk *content* the way §5.5 does: "we reconstruct a chunk
// by writing the fingerprint value repeatedly to a chunk with the
// specified size, so as to preserve content similarity."
package workload

import (
	"encoding/binary"
	"io"
	"math/rand"

	"cdstore/internal/dedup"
)

// Backup is one user's weekly backup stream.
type Backup struct {
	User   int
	Week   int
	Chunks []dedup.Chunk
}

// idAllocator hands out globally unique chunk IDs.
type idAllocator struct{ next uint64 }

func (a *idAllocator) alloc() uint64 { a.next++; return a.next }

// randChunkSize draws a variable chunk size in [2KB, 16KB] averaging
// ~8KB, approximating Rabin chunking's clamped geometric distribution.
func randChunkSize(rng *rand.Rand) int32 {
	s := 2048 + rng.ExpFloat64()*6144
	if s > 16384 {
		s = 16384
	}
	return int32(s)
}

// FSLConfig parameterizes the FSL-like generator.
type FSLConfig struct {
	// Users is the number of home directories (paper: 9).
	Users int
	// Weeks is the number of weekly backups (paper: 16).
	Weeks int
	// ChunksPerUser is the initial chunk count per user.
	ChunksPerUser int
	// Seed makes the trace reproducible.
	Seed int64
}

// The FSL-like generator's dedup profile.
const (
	// fslChurnRate is the weekly fraction of chunks replaced with new
	// content (-> ~96-97% intra savings).
	fslChurnRate = 0.03
	// fslGrowthRate is the weekly fraction of new chunks appended.
	fslGrowthRate = 0.01
	// fslSharedFrac is the fraction of each user's initial chunks drawn
	// from an organization-shared pool (-> <=13% inter savings).
	fslSharedFrac = 0.10
)

func (c *FSLConfig) withDefaults() FSLConfig {
	out := *c
	if out.Users == 0 {
		out.Users = 9
	}
	if out.Weeks == 0 {
		out.Weeks = 16
	}
	if out.ChunksPerUser == 0 {
		out.ChunksPerUser = 4000
	}
	return out
}

// GenerateFSL produces backups[week][user] mimicking the FSL dataset's
// dedup profile.
func GenerateFSL(cfg FSLConfig) [][]Backup {
	c := cfg.withDefaults()
	rng := rand.New(rand.NewSource(c.Seed ^ 0xF51))
	alloc := &idAllocator{}

	// Shared pool: chunks common across users (project files etc).
	poolSize := int(float64(c.ChunksPerUser) * fslSharedFrac * 2)
	if poolSize < 1 {
		poolSize = 1
	}
	pool := make([]dedup.Chunk, poolSize)
	for i := range pool {
		pool[i] = dedup.Chunk{ID: alloc.alloc(), Size: randChunkSize(rng)}
	}

	// Initial state per user.
	state := make([][]dedup.Chunk, c.Users)
	for u := 0; u < c.Users; u++ {
		chunks := make([]dedup.Chunk, 0, c.ChunksPerUser)
		for i := 0; i < c.ChunksPerUser; i++ {
			if rng.Float64() < fslSharedFrac {
				chunks = append(chunks, pool[rng.Intn(len(pool))])
			} else {
				chunks = append(chunks, dedup.Chunk{ID: alloc.alloc(), Size: randChunkSize(rng)})
			}
		}
		state[u] = chunks
	}

	out := make([][]Backup, c.Weeks)
	for w := 0; w < c.Weeks; w++ {
		out[w] = make([]Backup, c.Users)
		for u := 0; u < c.Users; u++ {
			if w > 0 {
				// Weekly churn: replace a fraction with fresh chunks.
				nChurn := int(float64(len(state[u])) * fslChurnRate)
				for i := 0; i < nChurn; i++ {
					j := rng.Intn(len(state[u]))
					state[u][j] = dedup.Chunk{ID: alloc.alloc(), Size: randChunkSize(rng)}
				}
				// Growth: append new chunks (mostly unique, some shared).
				nGrow := int(float64(len(state[u])) * fslGrowthRate)
				for i := 0; i < nGrow; i++ {
					if rng.Float64() < fslSharedFrac {
						state[u] = append(state[u], pool[rng.Intn(len(pool))])
					} else {
						state[u] = append(state[u], dedup.Chunk{ID: alloc.alloc(), Size: randChunkSize(rng)})
					}
				}
			}
			snapshot := make([]dedup.Chunk, len(state[u]))
			copy(snapshot, state[u])
			out[w][u] = Backup{User: u, Week: w, Chunks: snapshot}
		}
	}
	return out
}

// VMConfig parameterizes the VM-image generator.
type VMConfig struct {
	// Users is the number of VM images (paper: 156).
	Users int
	// Weeks is the number of weekly snapshots (paper: 16).
	Weeks int
	// ChunksPerImage is the per-image chunk count (4KB fixed chunks).
	ChunksPerImage int
	// Seed makes the trace reproducible.
	Seed int64
}

// The VM-image generator's dedup profile.
const (
	// vmBaseFrac is the fraction of each image that is the master image
	// in week 1 (-> ~93% inter saving for the first backup).
	vmBaseFrac = 0.93
	// vmChurnRate is the weekly modified fraction (-> >=98% intra
	// savings).
	vmChurnRate = 0.02
	// vmCorrelatedFrac is the fraction of modifications shared across
	// students doing the same assignment (-> inter savings in the 12-47%
	// band).
	vmCorrelatedFrac = 0.30
	// vmChunkSize is the fixed chunk size.
	vmChunkSize int32 = 4096
)

func (c *VMConfig) withDefaults() VMConfig {
	out := *c
	if out.Users == 0 {
		out.Users = 156
	}
	if out.Weeks == 0 {
		out.Weeks = 16
	}
	if out.ChunksPerImage == 0 {
		out.ChunksPerImage = 2500 // ~10MB at 4KB: a scaled-down image
	}
	return out
}

// GenerateVM produces backups[week][user] mimicking the VM dataset's
// dedup profile.
func GenerateVM(cfg VMConfig) [][]Backup {
	c := cfg.withDefaults()
	rng := rand.New(rand.NewSource(c.Seed ^ 0x7A3))
	alloc := &idAllocator{}

	// The master image chunks, shared by every clone in week 1.
	baseCount := int(float64(c.ChunksPerImage) * vmBaseFrac)
	base := make([]dedup.Chunk, baseCount)
	for i := range base {
		base[i] = dedup.Chunk{ID: alloc.alloc(), Size: vmChunkSize}
	}

	state := make([][]dedup.Chunk, c.Users)
	for u := 0; u < c.Users; u++ {
		img := make([]dedup.Chunk, 0, c.ChunksPerImage)
		img = append(img, base...)
		for i := baseCount; i < c.ChunksPerImage; i++ {
			img = append(img, dedup.Chunk{ID: alloc.alloc(), Size: vmChunkSize})
		}
		state[u] = img
	}

	out := make([][]Backup, c.Weeks)
	for w := 0; w < c.Weeks; w++ {
		out[w] = make([]Backup, c.Users)
		// The week's correlated-edit pool: chunks many students produce
		// alike while solving the same assignment.
		weekPool := make([]dedup.Chunk, 0, 64)
		poolTarget := int(float64(c.ChunksPerImage)*vmChurnRate*vmCorrelatedFrac) + 1
		for i := 0; i < poolTarget; i++ {
			weekPool = append(weekPool, dedup.Chunk{ID: alloc.alloc(), Size: vmChunkSize})
		}
		for u := 0; u < c.Users; u++ {
			if w > 0 {
				nChurn := int(float64(len(state[u])) * vmChurnRate)
				for i := 0; i < nChurn; i++ {
					j := rng.Intn(len(state[u]))
					if rng.Float64() < vmCorrelatedFrac {
						state[u][j] = weekPool[rng.Intn(len(weekPool))]
					} else {
						state[u][j] = dedup.Chunk{ID: alloc.alloc(), Size: vmChunkSize}
					}
				}
			}
			snapshot := make([]dedup.Chunk, len(state[u]))
			copy(snapshot, state[u])
			out[w][u] = Backup{User: u, Week: w, Chunks: snapshot}
		}
	}
	return out
}

// ChunkContent materializes chunk content from its ID, following §5.5's
// methodology ("we reconstruct a chunk by writing the fingerprint value
// repeatedly") with one refinement: the fingerprint seeds a fast PRNG
// (SplitMix64) whose stream fills the chunk, instead of a literal 8-byte
// repeat. Identical IDs still produce identical content and distinct IDs
// distinct content — the property that preserves the trace's dedup
// profile — but the content has normal entropy, so the Rabin chunker's
// boundary detection behaves as it would on real data (a literal 8-byte
// period starves the rolling hash of distinct windows and destroys
// boundary resynchronization).
func ChunkContent(id uint64, size int32) []byte {
	out := make([]byte, size)
	x := id ^ 0x9E3779B97F4A7C15
	for off := 0; off < len(out); off += 8 {
		// SplitMix64 step.
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		var word [8]byte
		binary.BigEndian.PutUint64(word[:], z)
		copy(out[off:], word[:])
	}
	return out
}

// ChunkIter yields a backup's chunks as secrets, for
// client.BackupStream — the §5.5 trace-driven path where "each chunk is
// treated as a secret" without re-chunking.
type ChunkIter struct {
	chunks []dedup.Chunk
	idx    int
}

// NewChunkIter builds an iterator over a backup's chunks.
func NewChunkIter(b Backup) *ChunkIter { return &ChunkIter{chunks: b.Chunks} }

// NextChunk implements client.ChunkSource.
func (it *ChunkIter) NextChunk() ([]byte, error) {
	if it.idx >= len(it.chunks) {
		return nil, io.EOF
	}
	c := it.chunks[it.idx]
	it.idx++
	return ChunkContent(c.ID, c.Size), nil
}

// TotalBytes returns a backup's logical size.
func TotalBytes(b Backup) int64 {
	var t int64
	for _, c := range b.Chunks {
		t += int64(c.Size)
	}
	return t
}

// UniqueData returns n bytes of seeded random data (no internal
// duplication): the "unique data" workload of §5.5's baseline transfer
// tests.
func UniqueData(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}
