package chunker

import (
	"bytes"
	"testing"
)

// FuzzChunker drives both content-defined chunkers over arbitrary input
// and checks the invariants that every caller depends on: the chunks
// concatenate back to the input byte-for-byte with contiguous offsets,
// no chunk exceeds max, and no chunk other than the last is below min —
// and that every cut is the frozen oracle's (oracle_test.go), offset for
// offset: the lane scan and the stream buffer must not move a boundary.
// The seed corpus covers the boundary sizes that the unit tests probe
// individually: empty, one byte, just under/at/over min, and past max.
func FuzzChunker(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte("hello, chunker"))
	f.Add(bytes.Repeat([]byte{0xAA}, DefaultMinSize-1))
	f.Add(bytes.Repeat([]byte{0x55}, DefaultMinSize+1))
	f.Add(randomData(1, DefaultAvgSize))
	f.Add(randomData(2, DefaultMaxSize+1))
	f.Add(randomData(3, 3*DefaultMaxSize))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, "rabin", NewRabin(bytes.NewReader(data)), data,
			newOracleRabin(DefaultMinSize, DefaultAvgSize, DefaultMaxSize).findBoundary, nil)
		checkAgainstOracle(t, "fastcdc", NewFastCDC(bytes.NewReader(data)), data,
			newOracleFastCDC(DefaultMinSize, DefaultAvgSize, DefaultMaxSize).cutpoint, nil)
		chunkers := map[string]Chunker{
			"rabin":   NewRabin(bytes.NewReader(data)),
			"fastcdc": NewFastCDC(bytes.NewReader(data)),
		}
		for name, c := range chunkers {
			chunks, err := ChunkAll(c)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var joined []byte
			var off int64
			for i, ck := range chunks {
				if ck.Offset != off {
					t.Fatalf("%s: chunk %d offset %d, want %d", name, i, ck.Offset, off)
				}
				if len(ck.Data) == 0 {
					t.Fatalf("%s: chunk %d is empty", name, i)
				}
				if len(ck.Data) > DefaultMaxSize {
					t.Fatalf("%s: chunk %d is %d bytes, above max %d", name, i, len(ck.Data), DefaultMaxSize)
				}
				if i < len(chunks)-1 && len(ck.Data) < DefaultMinSize {
					t.Fatalf("%s: chunk %d is %d bytes, below min %d", name, i, len(ck.Data), DefaultMinSize)
				}
				joined = append(joined, ck.Data...)
				off += int64(len(ck.Data))
			}
			if !bytes.Equal(joined, data) {
				t.Fatalf("%s: concatenated chunks differ from input", name)
			}
		}
	})
}
