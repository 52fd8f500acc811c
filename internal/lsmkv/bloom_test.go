package lsmkv

import (
	"fmt"
	"testing"
)

func TestBloomNoFalseNegatives(t *testing.T) {
	f := newBloomWithEstimates(1000, 0.01)
	for i := 0; i < 1000; i++ {
		f.add([]byte(fmt.Sprintf("key-%d", i)))
	}
	for i := 0; i < 1000; i++ {
		if !f.mayContain([]byte(fmt.Sprintf("key-%d", i))) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
}

func TestBloomFalsePositiveRate(t *testing.T) {
	f := newBloomWithEstimates(10000, 0.01)
	for i := 0; i < 10000; i++ {
		f.add([]byte(fmt.Sprintf("present-%d", i)))
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.mayContain([]byte(fmt.Sprintf("absent-%d", i))) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.03 {
		t.Fatalf("false positive rate %.4f, want <= 0.03", rate)
	}
}

func TestBloomEmptyFilterContainsNothing(t *testing.T) {
	f := newBloomWithEstimates(100, 0.01)
	if f.mayContain([]byte("anything")) {
		t.Fatal("empty filter claims membership")
	}
	if f.n != 0 {
		t.Fatal("empty filter has nonzero count")
	}
}

func TestBloomMarshalRoundTrip(t *testing.T) {
	f := newBloomWithEstimates(500, 0.02)
	keys := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc"), {0x00, 0xff}}
	for _, k := range keys {
		f.add(k)
	}
	g, err := unmarshalBloom(f.marshal())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !g.mayContain(k) {
			t.Fatalf("unmarshalled filter lost key %q", k)
		}
	}
	if g.n != f.n {
		t.Fatal("count not preserved")
	}
	if len(g.bits) != len(f.bits) {
		t.Fatal("size not preserved")
	}
}

func TestBloomUnmarshalCorrupt(t *testing.T) {
	if _, err := unmarshalBloom([]byte("short")); err != errCorruptBloom {
		t.Fatalf("want errCorruptBloom, got %v", err)
	}
	f := newBloomWithEstimates(100, 0.01)
	enc := f.marshal()
	if _, err := unmarshalBloom(enc[:len(enc)-1]); err != errCorruptBloom {
		t.Fatalf("truncated bits: want errCorruptBloom, got %v", err)
	}
}

func TestBloomDegenerateParams(t *testing.T) {
	// All of these must still behave as filters (no panics, no false negatives).
	for _, f := range []*bloomFilter{newBloom(0, 0), newBloomWithEstimates(0, 0), newBloomWithEstimates(5, 2)} {
		f.add([]byte("x"))
		if !f.mayContain([]byte("x")) {
			t.Fatal("false negative on degenerate filter")
		}
	}
}

func BenchmarkBloomAdd(b *testing.B) {
	f := newBloomWithEstimates(uint64(b.N)+1, 0.01)
	key := make([]byte, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[0] = byte(i)
		key[1] = byte(i >> 8)
		f.add(key)
	}
}

func BenchmarkBloomMayContain(b *testing.B) {
	f := newBloomWithEstimates(100000, 0.01)
	for i := 0; i < 100000; i++ {
		f.add([]byte(fmt.Sprintf("key-%d", i)))
	}
	key := []byte("key-55555")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.mayContain(key)
	}
}
