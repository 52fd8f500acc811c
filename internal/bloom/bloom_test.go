package bloom

import (
	"fmt"
	"testing"
)

func TestNoFalseNegatives(t *testing.T) {
	f := NewWithEstimates(1000, 0.01)
	for i := 0; i < 1000; i++ {
		f.Add([]byte(fmt.Sprintf("key-%d", i)))
	}
	for i := 0; i < 1000; i++ {
		if !f.MayContain([]byte(fmt.Sprintf("key-%d", i))) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
}

func TestFalsePositiveRate(t *testing.T) {
	f := NewWithEstimates(10000, 0.01)
	for i := 0; i < 10000; i++ {
		f.Add([]byte(fmt.Sprintf("present-%d", i)))
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.MayContain([]byte(fmt.Sprintf("absent-%d", i))) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.03 {
		t.Fatalf("false positive rate %.4f, want <= 0.03", rate)
	}
}

func TestEmptyFilterContainsNothing(t *testing.T) {
	f := NewWithEstimates(100, 0.01)
	if f.MayContain([]byte("anything")) {
		t.Fatal("empty filter claims membership")
	}
	if f.n != 0 {
		t.Fatal("empty filter has nonzero count")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f := NewWithEstimates(500, 0.02)
	keys := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc"), {0x00, 0xff}}
	for _, k := range keys {
		f.Add(k)
	}
	g, err := Unmarshal(f.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !g.MayContain(k) {
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

func TestUnmarshalCorrupt(t *testing.T) {
	if _, err := Unmarshal([]byte("short")); err != ErrCorrupt {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	f := NewWithEstimates(100, 0.01)
	enc := f.Marshal()
	if _, err := Unmarshal(enc[:len(enc)-1]); err != ErrCorrupt {
		t.Fatalf("truncated bits: want ErrCorrupt, got %v", err)
	}
}

func TestDegenerateParams(t *testing.T) {
	// All of these must still behave as filters (no panics, no false negatives).
	for _, f := range []*Filter{New(0, 0), NewWithEstimates(0, 0), NewWithEstimates(5, 2)} {
		f.Add([]byte("x"))
		if !f.MayContain([]byte("x")) {
			t.Fatal("false negative on degenerate filter")
		}
	}
}

func BenchmarkAdd(b *testing.B) {
	f := NewWithEstimates(uint64(b.N)+1, 0.01)
	key := make([]byte, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key[0] = byte(i)
		key[1] = byte(i >> 8)
		f.Add(key)
	}
}

func BenchmarkMayContain(b *testing.B) {
	f := NewWithEstimates(100000, 0.01)
	for i := 0; i < 100000; i++ {
		f.Add([]byte(fmt.Sprintf("key-%d", i)))
	}
	key := []byte("key-55555")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.MayContain(key)
	}
}
