package chunker

import (
	"bytes"
	"crypto/sha256"
	"io"
	"math/rand"
	"testing"
)

func TestPolDeg(t *testing.T) {
	if Pol(0).Deg() != -1 {
		t.Fatal("deg(0) should be -1")
	}
	if Pol(1).Deg() != 0 {
		t.Fatal("deg(1) should be 0")
	}
	if Pol(0x100).Deg() != 8 {
		t.Fatal("deg(x^8) should be 8")
	}
	if RabinPoly.Deg() != 53 {
		t.Fatalf("RabinPoly degree %d, want 53", RabinPoly.Deg())
	}
	if polShift != RabinPoly.Deg()-8 {
		t.Fatalf("polShift %d, want degree - 8 = %d", polShift, RabinPoly.Deg()-8)
	}
}

func TestPolMod(t *testing.T) {
	// x^4 mod (x^2+1): x^4 = (x^2+1)(x^2+1) + ... over GF(2):
	// x^4 + x^2+... compute: x^4 mod x^2+1 -> x^4 ^ (x^2+1)<<2 = x^4 ^ x^4^x^2 = x^2;
	// then x^2 ^ (x^2+1) = 1.
	got := Pol(0x10).Mod(Pol(0x5))
	if got != 1 {
		t.Fatalf("x^4 mod (x^2+1) = %#x, want 1", uint64(got))
	}
	if Pol(0x5).Mod(Pol(0x5)) != 0 {
		t.Fatal("p mod p should be 0")
	}
	if Pol(3).Mod(Pol(0x5)) != 3 {
		t.Fatal("lower-degree p mod q should be p")
	}
}

func TestModZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mod(0) should panic")
		}
	}()
	Pol(5).Mod(0)
}

func randomData(seed int64, size int) []byte {
	data := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

func TestRabinConcatenationEqualsInput(t *testing.T) {
	data := randomData(1, 1<<20)
	chunks, err := ChunkAll(NewRabin(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	var joined []byte
	var off int64
	for _, c := range chunks {
		if c.Offset != off {
			t.Fatalf("chunk offset %d, want %d", c.Offset, off)
		}
		joined = append(joined, c.Data...)
		off += int64(len(c.Data))
	}
	if !bytes.Equal(joined, data) {
		t.Fatal("concatenated chunks differ from input")
	}
}

func TestRabinSizeBounds(t *testing.T) {
	data := randomData(2, 1<<21)
	chunks, err := ChunkAll(NewRabin(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range chunks {
		if i < len(chunks)-1 && len(c.Data) < DefaultMinSize {
			t.Fatalf("chunk %d is %d bytes, below min %d", i, len(c.Data), DefaultMinSize)
		}
		if len(c.Data) > DefaultMaxSize {
			t.Fatalf("chunk %d is %d bytes, above max %d", i, len(c.Data), DefaultMaxSize)
		}
	}
}

func TestRabinAverageNearTarget(t *testing.T) {
	data := randomData(3, 8<<20)
	chunks, err := ChunkAll(NewRabin(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	avg := float64(len(data)) / float64(len(chunks))
	// With min=2KB max=16KB the clamped geometric distribution lands near
	// 8-10KB; accept a generous band.
	if avg < 4*1024 || avg > 14*1024 {
		t.Fatalf("average chunk size %.0f outside [4KB, 14KB]", avg)
	}
}

func TestRabinDeterministic(t *testing.T) {
	data := randomData(4, 1<<20)
	a, _ := ChunkAll(NewRabin(bytes.NewReader(data)))
	b, _ := ChunkAll(NewRabin(bytes.NewReader(data)))
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].Data, b[i].Data) {
			t.Fatalf("chunk %d differs between runs", i)
		}
	}
}

func TestRabinShiftResistance(t *testing.T) {
	// Content-defined chunking's raison d'être: inserting bytes at the
	// front must leave most chunk fingerprints unchanged.
	data := randomData(5, 4<<20)
	shifted := append(randomData(6, 100), data...)

	fp := func(chunks []Chunk) map[[32]byte]bool {
		m := make(map[[32]byte]bool)
		for _, c := range chunks {
			m[sha256.Sum256(c.Data)] = true
		}
		return m
	}
	a, _ := ChunkAll(NewRabin(bytes.NewReader(data)))
	b, _ := ChunkAll(NewRabin(bytes.NewReader(shifted)))
	fa, fb := fp(a), fp(b)
	common := 0
	for h := range fa {
		if fb[h] {
			common++
		}
	}
	frac := float64(common) / float64(len(fa))
	if frac < 0.90 {
		t.Fatalf("only %.0f%% of chunks survive a 100-byte prefix insertion; want >= 90%%", frac*100)
	}
}

func TestFixedChunkerWouldNotSurviveShift(t *testing.T) {
	// Contrast case documenting why CDStore defaults to variable-size.
	data := randomData(7, 1<<20)
	shifted := append([]byte{0x55}, data...)
	fp := func(chunks []Chunk) map[[32]byte]bool {
		m := make(map[[32]byte]bool)
		for _, c := range chunks {
			m[sha256.Sum256(c.Data)] = true
		}
		return m
	}
	fc1, _ := NewFixed(bytes.NewReader(data), 4096)
	fc2, _ := NewFixed(bytes.NewReader(shifted), 4096)
	a, _ := ChunkAll(fc1)
	b, _ := ChunkAll(fc2)
	fa, fb := fp(a), fp(b)
	common := 0
	for h := range fa {
		if fb[h] {
			common++
		}
	}
	if common > len(fa)/10 {
		t.Fatalf("fixed chunking unexpectedly survived a shift (%d/%d common)", common, len(fa))
	}
}

func TestRabinSmallInputs(t *testing.T) {
	for _, size := range []int{0, 1, 100, DefaultMinSize - 1, DefaultMinSize, DefaultMinSize + 1} {
		data := randomData(int64(size+100), size)
		chunks, err := ChunkAll(NewRabin(bytes.NewReader(data)))
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		total := 0
		for _, c := range chunks {
			total += len(c.Data)
		}
		if total != size {
			t.Fatalf("size %d: chunks cover %d bytes", size, total)
		}
		if size > 0 && size <= DefaultMinSize && len(chunks) != 1 {
			t.Fatalf("size %d: want a single chunk, got %d", size, len(chunks))
		}
		if size == 0 && len(chunks) != 0 {
			t.Fatalf("empty input produced %d chunks", len(chunks))
		}
	}
}

func TestNewRabinSizesValidation(t *testing.T) {
	r := bytes.NewReader(nil)
	if _, err := NewRabinSizes(r, 2048, 8000, 16384); err == nil {
		t.Fatal("non-power-of-two avg should fail")
	}
	if _, err := NewRabinSizes(r, 16, 8192, 16384); err == nil {
		t.Fatal("min < WindowSize should fail")
	}
	if _, err := NewRabinSizes(r, 8192, 4096, 16384); err == nil {
		t.Fatal("min > avg should fail")
	}
	if _, err := NewRabinSizes(r, 2048, 8192, 4096); err == nil {
		t.Fatal("avg > max should fail")
	}
	if _, err := NewRabinSizes(r, 2048, 8192, 16384); err != nil {
		t.Fatal("valid sizes rejected")
	}
}

func TestFixedChunker(t *testing.T) {
	data := randomData(8, 10000)
	fc, err := NewFixed(bytes.NewReader(data), 4096)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := ChunkAll(fc)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 3 {
		t.Fatalf("got %d chunks, want 3", len(chunks))
	}
	if len(chunks[0].Data) != 4096 || len(chunks[1].Data) != 4096 || len(chunks[2].Data) != 10000-8192 {
		t.Fatal("fixed chunk sizes wrong")
	}
	if chunks[2].Offset != 8192 {
		t.Fatalf("last offset %d, want 8192", chunks[2].Offset)
	}
}

func TestFixedChunkerValidation(t *testing.T) {
	if _, err := NewFixed(bytes.NewReader(nil), 0); err == nil {
		t.Fatal("zero size should fail")
	}
}

type errReader struct{ after int }

func (e *errReader) Read(p []byte) (int, error) {
	if e.after <= 0 {
		return 0, io.ErrClosedPipe
	}
	n := e.after
	if n > len(p) {
		n = len(p)
	}
	e.after -= n
	return n, nil
}

func TestRabinPropagatesReadErrors(t *testing.T) {
	c := NewRabin(&errReader{after: 100})
	// First chunk drains the 100 buffered bytes.
	if _, err := c.Next(); err != nil {
		t.Fatalf("first Next: %v", err)
	}
	if _, err := c.Next(); err != io.ErrClosedPipe {
		t.Fatalf("want ErrClosedPipe, got %v", err)
	}
}

func BenchmarkRabinChunking(b *testing.B) {
	data := randomData(9, 4<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ChunkAll(NewRabin(bytes.NewReader(data))); err != nil {
			b.Fatal(err)
		}
	}
}
