package reedsolomon

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCodec(t testing.TB, n, k int) *Codec {
	t.Helper()
	c, err := New(n, k)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// decodeAll recovers the whole codeword from have: the k data shards
// through ReconstructDataInto, then the parity rows by Encode.
func decodeAll(t testing.TB, c *Codec, have map[int][]byte, size int) [][]byte {
	t.Helper()
	out := make([][]byte, c.N())
	for i := range out {
		out[i] = make([]byte, size)
	}
	if err := c.ReconstructDataInto(have, out[:c.K()]); err != nil {
		t.Fatal(err)
	}
	if err := c.Encode(out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestNewRejectsBadParams(t *testing.T) {
	for _, p := range [][2]int{{3, 3}, {3, 4}, {0, 0}, {4, 0}, {4, -1}, {257, 3}} {
		if _, err := New(p[0], p[1]); err == nil {
			t.Fatalf("New(%d,%d) should fail", p[0], p[1])
		}
	}
}

func TestSystematicProperty(t *testing.T) {
	c := mustCodec(t, 6, 4)
	if !c.enc.SubMatrix(0, 4, 0, 4).IsIdentity() {
		t.Fatal("top k x k of encoding matrix is not identity (code not systematic)")
	}
}

func TestReconstructAllErasurePatterns(t *testing.T) {
	// (5,3): drop every possible subset of 2 shards and reconstruct.
	c := mustCodec(t, 5, 3)
	rng := rand.New(rand.NewSource(4))
	orig := make([][]byte, 5)
	for i := range orig {
		orig[i] = make([]byte, 257)
	}
	for i := 0; i < 3; i++ {
		rng.Read(orig[i])
	}
	if err := c.Encode(orig); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			have := map[int][]byte{}
			for i := range orig {
				if i != a && i != b {
					have[i] = orig[i]
				}
			}
			shards := decodeAll(t, c, have, 257)
			for i := range shards {
				if !bytes.Equal(shards[i], orig[i]) {
					t.Fatalf("erase {%d,%d}: shard %d mismatch", a, b, i)
				}
			}
		}
	}
}

func TestReconstructDataFromParityOnlySubsets(t *testing.T) {
	c := mustCodec(t, 4, 2)
	data := [][]byte{[]byte("hello world!"), []byte("goodbye !!!!")}
	shards := make([][]byte, 4)
	shards[0] = append([]byte(nil), data[0]...)
	shards[1] = append([]byte(nil), data[1]...)
	shards[2] = make([]byte, 12)
	shards[3] = make([]byte, 12)
	if err := c.Encode(shards); err != nil {
		t.Fatal(err)
	}
	// Recover from the two parity shards only.
	got := [][]byte{make([]byte, 12), make([]byte, 12)}
	if err := c.ReconstructDataInto(map[int][]byte{2: shards[2], 3: shards[3]}, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], data[0]) || !bytes.Equal(got[1], data[1]) {
		t.Fatal("parity-only reconstruction mismatch")
	}
}

func TestReconstructDataFastPath(t *testing.T) {
	c := mustCodec(t, 4, 3)
	have := map[int][]byte{
		0: []byte("aa"), 1: []byte("bb"), 2: []byte("cc"), 3: []byte("dd"),
	}
	got := [][]byte{make([]byte, 2), make([]byte, 2), make([]byte, 2)}
	if err := c.ReconstructDataInto(have, got); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !bytes.Equal(got[i], have[i]) {
			t.Fatal("fast path should return data shards verbatim")
		}
	}
}

func TestReconstructErrors(t *testing.T) {
	c := mustCodec(t, 4, 3)
	out := [][]byte{make([]byte, 1), make([]byte, 1), make([]byte, 1)}
	if err := c.ReconstructDataInto(map[int][]byte{0: []byte("x")}, out); err != ErrTooFewShards {
		t.Fatalf("want ErrTooFewShards, got %v", err)
	}
	err := c.ReconstructDataInto(map[int][]byte{0: []byte("x"), 1: []byte("y"), 9: []byte("z")}, out)
	if !errors.Is(err, ErrInvalidShardNum) {
		t.Fatalf("want ErrInvalidShardNum, got %v", err)
	}
	if err := c.ReconstructDataInto(map[int][]byte{0: []byte("x"), 1: []byte("yy"), 2: []byte("z")}, out); err != ErrShardSize {
		t.Fatalf("want ErrShardSize, got %v", err)
	}
}

func TestEncodeErrors(t *testing.T) {
	c := mustCodec(t, 4, 3)
	if err := c.Encode(make([][]byte, 3)); err == nil {
		t.Fatal("wrong shard count should fail")
	}
	bad := [][]byte{{1}, {2, 3}, {4}, {5}}
	if err := c.Encode(bad); err != ErrShardSize {
		t.Fatalf("want ErrShardSize, got %v", err)
	}
	empty := [][]byte{{}, {}, {}, {}}
	if err := c.Encode(empty); err != ErrShardSize {
		t.Fatalf("want ErrShardSize for empty shards, got %v", err)
	}
	if err := c.SplitInto(make([]byte, 30), [][]byte{make([]byte, 9), make([]byte, 9), make([]byte, 9), make([]byte, 9)}); err == nil {
		t.Error("SplitInto accepted wrong shard size")
	}
	if err := c.SplitInto(make([]byte, 30), [][]byte{make([]byte, 10), make([]byte, 10), make([]byte, 10)}); err == nil {
		t.Error("SplitInto accepted wrong shard count")
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	c := mustCodec(t, 5, 3)
	err := quick.Check(func(data []byte) bool {
		shards := c.Split(data)
		if len(shards) != 5 {
			return false
		}
		joined := bytes.Join(shards[:3], nil)
		return bytes.Equal(joined[:len(data)], data) &&
			bytes.Equal(joined[len(data):], make([]byte, len(joined)-len(data)))
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitEmptyData(t *testing.T) {
	c := mustCodec(t, 4, 2)
	shards := c.Split(nil)
	if len(shards) != 4 || len(shards[0]) != 1 {
		t.Fatalf("Split(nil) should produce 4 one-byte shards, got %d x %d", len(shards), len(shards[0]))
	}
}

func TestPropertyEncodeReconstructRandomErasures(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(10)
		k := 1 + rng.Intn(n-1)
		if k >= n {
			k = n - 1
		}
		if k == 0 {
			k = 1
		}
		c := mustCodec(t, n, k)
		size := 1 + rng.Intn(300)
		shards := make([][]byte, n)
		for i := range shards {
			shards[i] = make([]byte, size)
		}
		for i := 0; i < k; i++ {
			rng.Read(shards[i])
		}
		orig := make([][]byte, n)
		if err := c.Encode(shards); err != nil {
			t.Fatal(err)
		}
		for i := range shards {
			orig[i] = append([]byte(nil), shards[i]...)
		}
		// Erase up to n-k random shards.
		erase := rng.Intn(n - k + 1)
		have := map[int][]byte{}
		for _, i := range rng.Perm(n)[erase:] {
			have[i] = shards[i]
		}
		shards = decodeAll(t, c, have, size)
		for i := range shards {
			if !bytes.Equal(shards[i], orig[i]) {
				t.Fatalf("n=%d k=%d: shard %d mismatch after reconstruct", n, k, i)
			}
		}
	}
}

func TestLargeN(t *testing.T) {
	// The paper sweeps n up to 20 (Fig 5b); make sure codecs stay correct there.
	for n := 4; n <= 20; n += 4 {
		k := n * 3 / 4
		c := mustCodec(t, n, k)
		data := make([]byte, 8192)
		rand.New(rand.NewSource(int64(n))).Read(data)
		shards := c.Split(data)
		if err := c.Encode(shards); err != nil {
			t.Fatal(err)
		}
		have := map[int][]byte{}
		for i := n - k; i < n; i++ { // take the "last" k shards
			have[i] = shards[i]
		}
		rec := decodeAll(t, c, have, len(shards[0]))
		if joined := bytes.Join(rec[:k], nil); !bytes.Equal(joined[:len(data)], data) {
			t.Fatalf("n=%d: data mismatch", n)
		}
	}
}

func BenchmarkEncode43_8KB(b *testing.B) {
	c := mustCodec(b, 4, 3)
	data := make([]byte, 8192)
	rand.New(rand.NewSource(5)).Read(data)
	shards := c.Split(data)
	b.SetBytes(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstruct43_8KB(b *testing.B) {
	c := mustCodec(b, 4, 3)
	data := make([]byte, 8192)
	rand.New(rand.NewSource(6)).Read(data)
	shards := c.Split(data)
	if err := c.Encode(shards); err != nil {
		b.Fatal(err)
	}
	have := map[int][]byte{1: shards[1], 2: shards[2], 3: shards[3]}
	out := c.Split(data)[:3]
	b.SetBytes(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ReconstructDataInto(have, out); err != nil {
			b.Fatal(err)
		}
	}
}
