package protocol

import (
	"bytes"
	"testing"

	"cdstore/internal/metadata"
)

func testBatch(n, size int) []ShareUpload {
	shares := make([]ShareUpload, n)
	for i := range shares {
		data := bytes.Repeat([]byte{byte(i + 1)}, size+i)
		shares[i] = ShareUpload{SecretSeq: uint64(i), SecretSize: uint32(4 * size), Data: data}
	}
	return shares
}

func TestDecodeShareBatchIntoMatchesCopying(t *testing.T) {
	shares := testBatch(17, 700)
	p := EncodeShareBatch(shares)
	copied, err := DecodeShareBatch(p)
	if err != nil {
		t.Fatal(err)
	}
	var dst []ShareUpload
	aliased, err := DecodeShareBatchInto(dst, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(copied) != len(aliased) {
		t.Fatalf("len %d vs %d", len(copied), len(aliased))
	}
	for i := range copied {
		if copied[i].SecretSeq != aliased[i].SecretSeq ||
			copied[i].SecretSize != aliased[i].SecretSize ||
			!bytes.Equal(copied[i].Data, aliased[i].Data) {
			t.Fatalf("share %d differs between copying and aliasing decode", i)
		}
	}
	// The aliasing decode must really alias: mutating the payload must
	// show through (that is the zero-copy contract callers rely on and
	// must respect before recycling the frame).
	p[len(p)-1] ^= 0xFF
	if bytes.Equal(copied[len(copied)-1].Data, aliased[len(aliased)-1].Data) {
		t.Fatal("DecodeShareBatchInto copied share data; expected aliasing")
	}
}

func TestDecodeFingerprintsIntoMatchesCopying(t *testing.T) {
	fps := make([]metadata.Fingerprint, 50)
	for i := range fps {
		fps[i] = metadata.FingerprintOf([]byte{byte(i)})
	}
	p := EncodeFingerprints(fps)
	a, err := DecodeFingerprints(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeFingerprintsInto(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("len %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fingerprint %d differs", i)
		}
	}
}

func TestEncodeSharesIntoMatchesEncodeShares(t *testing.T) {
	shares := make([]ShareDownload, 9)
	for i := range shares {
		data := bytes.Repeat([]byte{byte(i)}, 300+i)
		shares[i] = ShareDownload{Fingerprint: metadata.FingerprintOf(data), Data: data}
	}
	want := EncodeShares(shares)
	got := EncodeSharesInto(nil, shares)
	if !bytes.Equal(want, got) {
		t.Fatal("EncodeSharesInto differs from EncodeShares")
	}
	// Appending into a reused buffer starts at buf[:0] semantics only if
	// the caller re-slices; EncodeSharesInto itself appends.
	prefix := []byte("xx")
	got2 := EncodeSharesInto(prefix, shares)
	if !bytes.Equal(got2[:2], []byte("xx")) || !bytes.Equal(got2[2:], want) {
		t.Fatal("EncodeSharesInto did not append to the given buffer")
	}
}

// repeatReader serves the same framed message forever, so a single Conn
// can read it in a steady-state loop for allocation measurement.
type repeatReader struct {
	data []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	r.off = (r.off + n) % len(r.data)
	return n, nil
}

func (r *repeatReader) Write(p []byte) (int, error) { return len(p), nil }

// TestPutPathDecodeAllocFloor pins the steady-state allocation count of
// the server put path's wire work — pooled frame read + aliasing batch
// decode — at zero. This is the protocol-layer half of the server's
// alloc-floor guarantee.
func TestPutPathDecodeAllocFloor(t *testing.T) {
	shares := testBatch(64, 1024)
	payload := EncodeShareBatch(shares)
	framed := append([]byte{MsgPutShares, 0, 0, 0, 0}, payload...)
	framed[1] = byte(len(payload) >> 24)
	framed[2] = byte(len(payload) >> 16)
	framed[3] = byte(len(payload) >> 8)
	framed[4] = byte(len(payload))
	conn := NewConn(&repeatReader{data: framed})

	frame := GetFrame()
	defer PutFrame(frame)
	var batch []ShareUpload
	// Warm up: grow the frame and the batch slice to the working set.
	for i := 0; i < 3; i++ {
		typ, p, err := conn.ReadMsgInto(frame)
		if err != nil || typ != MsgPutShares {
			t.Fatalf("warmup read: %v %v", typ, err)
		}
		batch, err = DecodeShareBatchInto(batch, p)
		if err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		typ, p, err := conn.ReadMsgInto(frame)
		if err != nil || typ != MsgPutShares {
			t.Fatalf("read: %v %v", typ, err)
		}
		batch, err = DecodeShareBatchInto(batch, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != 64 {
			t.Fatalf("decoded %d shares", len(batch))
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state put-path decode allocates %.1f per message, want 0", allocs)
	}
}

// wireBytes returns what WriteShareBatch and, as the reference,
// WriteMsg(MsgPutShares, EncodeShareBatch) put on the wire for shares,
// each through a connection with a bufSize-byte write buffer.
func wireBytes(t testing.TB, bufSize int, shares []ShareUpload) (streamed, framed []byte) {
	t.Helper()
	var a, b bytes.Buffer
	if err := NewConnSize(&a, bufSize).WriteShareBatch(shares); err != nil {
		t.Fatal(err)
	}
	if err := NewConnSize(&b, bufSize).WriteMsg(MsgPutShares, EncodeShareBatch(shares)); err != nil {
		t.Fatal(err)
	}
	return a.Bytes(), b.Bytes()
}

// TestWriteShareBatchMatchesEncodeShareBatch: the put frame the client
// streams from its share buffers is, byte for byte, the frame built by
// the reference encoder — for batches that fit the write buffer, span
// it many times, and leave a header straddling its end — and the server
// side decodes it to the same shares.
func TestWriteShareBatchMatchesEncodeShareBatch(t *testing.T) {
	big := testBatch(40, 9000)
	big[7].Data = nil
	big[8].Data = big[8].Data[:1]
	cases := map[string][]ShareUpload{
		"empty batch":            nil,
		"one empty share":        testBatch(1, 0),
		"small":                  testBatch(3, 1400),
		"extreme header values":  {{SecretSeq: ^uint64(0), SecretSize: ^uint32(0), Data: []byte{1}}},
		"many buffers' worth":    big,
		"1024 shares of a batch": testBatch(1024, 2731),
	}
	for name, shares := range cases {
		for _, bufSize := range []int{1, 15, 16, 17, 4096, 256 << 10} {
			streamed, framed := wireBytes(t, bufSize, shares)
			if !bytes.Equal(streamed, framed) {
				t.Fatalf("%s, %d-byte buffer: streamed frame differs from the reference", name, bufSize)
			}
			typ, payload, err := NewConn(bytes.NewBuffer(streamed)).ReadMsg()
			if err != nil || typ != MsgPutShares {
				t.Fatalf("%s: read back: type %d, %v", name, typ, err)
			}
			got, err := DecodeShareBatchInto(nil, payload)
			if err != nil || len(got) != len(shares) {
				t.Fatalf("%s: decoded %d shares, %v", name, len(got), err)
			}
			for i := range got {
				if got[i].SecretSeq != shares[i].SecretSeq || got[i].SecretSize != shares[i].SecretSize ||
					!bytes.Equal(got[i].Data, shares[i].Data) {
					t.Fatalf("%s: share %d differs after the round trip", name, i)
				}
			}
		}
	}
	// A batch past MaxMessage is refused before a byte is written.
	var w bytes.Buffer
	huge := []ShareUpload{{Data: make([]byte, MaxMessage)}}
	if err := NewConn(&w).WriteShareBatch(huge); err != ErrTooLarge || w.Len() != 0 {
		t.Fatalf("oversized batch: err %v, %d bytes written", err, w.Len())
	}
}

// TestWriteShareBatchAllocFloor: streaming a batch allocates nothing —
// no payload, no per-share header object.
func TestWriteShareBatchAllocFloor(t *testing.T) {
	shares := testBatch(256, 2731)
	conn := NewConn(&repeatReader{data: []byte{0}})
	allocs := testing.AllocsPerRun(50, func() {
		if err := conn.WriteShareBatch(shares); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("WriteShareBatch allocates %.1f objects per batch, want 0", allocs)
	}
}

// TestGetPathEncodeAllocFloor pins the response-encode half: building a
// MsgShares payload into a reused buffer allocates nothing once grown.
func TestGetPathEncodeAllocFloor(t *testing.T) {
	shares := make([]ShareDownload, 64)
	for i := range shares {
		data := bytes.Repeat([]byte{byte(i)}, 1024)
		shares[i] = ShareDownload{Fingerprint: metadata.FingerprintOf(data), Data: data}
	}
	buf := EncodeSharesInto(nil, shares) // grow once
	allocs := testing.AllocsPerRun(100, func() {
		buf = EncodeSharesInto(buf[:0], shares)
	})
	if allocs > 0 {
		t.Fatalf("steady-state get-path encode allocates %.1f per message, want 0", allocs)
	}
}

// FuzzShareBatch covers the put-path batch codec the way FuzzRecipe
// covers recipes: attacker bytes must never panic either decoder, the
// copying and aliasing decoders must agree exactly, and accepted inputs
// must round-trip canonically through EncodeShareBatch.
func FuzzShareBatch(f *testing.F) {
	f.Add(EncodeShareBatch(nil))
	f.Add(EncodeShareBatch(testBatch(1, 0)))
	f.Add(EncodeShareBatch(testBatch(3, 1400)))
	f.Add(EncodeShareBatch([]ShareUpload{{SecretSeq: ^uint64(0), SecretSize: ^uint32(0), Data: []byte{1}}}))
	// Liars: absurd count, truncated header, trailing garbage.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 1, 1, 2, 3})
	f.Add(append(EncodeShareBatch(testBatch(1, 8)), 0xAA))
	f.Fuzz(func(t *testing.T, data []byte) {
		copied, errA := DecodeShareBatch(data)
		aliased, errB := DecodeShareBatchInto(nil, data)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("decoder disagreement: copying=%v aliasing=%v", errA, errB)
		}
		if errA != nil {
			return
		}
		if len(copied) != len(aliased) {
			t.Fatalf("decoded lengths differ: %d vs %d", len(copied), len(aliased))
		}
		for i := range copied {
			if copied[i].SecretSeq != aliased[i].SecretSeq ||
				copied[i].SecretSize != aliased[i].SecretSize ||
				!bytes.Equal(copied[i].Data, aliased[i].Data) {
				t.Fatalf("share %d differs between decoders", i)
			}
		}
		if round := EncodeShareBatch(copied); !bytes.Equal(round, data) {
			t.Fatalf("accepted batch is not canonical:\n in  %x\n out %x", data, round)
		}
		// The streamed writer puts the reference encoder's bytes on the
		// wire, whatever the write buffer's size makes of the pieces.
		for _, bufSize := range []int{1, 16, 4096} {
			if streamed, framed := wireBytes(t, bufSize, aliased); !bytes.Equal(streamed, framed) {
				t.Fatalf("WriteShareBatch through a %d-byte buffer differs from WriteMsg(EncodeShareBatch)", bufSize)
			}
		}
	})
}
