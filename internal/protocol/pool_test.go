package protocol

import (
	"bytes"
	"io"
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

// TestDecodeFingerprintsIntoMatchesCopying: decoding into a session's
// reused scratch, which holds an earlier request's fingerprints, gives
// what decoding into a fresh slice gives.
func TestDecodeFingerprintsIntoMatchesCopying(t *testing.T) {
	fps := make([]metadata.Fingerprint, 50)
	for i := range fps {
		fps[i] = metadata.FingerprintOf([]byte{byte(i)})
	}
	p := EncodeFingerprints(fps)
	a, err := DecodeFingerprintsInto(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := DecodeFingerprintsInto(nil, EncodeFingerprints(fps[25:]))
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeFingerprintsInto(scratch, p)
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

func testDownloads(n, size int) []ShareDownload {
	shares := make([]ShareDownload, n)
	for i := range shares {
		data := bytes.Repeat([]byte{byte(i + 1)}, size+i)
		shares[i] = ShareDownload{Fingerprint: metadata.FingerprintOf(data), Data: data}
	}
	return shares
}

// TestWriteSharesMatchesWriteMsg pins the get reply's wire format: what
// the server streams from the container cache is, byte for byte, the
// reference WriteMsg(MsgShares, EncodeShares(...)) frame, and inside a mux
// frame the WriteMuxMsg one — for replies that fit the write buffer, span
// it many times, and leave a header straddling its end, down to zero
// shares and up to a share of MaxShareBytes through a mux frame. A reply
// past MaxMessage is refused before any byte is written.
func TestWriteSharesMatchesWriteMsg(t *testing.T) {
	big := testDownloads(40, 9000)
	big[7].Data = nil
	cases := map[string][]ShareDownload{
		"zero shares":          nil,
		"one empty share":      testDownloads(1, 0),
		"small":                testDownloads(3, 1400),
		"many buffers' worth":  big,
		"1024 shares":          testDownloads(1024, 1400),
		"share at the maximum": {{Data: make([]byte, MaxShareBytes)}},
	}
	const stream = 0xdeadbeef
	for name, shares := range cases {
		for _, bufSize := range []int{1, 40, 41, 4096, 256 << 10} {
			for _, muxed := range []bool{false, true} {
				var got, want bytes.Buffer
				if err := NewConnSize(&got, bufSize).WriteShares(muxed, stream, shares); err != nil {
					t.Fatalf("%s, muxed %v: %v", name, muxed, err)
				}
				ref := NewConnSize(&want, bufSize)
				var err error
				if muxed {
					err = ref.WriteMuxMsg(stream, MsgShares, EncodeShares(shares))
				} else {
					err = ref.WriteMsg(MsgShares, EncodeShares(shares))
				}
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("%s, muxed %v, %d-byte buffer: streamed reply differs from the reference", name, muxed, bufSize)
				}
			}
		}
	}
	oversized := map[string]struct {
		muxed bool
		size  int
	}{
		"one byte past MaxShareBytes, muxed": {true, MaxShareBytes + 1},
		"one byte past MaxMessage, plain":    {false, MaxMessage - 4 - metadata.FingerprintSize - 4 + 1},
	}
	for name, tc := range oversized {
		var w bytes.Buffer
		err := NewConn(&w).WriteShares(tc.muxed, 1, []ShareDownload{{Data: make([]byte, tc.size)}})
		if err != ErrTooLarge || w.Len() != 0 {
			t.Fatalf("%s: err %v, %d bytes written", name, err, w.Len())
		}
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

// trickleReader serves data at most chunk bytes per Read, as a socket
// hands over what has arrived, and records how much each Read asked for
// and at what offset.
type trickleReader struct {
	data  []byte
	chunk int
	off   int
	asks  [][2]int // offset, len(p)
}

func (r *trickleReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		return 0, io.EOF
	}
	r.asks = append(r.asks, [2]int{r.off, len(p)})
	n := copy(p[:min(len(p), r.chunk)], r.data[r.off:])
	r.off += n
	return n, nil
}

func (r *trickleReader) Write(p []byte) (int, error) { return len(p), nil }

// TestReadMsgIntoReadsPayloadIntoTheFrame: the read that finds a
// message's header fills the read buffer, and the part of the payload it
// brought is copied out of it; every later read of the payload goes from
// the stream straight into the frame, asking for all that remains — the
// tail included, where a buffered read would fill the buffer and copy
// each byte twice.
func TestReadMsgIntoReadsPayloadIntoTheFrame(t *testing.T) {
	const bufSize = 4096
	payload := EncodeShares(testDownloads(50, 1400))
	var wire bytes.Buffer
	if err := NewConn(&wire).WriteMsg(MsgShares, payload); err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1000, bufSize, 3 * bufSize} {
		src := &trickleReader{data: wire.Bytes(), chunk: chunk}
		var frame []byte
		typ, got, err := NewConnSize(src, bufSize).ReadMsgInto(&frame)
		if err != nil || typ != MsgShares || !bytes.Equal(got, payload) {
			t.Fatalf("chunk %d: read %d, %v; payload equal %v", chunk, typ, err, bytes.Equal(got, payload))
		}
		if src.asks[0] != [2]int{0, bufSize} {
			t.Fatalf("chunk %d: first read asked %v, want the buffer's fill", chunk, src.asks[0])
		}
		for _, ask := range src.asks[1:] {
			if off, n := ask[0], ask[1]; n != len(wire.Bytes())-off {
				t.Fatalf("chunk %d: read at %d asked %d bytes, want the %d left of the message",
					chunk, off, n, len(wire.Bytes())-off)
			}
		}
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

// TestWriteSharesAllocFloor pins the get reply's framing: streaming it,
// plain or muxed, allocates nothing — no payload, no per-share header.
func TestWriteSharesAllocFloor(t *testing.T) {
	shares := testDownloads(64, 1024)
	conn := NewConn(&repeatReader{data: []byte{0}})
	for _, muxed := range []bool{false, true} {
		allocs := testing.AllocsPerRun(100, func() {
			if err := conn.WriteShares(muxed, 7, shares); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Fatalf("WriteShares (muxed %v) allocates %.1f objects per reply, want 0", muxed, allocs)
		}
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
