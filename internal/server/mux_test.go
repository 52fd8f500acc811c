package server

import (
	"fmt"
	"testing"

	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
)

// mcall performs one request/response exchange on a mux stream.
func mcall(t *testing.T, pc *protocol.Conn, stream uint32, typ byte, payload []byte) (byte, []byte) {
	t.Helper()
	if err := pc.WriteMuxMsg(stream, typ, payload); err != nil {
		t.Fatal(err)
	}
	rtyp, reply, err := readMsg(pc)
	if err != nil {
		t.Fatal(err)
	}
	if rtyp != protocol.MsgMuxData {
		t.Fatalf("reply not mux-framed: outer type %d", rtyp)
	}
	rstream, ityp, inner, err := protocol.DecodeMuxHeader(reply)
	if err != nil {
		t.Fatal(err)
	}
	if rstream != stream {
		t.Fatalf("reply on stream %d, want %d", rstream, stream)
	}
	return ityp, inner
}

func muxHello(t *testing.T, pc *protocol.Conn, stream uint32, user uint64) {
	t.Helper()
	rtyp, reply := mcall(t, pc, stream, protocol.MsgHello, protocol.EncodeHello(user))
	if rtyp != protocol.MsgHelloOK {
		t.Fatalf("stream %d hello reply type %d: %s", stream, rtyp, reply)
	}
}

// TestMuxAuthIsPerStream is the regression test for per-connection
// authentication: a virtual session on an otherwise-authenticated
// connection must present its OWN Hello before anything else.
func TestMuxAuthIsPerStream(t *testing.T) {
	_, pc := testServer(t)
	muxHello(t, pc, 1, 100)

	// Stream 2 rides the same (authenticated) connection but has never
	// said Hello: rejected.
	rtyp, reply := mcall(t, pc, 2, protocol.MsgListFiles, nil)
	if rtyp != protocol.MsgError {
		t.Fatalf("unauthenticated stream served: reply type %d", rtyp)
	}
	re, err := protocol.DecodeError(reply)
	if err != nil || re.Code != protocol.CodeBadRequest {
		t.Fatalf("error decode: %+v, %v", re, err)
	}

	// The rejection is per stream, not per connection: stream 1 still
	// works, and stream 2 works after its own Hello.
	if rtyp, _ := mcall(t, pc, 1, protocol.MsgListFiles, nil); rtyp != protocol.MsgFileList {
		t.Fatalf("authenticated stream broken by sibling's rejection: %d", rtyp)
	}
	muxHello(t, pc, 2, 200)
	if rtyp, _ := mcall(t, pc, 2, protocol.MsgListFiles, nil); rtyp != protocol.MsgFileList {
		t.Fatalf("stream 2 dead after its own hello: %d", rtyp)
	}
}

// TestMuxStreamsAreIsolatedSessions runs two users' full put/query
// exchanges interleaved message-by-message on one connection and checks
// the dedup state lands under the right user.
func TestMuxStreamsAreIsolatedSessions(t *testing.T) {
	srv, pc := testServer(t)
	muxHello(t, pc, 1, 1)
	muxHello(t, pc, 2, 2)

	shareA := []byte("stream one's share content")
	shareB := []byte("stream two's different share")
	put := func(stream uint32, data []byte) {
		t.Helper()
		batch := protocol.EncodeShareBatch([]protocol.ShareUpload{
			{SecretSeq: 0, SecretSize: uint32(len(data)), Data: data},
		})
		rtyp, reply := mcall(t, pc, stream, protocol.MsgPutShares, batch)
		if rtyp != protocol.MsgPutOK {
			t.Fatalf("stream %d put reply %d: %s", stream, rtyp, reply)
		}
	}
	put(1, shareA)
	put(2, shareB)
	put(2, shareA) // inter-user dedup across streams: stored 0, owned by user 2 too

	owns := func(stream uint32, data []byte) bool {
		t.Helper()
		fp := metadata.FingerprintOf(data)
		rtyp, reply := mcall(t, pc, stream, protocol.MsgQuery,
			protocol.EncodeFingerprints([]metadata.Fingerprint{fp}))
		if rtyp != protocol.MsgQueryResult {
			t.Fatalf("stream %d query reply %d", stream, rtyp)
		}
		owned, _ := protocol.DecodeBitmap(reply)
		return owned[0]
	}
	if !owns(1, shareA) || owns(1, shareB) {
		t.Fatal("stream 1 ownership wrong: intra-user dedup state leaked across streams")
	}
	if !owns(2, shareB) || !owns(2, shareA) {
		t.Fatal("stream 2 ownership wrong")
	}
	if st := srv.Stats(); st.SharesStored != 2 {
		t.Fatalf("stored %d unique shares, want 2 (shareA deduped across streams)", st.SharesStored)
	}
}

// TestMuxAndLegacyCoexist mixes plain messages and mux frames on one
// connection: the legacy session and the virtual sessions hold disjoint
// authentication state.
func TestMuxAndLegacyCoexist(t *testing.T) {
	_, pc := testServer(t)
	hello(t, pc, 1) // legacy (plain-message) session

	// A mux stream on the same connection starts unauthenticated.
	rtyp, _ := mcall(t, pc, 5, protocol.MsgListFiles, nil)
	if rtyp != protocol.MsgError {
		t.Fatalf("mux stream inherited legacy session's auth: %d", rtyp)
	}
	muxHello(t, pc, 5, 2)
	if rtyp, _ := mcall(t, pc, 5, protocol.MsgListFiles, nil); rtyp != protocol.MsgFileList {
		t.Fatalf("mux stream reply %d", rtyp)
	}
	// And the legacy session still answers plain messages in between.
	if rtyp, _ := call(t, pc, protocol.MsgListFiles, nil); rtyp != protocol.MsgFileList {
		t.Fatalf("legacy session reply %d", rtyp)
	}
}

// TestMuxStreamByeRetiresSession checks that an inner Bye ends the
// virtual session: reusing the stream id afterwards is a NEW session
// that must authenticate again, and Bye on a stream that never existed
// is an idempotent no-op.
func TestMuxStreamByeRetiresSession(t *testing.T) {
	_, pc := testServer(t)
	muxHello(t, pc, 3, 1)
	if err := pc.WriteMuxMsg(3, protocol.MsgBye, nil); err != nil {
		t.Fatal(err)
	}
	// Bye for a stream that never existed: ignored, connection lives.
	if err := pc.WriteMuxMsg(999, protocol.MsgBye, nil); err != nil {
		t.Fatal(err)
	}
	// Stream 3 reused: fresh session, not authenticated.
	rtyp, reply := mcall(t, pc, 3, protocol.MsgListFiles, nil)
	if rtyp != protocol.MsgError {
		t.Fatalf("retired stream still authenticated: %d", rtyp)
	}
	if re, _ := protocol.DecodeError(reply); re.Code != protocol.CodeBadRequest {
		t.Fatalf("error code %d", re.Code)
	}
	muxHello(t, pc, 3, 1)
}

// TestMuxStreamCap exhausts MaxMuxStreams live virtual sessions on one
// connection and checks the next stream is refused in-band (the
// connection itself survives), then that retiring a stream frees a slot.
func TestMuxStreamCap(t *testing.T) {
	if testing.Short() {
		t.Skip("65k-session exchange")
	}
	_, pc := testServer(t)
	// Pipelined fill: the writer streams hellos while this goroutine
	// reads replies, since net.Pipe has no buffer to absorb them.
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < protocol.MaxMuxStreams; i++ {
			if err := pc.WriteMuxMsg(uint32(i), protocol.MsgHello, protocol.EncodeHello(1)); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < protocol.MaxMuxStreams; i++ {
		_, reply, err := readMsg(pc)
		if err != nil {
			t.Fatal(err)
		}
		_, ityp, _, err := protocol.DecodeMuxHeader(reply)
		if err != nil || ityp != protocol.MsgHelloOK {
			t.Fatalf("stream %d: %d %v", i, ityp, err)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	// One over the cap: refused per-stream, in-band.
	rtyp, reply := mcall(t, pc, protocol.MaxMuxStreams, protocol.MsgHello, protocol.EncodeHello(1))
	if rtyp != protocol.MsgError {
		t.Fatalf("stream over cap accepted: %d", rtyp)
	}
	if re, _ := protocol.DecodeError(reply); re.Code != protocol.CodeBadRequest {
		t.Fatalf("error code %d", re.Code)
	}
	// Retiring any live stream frees a slot for a new one.
	if err := pc.WriteMuxMsg(0, protocol.MsgBye, nil); err != nil {
		t.Fatal(err)
	}
	muxHello(t, pc, protocol.MaxMuxStreams, 1)
	// The connection as a whole still serves its other streams.
	if rtyp, _ := mcall(t, pc, 1, protocol.MsgListFiles, nil); rtyp != protocol.MsgFileList {
		t.Fatalf("surviving stream reply %d", rtyp)
	}
}

// TestMuxErrorIsolation checks a per-stream protocol error (malformed
// payload) is reported on that stream and every other stream — and the
// connection — keeps working.
func TestMuxErrorIsolation(t *testing.T) {
	_, pc := testServer(t)
	muxHello(t, pc, 1, 1)
	muxHello(t, pc, 2, 1)
	rtyp, _ := mcall(t, pc, 1, protocol.MsgQuery, []byte{1, 2}) // truncated fingerprint list
	if rtyp != protocol.MsgError {
		t.Fatalf("malformed query reply %d", rtyp)
	}
	for _, stream := range []uint32{1, 2} {
		if rtyp, _ := mcall(t, pc, stream, protocol.MsgListFiles, nil); rtyp != protocol.MsgFileList {
			t.Fatalf("stream %d dead after sibling error: %d", stream, rtyp)
		}
	}
}

// TestMuxManyStreamsPutShares drives a few hundred virtual sessions'
// uploads down one connection and checks every session completes — the
// in-miniature version of the gateway's 1024-sessions-over-4-conns shape.
func TestMuxManyStreamsPutShares(t *testing.T) {
	srv, pc := testServer(t)
	const streams = 256
	for i := 0; i < streams; i++ {
		muxHello(t, pc, uint32(i), uint64(i%8))
	}
	for i := 0; i < streams; i++ {
		data := []byte(fmt.Sprintf("stream %d payload", i))
		batch := protocol.EncodeShareBatch([]protocol.ShareUpload{
			{SecretSeq: 0, SecretSize: uint32(len(data)), Data: data},
		})
		rtyp, reply := mcall(t, pc, uint32(i), protocol.MsgPutShares, batch)
		if rtyp != protocol.MsgPutOK {
			t.Fatalf("stream %d put reply %d: %s", i, rtyp, reply)
		}
	}
	if st := srv.Stats(); st.SharesStored != streams {
		t.Fatalf("stored %d, want %d", st.SharesStored, streams)
	}
}
