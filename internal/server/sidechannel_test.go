package server

import (
	"bytes"
	"fmt"
	"testing"

	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/storage"
)

// reply is one answer of a scripted session, as the wire carried it.
type reply struct {
	typ     byte
	payload []byte
}

// askerScript is what user 2 sends in TestRepliesDependOnlyOnTheAsker:
// every request type the server dispatches, the two retired ones (19 and
// 20, once a share-to-container query and its answer), and questions
// about x — content user 1 may have stored first — and y, a share only
// user 1 could hold. Each run stores x under its own path and deletes it
// again.
func askerScript(x, y []byte, path string) [][2][]byte {
	fpX, fpY := metadata.FingerprintOf(x), metadata.FingerprintOf(y)
	both := protocol.EncodeFingerprints([]metadata.Fingerprint{fpX, fpY})
	recipe := &metadata.Recipe{
		FileMeta: metadata.FileMeta{Path: path, FileSize: 10, NumSecrets: 1},
		Entries:  []metadata.RecipeEntry{{ShareFP: fpX, ShareSize: uint32(len(x)), SecretSize: 10}},
	}
	msg := func(typ byte, payload []byte) [2][]byte { return [2][]byte{{typ}, payload} }
	return [][2][]byte{
		msg(protocol.MsgHello, protocol.EncodeHello(2)),
		msg(protocol.MsgQuery, both),
		msg(19, both),
		msg(protocol.MsgPutShares, protocol.EncodeShareBatch([]protocol.ShareUpload{{SecretSize: 10, Data: x}})),
		msg(protocol.MsgQuery, both),
		msg(19, both),
		msg(20, nil),
		msg(protocol.MsgPutRecipe, recipe.Marshal()),
		msg(protocol.MsgGetRecipe, protocol.EncodeString(path)),
		msg(protocol.MsgGetRecipe, protocol.EncodeString("/u1/x")),
		msg(protocol.MsgGetShares, protocol.EncodeFingerprints([]metadata.Fingerprint{fpX})),
		msg(protocol.MsgGetShares, protocol.EncodeFingerprints([]metadata.Fingerprint{fpY})),
		msg(protocol.MsgListFiles, nil),
		msg(protocol.MsgScrubControl, nil),
		msg(protocol.MsgScrubStatus, nil),
		msg(protocol.MsgDeleteFile, protocol.EncodeString(path)),
		msg(protocol.MsgGetShares, protocol.EncodeFingerprints([]metadata.Fingerprint{fpX})),
		msg(protocol.MsgDeleteFile, protocol.EncodeString(path)),
	}
}

// askerWorld runs user 2's script, on a connection of its own and then on
// a mux stream, against a fresh server on which user 1 first stored x
// and y (flushed), or on which nobody did, and returns every reply.
func askerWorld(t *testing.T, user1First bool) []reply {
	t.Helper()
	srv, err := New(Config{CloudIndex: 0, N: 4, K: 3, IndexDir: t.TempDir(), Backend: storage.NewMemory()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	x := bytes.Repeat([]byte("content both users may hold "), 4)
	y := bytes.Repeat([]byte("a share only user 1 could hold "), 4)
	if user1First {
		pc := dial(t, srv, 1)
		for _, data := range [][]byte{x, y} {
			if typ, r := call(t, pc, protocol.MsgPutShares, protocol.EncodeShareBatch([]protocol.ShareUpload{{SecretSize: 10, Data: data}})); typ != protocol.MsgPutOK {
				t.Fatalf("user 1 put: reply %d %s", typ, r)
			}
		}
		recipe := &metadata.Recipe{
			FileMeta: metadata.FileMeta{Path: "/u1/x", FileSize: 10, NumSecrets: 1},
			Entries:  []metadata.RecipeEntry{{ShareFP: metadata.FingerprintOf(x), ShareSize: uint32(len(x)), SecretSize: 10}},
		}
		if typ, r := call(t, pc, protocol.MsgPutRecipe, recipe.Marshal()); typ != protocol.MsgPutOK {
			t.Fatalf("user 1 recipe: reply %d %s", typ, r)
		}
		if err := srv.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	var out []reply
	for _, muxed := range []bool{false, true} {
		pc := pipeTo(srv)
		path := fmt.Sprintf("/u2/x-muxed-%v", muxed)
		for _, m := range askerScript(x, y, path) {
			typ, payload := m[0][0], m[1]
			var err error
			if muxed {
				err = pc.WriteMuxMsg(7, typ, payload)
			} else {
				err = pc.WriteMsg(typ, payload)
			}
			if err != nil {
				t.Fatal(err)
			}
			rtyp, r, err := readMsg(pc)
			if err != nil {
				t.Fatal(err)
			}
			if muxed {
				stream, ityp, inner, err := protocol.DecodeMuxHeader(r)
				if err != nil || rtyp != protocol.MsgMuxData || stream != 7 {
					t.Fatalf("mux reply: type %d stream %d, %v", rtyp, stream, err)
				}
				rtyp, r = ityp, inner
			}
			out = append(out, reply{rtyp, r})
		}
		pc.WriteMsg(protocol.MsgBye, nil)
		pc.Close()
	}
	return out
}

// TestRepliesDependOnlyOnTheAsker is the message-level form of §3.3's
// side-channel freedom: user 2 sends the same requests to two servers,
// one on which user 1 stored the same content first and one on which
// nobody did, and every reply, type and payload, is byte-identical
// between the two — directly and through a mux stream.
func TestRepliesDependOnlyOnTheAsker(t *testing.T) {
	first, alone := askerWorld(t, true), askerWorld(t, false)
	if len(first) != len(alone) {
		t.Fatalf("%d replies vs %d", len(first), len(alone))
	}
	for i := range first {
		if first[i].typ != alone[i].typ || !bytes.Equal(first[i].payload, alone[i].payload) {
			t.Errorf("reply %d depends on user 1: type %d %q after user 1 stored the content, type %d %q when nobody had",
				i, first[i].typ, first[i].payload, alone[i].typ, alone[i].payload)
		}
	}
}
