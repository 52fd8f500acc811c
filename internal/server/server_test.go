package server

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cdstore/internal/container"
	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/storage"
)

// pipeTo serves one end of a fresh net.Pipe on srv and returns a protocol
// conn on the other. The served end is closed once ServeConn returns, as a
// listener closes an accepted connection, so a session the server aborts
// fails the test's next call instead of blocking it.
func pipeTo(srv *Server) *protocol.Conn {
	a, b := net.Pipe()
	go func() {
		srv.ServeConn(a)
		a.Close()
	}()
	return protocol.NewConn(b)
}

// testServer starts a server and returns a connected protocol conn.
func testServer(t *testing.T) (*Server, *protocol.Conn) {
	t.Helper()
	srv, err := New(Config{
		CloudIndex: 0, N: 4, K: 3,
		IndexDir: t.TempDir(),
		Backend:  storage.NewMemory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	pc := pipeTo(srv)
	t.Cleanup(func() { pc.Close() })
	return srv, pc
}

// readMsg reads one message into a payload of its own.
func readMsg(pc *protocol.Conn) (byte, []byte, error) {
	var frame []byte
	return pc.ReadMsgInto(&frame)
}

// call performs one request/response exchange.
func call(t *testing.T, pc *protocol.Conn, typ byte, payload []byte) (byte, []byte) {
	t.Helper()
	if err := pc.WriteMsg(typ, payload); err != nil {
		t.Fatal(err)
	}
	rtyp, reply, err := readMsg(pc)
	if err != nil {
		t.Fatal(err)
	}
	return rtyp, reply
}

func hello(t *testing.T, pc *protocol.Conn, user uint64) {
	t.Helper()
	rtyp, reply := call(t, pc, protocol.MsgHello, protocol.EncodeHello(user))
	if rtyp != protocol.MsgHelloOK {
		t.Fatalf("hello reply type %d", rtyp)
	}
	ci, n, k, err := protocol.DecodeHelloOK(reply)
	if err != nil || ci != 0 || n != 4 || k != 3 {
		t.Fatalf("hello decode: %d %d %d %v", ci, n, k, err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{CloudIndex: 0, N: 3, K: 3, IndexDir: t.TempDir(), Backend: storage.NewMemory()}); err == nil {
		t.Fatal("n == k accepted")
	}
	if _, err := New(Config{CloudIndex: 9, N: 4, K: 3, IndexDir: t.TempDir(), Backend: storage.NewMemory()}); err == nil {
		t.Fatal("out-of-range cloud index accepted")
	}
	if _, err := New(Config{CloudIndex: 0, N: 4, K: 3, IndexDir: t.TempDir()}); err == nil {
		t.Fatal("nil backend accepted")
	}
}

func TestUnauthenticatedRequestsRejected(t *testing.T) {
	_, pc := testServer(t)
	rtyp, reply := call(t, pc, protocol.MsgListFiles, nil)
	if rtyp != protocol.MsgError {
		t.Fatalf("expected MsgError, got %d", rtyp)
	}
	re, err := protocol.DecodeError(reply)
	if err != nil || re.Code != protocol.CodeBadRequest {
		t.Fatalf("error decode: %+v, %v", re, err)
	}
}

func TestPutSharesAndServerSideFingerprinting(t *testing.T) {
	srv, pc := testServer(t)
	hello(t, pc, 1)
	shareData := []byte("the share content determines identity, not any claimed hash")
	batch := protocol.EncodeShareBatch([]protocol.ShareUpload{
		{SecretSeq: 0, SecretSize: 100, Data: shareData},
	})
	rtyp, reply := call(t, pc, protocol.MsgPutShares, batch)
	if rtyp != protocol.MsgPutOK || len(reply) != 0 {
		t.Fatalf("put reply %d: %s", rtyp, reply)
	}
	if stored := srv.Stats().SharesStored; stored != 1 {
		t.Fatalf("stored %d, want 1", stored)
	}
	// The server indexed the share under ITS OWN hash of the content.
	fp := metadata.FingerprintOf(shareData)
	rtyp, reply = call(t, pc, protocol.MsgQuery, protocol.EncodeFingerprints([]metadata.Fingerprint{fp}))
	if rtyp != protocol.MsgQueryResult {
		t.Fatalf("query reply %d", rtyp)
	}
	owned, _ := protocol.DecodeBitmap(reply)
	if len(owned) != 1 || !owned[0] {
		t.Fatal("server did not index the uploaded share by content hash")
	}
	// Re-uploading the same content is deduplicated (nothing stored).
	rtyp, reply = call(t, pc, protocol.MsgPutShares, batch)
	if rtyp != protocol.MsgPutOK || len(reply) != 0 {
		t.Fatalf("second put reply %d: %s", rtyp, reply)
	}
	st := srv.Stats()
	if st.SharesReceived != 2 || st.SharesStored != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPutSharesBatchWithRepeatedContent(t *testing.T) {
	// A batch repeating the same share content (client bug or malice)
	// must store it once and must not deadlock the session on its own
	// reservation.
	srv, pc := testServer(t)
	hello(t, pc, 1)
	data := []byte("repeated share content")
	batch := protocol.EncodeShareBatch([]protocol.ShareUpload{
		{SecretSeq: 0, SecretSize: 22, Data: data},
		{SecretSeq: 1, SecretSize: 22, Data: data},
		{SecretSeq: 2, SecretSize: 22, Data: data},
	})
	done := make(chan struct{})
	var rtyp byte
	var reply []byte
	go func() {
		defer close(done)
		rtyp, reply = call(t, pc, protocol.MsgPutShares, batch)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("put of a self-duplicating batch hung")
	}
	if rtyp != protocol.MsgPutOK {
		t.Fatalf("reply %d: %s", rtyp, reply)
	}
	if stored := srv.Stats().SharesStored; stored != 1 {
		t.Fatalf("stored %d copies of identical content, want 1", stored)
	}
}

// TestConcurrentSameContentSessionsNoDeadlock regression-tests the
// cross-batch deadlock: sessions uploading the SAME new shares in
// DIFFERENT orders split the reservation wins, and a session that
// waited on another's reservation while holding its own would deadlock
// (hold-and-wait cycle). The four-pass put path defers contested
// fingerprints instead. Every share must still be stored exactly once.
func TestConcurrentSameContentSessionsNoDeadlock(t *testing.T) {
	srv, _ := testServer(t)
	const (
		sessions  = 4
		shares    = 128
		shareSize = 256
	)
	content := make([][]byte, shares)
	for i := range content {
		content[i] = make([]byte, shareSize)
		for j := range content[i] {
			content[i][j] = byte(i*31 + j)
		}
	}
	done := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		go func(s int) {
			pc := pipeTo(srv)
			defer pc.Close()
			if err := pc.WriteMsg(protocol.MsgHello, protocol.EncodeHello(uint64(s+1))); err != nil {
				done <- err
				return
			}
			if _, _, err := readMsg(pc); err != nil {
				done <- err
				return
			}
			// Per-session share order: rotated so reservation wins split
			// across sessions and interleave in conflicting orders.
			batch := make([]protocol.ShareUpload, shares)
			for i := 0; i < shares; i++ {
				idx := (i*(s*2+1) + s*17) % shares
				batch[i] = protocol.ShareUpload{SecretSeq: uint64(i), SecretSize: shareSize, Data: content[idx]}
			}
			if err := pc.WriteMsg(protocol.MsgPutShares, protocol.EncodeShareBatch(batch)); err != nil {
				done <- err
				return
			}
			typ, _, err := readMsg(pc)
			if err != nil {
				done <- err
				return
			}
			if typ != protocol.MsgPutOK {
				done <- fmt.Errorf("unexpected reply type %d", typ)
				return
			}
			done <- nil
		}(s)
	}
	for i := 0; i < sessions; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("concurrent same-content sessions deadlocked")
		}
	}
	st := srv.Stats()
	if st.SharesStored != shares {
		t.Fatalf("stored %d unique shares, want %d", st.SharesStored, shares)
	}
}

func TestRecipeRejectsUnownedShares(t *testing.T) {
	// A recipe naming a fingerprint the user never uploaded is an
	// ownership probe (§3.3) and must be rejected.
	_, pc := testServer(t)
	hello(t, pc, 1)
	recipe := &metadata.Recipe{
		FileMeta: metadata.FileMeta{Path: "/probe.tar", FileSize: 10, NumSecrets: 1},
		Entries: []metadata.RecipeEntry{
			{ShareFP: metadata.FingerprintOf([]byte("never uploaded")), ShareSize: 5, SecretSize: 10},
		},
	}
	rtyp, reply := call(t, pc, protocol.MsgPutRecipe, recipe.Marshal())
	if rtyp != protocol.MsgError {
		t.Fatalf("probe recipe accepted: type %d", rtyp)
	}
	re, _ := protocol.DecodeError(reply)
	if re.Code != protocol.CodeBadRequest {
		t.Fatalf("error code %d", re.Code)
	}
}

func TestGetSharesOwnershipEnforced(t *testing.T) {
	// User 2 must not fetch user 1's share even knowing its fingerprint
	// (the §3.3 side-channel attack).
	srv, pc1 := testServer(t)
	hello(t, pc1, 1)
	shareData := []byte("user 1's sensitive share")
	call(t, pc1, protocol.MsgPutShares, protocol.EncodeShareBatch([]protocol.ShareUpload{
		{SecretSeq: 0, SecretSize: 10, Data: shareData},
	}))
	fp := metadata.FingerprintOf(shareData)

	pc2 := pipeTo(srv)
	defer pc2.Close()
	hello(t, pc2, 2)
	rtyp, reply := call(t, pc2, protocol.MsgGetShares, protocol.EncodeFingerprints([]metadata.Fingerprint{fp}))
	if rtyp != protocol.MsgError {
		t.Fatal("user 2 fetched user 1's share by fingerprint")
	}
	re, _ := protocol.DecodeError(reply)
	if re.Code != protocol.CodeNotFound {
		t.Fatalf("error code %d, want not-found (no existence oracle)", re.Code)
	}
	// Crucially: the same error as for a share that does not exist at all.
	rtyp, reply2 := call(t, pc2, protocol.MsgGetShares,
		protocol.EncodeFingerprints([]metadata.Fingerprint{metadata.FingerprintOf([]byte("ghost"))}))
	if rtyp != protocol.MsgError {
		t.Fatal("ghost share fetch did not error")
	}
	re2, _ := protocol.DecodeError(reply2)
	if re2.Code != re.Code {
		t.Fatal("distinguishable errors leak share existence across users")
	}
}

func TestGetRecipeNotFound(t *testing.T) {
	_, pc := testServer(t)
	hello(t, pc, 1)
	rtyp, reply := call(t, pc, protocol.MsgGetRecipe, protocol.EncodeString("/missing.tar"))
	if rtyp != protocol.MsgError {
		t.Fatalf("reply %d", rtyp)
	}
	re, _ := protocol.DecodeError(reply)
	if re.Code != protocol.CodeNotFound {
		t.Fatalf("code %d", re.Code)
	}
}

// putOneShareFile stores a one-secret file for the session's user and
// flushes, so its share and recipe sit in sealed backend containers.
func putOneShareFile(t *testing.T, srv *Server, pc *protocol.Conn, path string) {
	t.Helper()
	data := []byte("the one share of " + path)
	if typ, _ := call(t, pc, protocol.MsgPutShares, protocol.EncodeShareBatch([]protocol.ShareUpload{
		{SecretSeq: 0, SecretSize: 10, Data: data},
	})); typ != protocol.MsgPutOK {
		t.Fatalf("put shares reply %d", typ)
	}
	recipe := &metadata.Recipe{
		FileMeta: metadata.FileMeta{Path: path, FileSize: 10, NumSecrets: 1},
		Entries: []metadata.RecipeEntry{
			{ShareFP: metadata.FingerprintOf(data), ShareSize: uint32(len(data)), SecretSize: 10},
		},
	}
	if typ, _ := call(t, pc, protocol.MsgPutRecipe, recipe.Marshal()); typ != protocol.MsgPutOK {
		t.Fatalf("put recipe reply %d", typ)
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
}

// errorCode is an error reply's code; any other reply reads as 0, which
// is no code.
func errorCode(typ byte, reply []byte) uint32 {
	if typ != protocol.MsgError {
		return 0
	}
	re, err := protocol.DecodeError(reply)
	if err != nil {
		return 0
	}
	return re.Code
}

// TestGetRecipeOfLostRecipeIsNotFound: a file whose recipe container is
// gone answers GetRecipe NotFound in-band and the connection serves the
// next request, where a backend that is down still fails it as an
// internal error.
func TestGetRecipeOfLostRecipeIsNotFound(t *testing.T) {
	backend := &stepBackend{Backend: storage.NewMemory()}
	srv, err := New(Config{CloudIndex: 0, N: 4, K: 3, IndexDir: t.TempDir(), Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pc := pipeTo(srv)
	defer pc.Close()
	hello(t, pc, 1)
	putOneShareFile(t, srv, pc, "/lost.tar")
	deleted, err := storage.Corrupt(backend,
		func(name string) bool { return strings.HasPrefix(name, "recipe-") },
		func(string, []byte) []byte { return nil })
	if err != nil || len(deleted) == 0 {
		t.Fatalf("deleted %d recipe containers: %v", len(deleted), err)
	}
	srv.DropCaches()

	if code := errorCode(call(t, pc, protocol.MsgGetRecipe, protocol.EncodeString("/lost.tar"))); code != protocol.CodeNotFound {
		t.Fatalf("lost recipe: code %d, want not-found", code)
	}
	if typ, _ := call(t, pc, protocol.MsgListFiles, nil); typ != protocol.MsgFileList {
		t.Fatalf("connection not serving after a lost recipe: reply %d", typ)
	}
	backend.onGet = func(string) error { return errBackendDown }
	if code := errorCode(call(t, pc, protocol.MsgGetRecipe, protocol.EncodeString("/lost.tar"))); code != protocol.CodeInternal {
		t.Fatalf("backend down: code %d, want internal", code)
	}
}

// TestGetSharesOfLostShareIsNotFound: a share whose bytes are gone —
// quarantined by a scrub pass, its container corrupt, or its container
// lost — answers GetShares NotFound in-band, as a lost recipe answers
// GetRecipe, and the connection serves the next request; a backend that
// is down still fails it as an internal error.
func TestGetSharesOfLostShareIsNotFound(t *testing.T) {
	shareContainers := func(name string) bool { return strings.HasPrefix(name, "share-") }
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, srv *Server, backend *stepBackend)
		want   uint32
	}{
		{"quarantined", func(t *testing.T, srv *Server, backend *stepBackend) {
			if _, err := storage.Corrupt(backend, shareContainers, func(name string, data []byte) []byte {
				out, _ := container.TamperEntries(name, data, 1, 0x5a)
				return out
			}); err != nil {
				t.Fatal(err)
			}
			srv.DropCaches()
			if pass, err := srv.RunScrubPass(); err != nil || len(pass.Damaged) == 0 {
				t.Fatalf("scrub pass: %+v, %v", pass, err)
			}
		}, protocol.CodeNotFound},
		{"corrupt container", func(t *testing.T, srv *Server, backend *stepBackend) {
			if _, err := storage.Corrupt(backend, shareContainers, func(_ string, data []byte) []byte {
				out := append([]byte(nil), data...)
				out[len(out)/2] ^= 0xff // the CRC no longer matches
				return out
			}); err != nil {
				t.Fatal(err)
			}
		}, protocol.CodeNotFound},
		{"lost container", func(t *testing.T, srv *Server, backend *stepBackend) {
			if _, err := storage.Corrupt(backend, shareContainers, func(string, []byte) []byte { return nil }); err != nil {
				t.Fatal(err)
			}
		}, protocol.CodeNotFound},
		{"backend down", func(t *testing.T, srv *Server, backend *stepBackend) {
			backend.onGet = func(string) error { return errBackendDown }
		}, protocol.CodeInternal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			backend := &stepBackend{Backend: storage.NewMemory()}
			srv, err := New(Config{CloudIndex: 0, N: 4, K: 3, IndexDir: t.TempDir(), Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			pc := pipeTo(srv)
			defer pc.Close()
			hello(t, pc, 1)
			putOneShareFile(t, srv, pc, "/lost.tar")
			tc.damage(t, srv, backend)
			srv.DropCaches()

			fp := metadata.FingerprintOf([]byte("the one share of /lost.tar"))
			get := protocol.EncodeFingerprints([]metadata.Fingerprint{fp})
			if code := errorCode(call(t, pc, protocol.MsgGetShares, get)); code != tc.want {
				t.Fatalf("code %d, want %d", code, tc.want)
			}
			if tc.want != protocol.CodeNotFound {
				return // the connection went down with the error
			}
			if typ, _ := call(t, pc, protocol.MsgListFiles, nil); typ != protocol.MsgFileList {
				t.Fatalf("connection not serving after a lost share: reply %d", typ)
			}
		})
	}
}

// TestScrubStatusListsOnlyOwnFiles: a scrub report names only the asking
// user's files (§3.3 — no session learns another user's file names), and
// what else it carries is the same whoever asks.
func TestScrubStatusListsOnlyOwnFiles(t *testing.T) {
	backend := storage.NewMemory()
	srv, err := New(Config{CloudIndex: 0, N: 4, K: 3, IndexDir: t.TempDir(), Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	session := func(user uint64) *protocol.Conn {
		pc := pipeTo(srv)
		t.Cleanup(func() { pc.Close() })
		hello(t, pc, user)
		return pc
	}
	owner, other := session(1), session(2)
	putOneShareFile(t, srv, owner, "/owner/private-name.tar")
	if _, err := storage.Corrupt(backend,
		func(name string) bool { return strings.HasPrefix(name, "share-") },
		func(name string, data []byte) []byte {
			out, _ := container.TamperEntries(name, data, 1, 0x5a)
			return out
		}); err != nil {
		t.Fatal(err)
	}
	srv.DropCaches()
	if _, err := srv.RunScrubPass(); err != nil {
		t.Fatal(err)
	}

	report := func(pc *protocol.Conn) *protocol.ScrubReport {
		typ, reply := call(t, pc, protocol.MsgScrubStatus, nil)
		if typ != protocol.MsgScrubReport {
			t.Fatalf("scrub status reply %d", typ)
		}
		r, err := protocol.DecodeScrubReport(reply)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	mine, theirs := report(owner), report(other)
	if len(mine.Affected) != 1 || mine.Affected[0].Path != "/owner/private-name.tar" || len(mine.Affected[0].Damaged) != 1 {
		t.Fatalf("owner's report lists %+v, want its one damaged file", mine.Affected)
	}
	if len(theirs.Affected) != 0 {
		t.Fatalf("another user's report lists %+v", theirs.Affected)
	}
	if q := srv.Stats().QuarantinedShares; q != 1 {
		t.Fatalf("%d shares quarantined, want 1", q)
	}
	mine.Affected, theirs.Affected = nil, nil
	if !reflect.DeepEqual(mine, theirs) {
		t.Fatalf("the rest of the report depends on the asker: %+v vs %+v", mine, theirs)
	}
}

// TestPutRecipeOfQuarantinedShareIsRefused: the one ownership question
// answers no for a share whose bytes a scrub pass quarantined, so a
// recipe naming it is refused in-band, like one naming a share the user
// never uploaded, and the connection keeps serving.
func TestPutRecipeOfQuarantinedShareIsRefused(t *testing.T) {
	backend := storage.NewMemory()
	srv, err := New(Config{CloudIndex: 0, N: 4, K: 3, IndexDir: t.TempDir(), Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pc := dial(t, srv, 1)
	putOneShareFile(t, srv, pc, "/q.tar")
	if _, err := storage.Corrupt(backend,
		func(name string) bool { return strings.HasPrefix(name, "share-") },
		func(name string, data []byte) []byte {
			out, _ := container.TamperEntries(name, data, 1, 0x5a)
			return out
		}); err != nil {
		t.Fatal(err)
	}
	srv.DropCaches()
	if _, err := srv.RunScrubPass(); err != nil {
		t.Fatal(err)
	}
	data := []byte("the one share of /q.tar")
	recipe := &metadata.Recipe{
		FileMeta: metadata.FileMeta{Path: "/q2.tar", FileSize: 10, NumSecrets: 1},
		Entries:  []metadata.RecipeEntry{{ShareFP: metadata.FingerprintOf(data), ShareSize: uint32(len(data)), SecretSize: 10}},
	}
	if code := errorCode(call(t, pc, protocol.MsgPutRecipe, recipe.Marshal())); code != protocol.CodeBadRequest {
		t.Fatalf("recipe naming a quarantined share: code %d, want bad-request", code)
	}
	typ, reply := call(t, pc, protocol.MsgListFiles, nil)
	if typ != protocol.MsgFileList {
		t.Fatalf("connection not serving after the refusal: reply %d", typ)
	}
	if files, err := protocol.DecodeFileList(reply); err != nil || len(files) != 1 || files[0].Path != "/q.tar" {
		t.Fatalf("files %+v, %v; want /q.tar alone", files, err)
	}
}

// getLog is a backend that records the name of every object read.
type getLog struct {
	storage.Backend
	mu    sync.Mutex
	names []string
}

func (b *getLog) Get(name string) ([]byte, error) {
	b.mu.Lock()
	b.names = append(b.names, name)
	b.mu.Unlock()
	return b.Backend.Get(name)
}

func (b *getLog) take() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.names
	b.names = nil
	return out
}

// TestScrubStatusReadsOnlyAskersRecipes: a status poll walks the asking
// user's files alone. It reads the asker's recipes to find lost ones and
// never fetches a container of another user's recipes.
func TestScrubStatusReadsOnlyAskersRecipes(t *testing.T) {
	backend := &getLog{Backend: storage.NewMemory()}
	srv, err := New(Config{CloudIndex: 0, N: 4, K: 3, IndexDir: t.TempDir(), Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	owner, other := dial(t, srv, 1), dial(t, srv, 2)
	putOneShareFile(t, srv, owner, "/mine.tar")
	putOneShareFile(t, srv, other, "/theirs.tar")
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	srv.DropCaches()
	backend.take()

	if typ, reply := call(t, owner, protocol.MsgScrubStatus, nil); typ != protocol.MsgScrubReport {
		t.Fatalf("scrub status reply %d %s", typ, reply)
	}
	gets := backend.take()
	if !slices.ContainsFunc(gets, func(n string) bool { return strings.HasPrefix(n, "recipe-u1-") }) {
		t.Fatalf("status read %q, not the asker's recipe", gets)
	}
	for _, name := range gets {
		if strings.HasPrefix(name, "recipe-u2-") {
			t.Fatalf("user 1's status poll read user 2's recipe container %s", name)
		}
	}
}

// TestScrubControlTakesNoPayload: MsgScrubControl carries nothing — it
// runs one pass and acks once the pass has finished. Any payload, such as
// a one-byte op, answers bad-request in-band, and the session serves its
// next request.
func TestScrubControlTakesNoPayload(t *testing.T) {
	srv, pc := testServer(t)
	hello(t, pc, 1)
	if code := errorCode(call(t, pc, protocol.MsgScrubControl, []byte{1})); code != protocol.CodeBadRequest {
		t.Fatalf("scrub control with an op byte: code %d, want bad-request", code)
	}
	if typ, reply := call(t, pc, protocol.MsgScrubControl, nil); typ != protocol.MsgPutOK {
		t.Fatalf("scrub control after a bad one: reply %d %s", typ, reply)
	}
	if passes := srv.stats.scrubPasses.Load(); passes != 1 {
		t.Fatalf("%d passes ran, want 1", passes)
	}
}

func TestDeleteFileNotFound(t *testing.T) {
	_, pc := testServer(t)
	hello(t, pc, 1)
	rtyp, _ := call(t, pc, protocol.MsgDeleteFile, protocol.EncodeString("/missing.tar"))
	if rtyp != protocol.MsgError {
		t.Fatalf("reply %d", rtyp)
	}
}

func TestMalformedPayloadsSurviveSession(t *testing.T) {
	_, pc := testServer(t)
	hello(t, pc, 1)
	// A malformed query must produce MsgError but keep the session alive.
	rtyp, _ := call(t, pc, protocol.MsgQuery, []byte{1, 2})
	if rtyp != protocol.MsgError {
		t.Fatalf("reply %d", rtyp)
	}
	// Session still works.
	rtyp, _ = call(t, pc, protocol.MsgListFiles, nil)
	if rtyp != protocol.MsgFileList {
		t.Fatalf("session dead after malformed payload: %d", rtyp)
	}
}

func TestUnknownMessageType(t *testing.T) {
	_, pc := testServer(t)
	hello(t, pc, 1)
	rtyp, _ := call(t, pc, 200, nil)
	if rtyp != protocol.MsgError {
		t.Fatalf("reply %d", rtyp)
	}
}

func TestServerPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	backend := storage.NewMemory()
	srv, err := New(Config{CloudIndex: 0, N: 4, K: 3, IndexDir: dir, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	pc := pipeTo(srv)
	hello(t, pc, 1)
	shareData := []byte("durable share")
	call(t, pc, protocol.MsgPutShares, protocol.EncodeShareBatch([]protocol.ShareUpload{
		{SecretSeq: 0, SecretSize: 13, Data: shareData},
	}))
	pc.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(Config{CloudIndex: 0, N: 4, K: 3, IndexDir: dir, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	pc2 := pipeTo(srv2)
	defer pc2.Close()
	hello(t, pc2, 1)
	fp := metadata.FingerprintOf(shareData)
	rtyp, reply := call(t, pc2, protocol.MsgQuery, protocol.EncodeFingerprints([]metadata.Fingerprint{fp}))
	if rtyp != protocol.MsgQueryResult {
		t.Fatalf("reply %d", rtyp)
	}
	owned, _ := protocol.DecodeBitmap(reply)
	if !owned[0] {
		t.Fatal("share ownership lost across server restart")
	}
	// And the share content survives too.
	rtyp, reply = call(t, pc2, protocol.MsgGetShares, protocol.EncodeFingerprints([]metadata.Fingerprint{fp}))
	if rtyp != protocol.MsgShares {
		t.Fatalf("get shares reply %d", rtyp)
	}
	shares, _ := protocol.DecodeShares(reply)
	if len(shares) != 1 || string(shares[0].Data) != string(shareData) {
		t.Fatal("share content lost across restart")
	}
}

// errBackendDown is what a stepBackend hook fails an operation with.
var errBackendDown = errors.New("backend down")

func TestBackendFailureSurfacesAsError(t *testing.T) {
	backend := &stepBackend{Backend: storage.NewMemory()}
	srv, err := New(Config{CloudIndex: 0, N: 4, K: 3, IndexDir: t.TempDir(), Backend: backend, ContainerCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pc := pipeTo(srv)
	defer pc.Close()
	hello(t, pc, 1)
	backend.onPut = func(string) error { return errBackendDown }
	// Tiny container capacity forces an immediate backend write, which
	// must surface as an error (session then terminates).
	payload := protocol.EncodeShareBatch([]protocol.ShareUpload{
		{SecretSeq: 0, SecretSize: 64, Data: make([]byte, 128)},
	})
	if err := pc.WriteMsg(protocol.MsgPutShares, payload); err != nil {
		t.Fatal(err)
	}
	rtyp, reply, err := readMsg(pc)
	if err != nil {
		t.Fatal(err)
	}
	if rtyp != protocol.MsgError {
		t.Fatalf("reply %d", rtyp)
	}
	re, derr := protocol.DecodeError(reply)
	if derr != nil || re.Code != protocol.CodeInternal {
		t.Fatalf("got %+v (%v), want internal error", re, derr)
	}
}

// TestByeCheckpointSurvivesAbandonedServer pins what a connection-level
// Bye promises now that it no longer builds SSTables: after the Bye is
// processed the server is dropped without Close (the process died), and
// a server reopened on the same directory still has every committed
// share, every reference count, the file entry and the bytes — replayed
// from the index WALs the checkpoint pushed out.
func TestByeCheckpointSurvivesAbandonedServer(t *testing.T) {
	dir := t.TempDir()
	backend := storage.NewMemory()
	cfg := Config{CloudIndex: 0, N: 4, K: 3, IndexDir: dir, Backend: backend}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) // releases descriptors; runs after the reopened server is closed
	session := func(user uint64, work func(pc *protocol.Conn)) {
		a, b := net.Pipe()
		served := make(chan error, 1)
		go func() { served <- srv.ServeConn(a) }()
		pc := protocol.NewConn(b)
		defer pc.Close()
		hello(t, pc, user)
		work(pc)
		if err := pc.WriteMsg(protocol.MsgBye, nil); err != nil {
			t.Fatal(err)
		}
		if err := <-served; err != nil {
			t.Fatalf("session ended with %v", err)
		}
	}

	const shares = 200 // spread over every index stripe
	uploads := make([]protocol.ShareUpload, shares)
	fps := make([]metadata.Fingerprint, shares)
	recipe := &metadata.Recipe{FileMeta: metadata.FileMeta{Path: "/home.tar", FileSize: 1 << 20}}
	for i := range uploads {
		uploads[i] = protocol.ShareUpload{SecretSeq: uint64(i), SecretSize: 64, Data: []byte(fmt.Sprintf("share body %04d", i))}
		fps[i] = metadata.FingerprintOf(uploads[i].Data)
		for r := 0; r <= i%3; r++ { // share i is referenced 1 + i%3 times
			recipe.Entries = append(recipe.Entries, metadata.RecipeEntry{ShareFP: fps[i], ShareSize: uint32(len(uploads[i].Data)), SecretSize: 64})
		}
	}
	recipe.NumSecrets = uint64(len(recipe.Entries))
	session(1, func(pc *protocol.Conn) {
		if typ, reply := call(t, pc, protocol.MsgPutShares, protocol.EncodeShareBatch(uploads)); typ != protocol.MsgPutOK {
			t.Fatalf("put shares: %d %s", typ, reply)
		}
		if typ, reply := call(t, pc, protocol.MsgPutRecipe, recipe.Marshal()); typ != protocol.MsgPutOK {
			t.Fatalf("put recipe: %d %s", typ, reply)
		}
	})
	session(2, func(pc *protocol.Conn) { // an inter-user duplicate of the first half
		if typ, reply := call(t, pc, protocol.MsgPutShares, protocol.EncodeShareBatch(uploads[:shares/2])); typ != protocol.MsgPutOK {
			t.Fatalf("duplicate put: %d %s", typ, reply)
		}
	})
	if tables, _ := filepath.Glob(filepath.Join(dir, "*", "*.sst")); len(tables) != 0 {
		t.Fatalf("connection Bye built %d SSTables, want none", len(tables))
	}
	if wal, err := os.Stat(filepath.Join(dir, "shares", "wal.log")); err != nil || wal.Size() == 0 {
		t.Fatalf("connection Bye left the share WAL empty or absent: %v", err)
	}

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv2.Close() })
	for i, f := range fps {
		e, err := srv2.ix.LookupShare(f)
		if err != nil {
			t.Fatalf("share %d lost: %v", i, err)
		}
		if c, ok := e.Refs[1]; !ok || c != uint32(1+i%3) || e.Container == "" || e.Size != uint32(len(uploads[i].Data)) {
			t.Fatalf("share %d after replay: %+v, want %d refs for user 1", i, e, 1+i%3)
		}
		if c, ok := e.Refs[2]; ok != (i < shares/2) || c != 0 {
			t.Fatalf("share %d after replay: user 2 upload marker %d/%v", i, c, ok)
		}
	}
	if fe, err := srv2.ix.LookupFile(1, "/home.tar"); err != nil || fe.NumSecrets != recipe.NumSecrets {
		t.Fatalf("file entry after replay: %+v, %v", fe, err)
	}
	pc := pipeTo(srv2)
	defer pc.Close()
	hello(t, pc, 1)
	typ, reply := call(t, pc, protocol.MsgGetShares, protocol.EncodeFingerprints(fps))
	if typ != protocol.MsgShares {
		t.Fatalf("get shares: %d %s", typ, reply)
	}
	got, _ := protocol.DecodeShares(reply)
	for i := range got {
		if string(got[i].Data) != string(uploads[i].Data) {
			t.Fatalf("share %d bytes differ after replay", i)
		}
	}
	if typ, _ := call(t, pc, protocol.MsgGetRecipe, protocol.EncodeString("/home.tar")); typ != protocol.MsgRecipe {
		t.Fatalf("get recipe: %d", typ)
	}
}
