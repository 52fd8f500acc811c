package server

import (
	"testing"

	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/storage"
)

// uploadFile pushes a synthetic one-secret-per-share file through the
// protocol: shares then recipe.
func uploadFile(t *testing.T, pc *protocol.Conn, path string, shares [][]byte) {
	t.Helper()
	batch := make([]protocol.ShareUpload, len(shares))
	entries := make([]metadata.RecipeEntry, len(shares))
	for i, data := range shares {
		batch[i] = protocol.ShareUpload{SecretSeq: uint64(i), SecretSize: uint32(len(data)), Data: data}
		entries[i] = metadata.RecipeEntry{
			ShareFP:    metadata.FingerprintOf(data),
			ShareSize:  uint32(len(data)),
			SecretSize: uint32(len(data)),
		}
	}
	rtyp, reply := call(t, pc, protocol.MsgPutShares, protocol.EncodeShareBatch(batch))
	if rtyp != protocol.MsgPutOK {
		t.Fatalf("put shares: type %d %s", rtyp, reply)
	}
	recipe := &metadata.Recipe{
		FileMeta: metadata.FileMeta{Path: path, FileSize: 1, NumSecrets: uint64(len(shares))},
		Entries:  entries,
	}
	rtyp, reply = call(t, pc, protocol.MsgPutRecipe, recipe.Marshal())
	if rtyp != protocol.MsgPutOK {
		t.Fatalf("put recipe: type %d %s", rtyp, reply)
	}
}

func TestGCReclaimsDeletedBackups(t *testing.T) {
	backend := storage.NewMemory()
	srv, err := New(Config{CloudIndex: 0, N: 4, K: 3, IndexDir: t.TempDir(), Backend: backend, ContainerCapacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pc := pipeTo(srv)
	defer pc.Close()
	hello(t, pc, 1)

	// Two files with disjoint shares.
	sharesA := [][]byte{[]byte("file-A share-0 xxxxxxxxxxxxxxxxxxx"), []byte("file-A share-1 yyyyyyyyyyyyyyyyyyy")}
	sharesB := [][]byte{[]byte("file-B share-0 zzzzzzzzzzzzzzzzzzz"), []byte("file-B share-1 wwwwwwwwwwwwwwwwwww")}
	uploadFile(t, pc, "/a.tar", sharesA)
	uploadFile(t, pc, "/b.tar", sharesB)
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	before := backend.TotalBytes()

	// A pass with nothing deleted reclaims nothing.
	stats, err := srv.RunScrubPass()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SharesDropped != 0 || stats.RecipesDropped != 0 {
		t.Fatalf("clean pass dropped things: %+v", stats)
	}

	// Delete file A, then run a pass.
	rtyp, _ := call(t, pc, protocol.MsgDeleteFile, protocol.EncodeString("/a.tar"))
	if rtyp != protocol.MsgPutOK {
		t.Fatalf("delete reply %d", rtyp)
	}
	stats, err = srv.RunScrubPass()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SharesDropped != 2 {
		t.Fatalf("SharesDropped = %d, want 2", stats.SharesDropped)
	}
	if stats.RecipesDropped != 1 {
		t.Fatalf("RecipesDropped = %d, want 1", stats.RecipesDropped)
	}
	if stats.BytesReclaimed <= 0 {
		t.Fatal("no bytes reclaimed")
	}
	after := backend.TotalBytes()
	if after >= before {
		t.Fatalf("backend did not shrink: %d -> %d", before, after)
	}

	// File B still fully restorable: its shares are fetchable.
	for _, data := range sharesB {
		fp := metadata.FingerprintOf(data)
		rtyp, reply := call(t, pc, protocol.MsgGetShares, protocol.EncodeFingerprints([]metadata.Fingerprint{fp}))
		if rtyp != protocol.MsgShares {
			t.Fatalf("share fetch after the pass: type %d %s", rtyp, reply)
		}
		got, _ := protocol.DecodeShares(reply)
		if len(got) != 1 || string(got[0].Data) != string(data) {
			t.Fatal("share content corrupted by the pass")
		}
	}
	// File A is gone.
	rtyp, _ = call(t, pc, protocol.MsgGetRecipe, protocol.EncodeString("/a.tar"))
	if rtyp != protocol.MsgError {
		t.Fatal("deleted file still has a recipe after the pass")
	}
}

func TestGCKeepsSharedShares(t *testing.T) {
	// A share referenced by two files must survive deleting one of them.
	backend := storage.NewMemory()
	srv, err := New(Config{CloudIndex: 0, N: 4, K: 3, IndexDir: t.TempDir(), Backend: backend, ContainerCapacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pc := pipeTo(srv)
	defer pc.Close()
	hello(t, pc, 1)

	shared := []byte("shared share zzzzzzzzzzzzzzzzzzzzzzzz")
	uploadFile(t, pc, "/one.tar", [][]byte{shared})
	uploadFile(t, pc, "/two.tar", [][]byte{shared})
	call(t, pc, protocol.MsgDeleteFile, protocol.EncodeString("/one.tar"))
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}

	stats, err := srv.RunScrubPass()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SharesDropped != 0 {
		t.Fatalf("shared share dropped: %+v", stats)
	}
	fp := metadata.FingerprintOf(shared)
	rtyp, reply := call(t, pc, protocol.MsgGetShares, protocol.EncodeFingerprints([]metadata.Fingerprint{fp}))
	if rtyp != protocol.MsgShares {
		t.Fatalf("shared share unreachable after the pass: %d %s", rtyp, reply)
	}
}

func TestGCAcrossUsers(t *testing.T) {
	// User 2 references the same share as user 1; deleting user 1's file
	// must not drop it.
	backend := storage.NewMemory()
	srv, err := New(Config{CloudIndex: 0, N: 4, K: 3, IndexDir: t.TempDir(), Backend: backend, ContainerCapacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	mk := func(user uint64) *protocol.Conn {
		pc := pipeTo(srv)
		t.Cleanup(func() { pc.Close() })
		hello(t, pc, user)
		return pc
	}
	pc1 := mk(1)
	pc2 := mk(2)
	shared := []byte("cross-user shared share kkkkkkkkkkkk")
	uploadFile(t, pc1, "/u1.tar", [][]byte{shared})
	uploadFile(t, pc2, "/u2.tar", [][]byte{shared})
	call(t, pc1, protocol.MsgDeleteFile, protocol.EncodeString("/u1.tar"))
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	stats, err := srv.RunScrubPass()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SharesDropped != 0 {
		t.Fatalf("cross-user shared share dropped: %+v", stats)
	}
	fp := metadata.FingerprintOf(shared)
	rtyp, _ := call(t, pc2, protocol.MsgGetShares, protocol.EncodeFingerprints([]metadata.Fingerprint{fp}))
	if rtyp != protocol.MsgShares {
		t.Fatal("user 2 lost access to the shared share")
	}
}
