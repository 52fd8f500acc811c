package server

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/storage"
)

// getDuringRewrite sends one get-type request and holds the handler's
// backend read of the container the index gave it until a scrub pass has
// rewritten that container — the file /drop, deleted, shares it with
// /keep — then lets the read go on, and returns the reply.
func getDuringRewrite(t *testing.T, typ byte, payload []byte, target func(srv *Server) string) (byte, []byte) {
	t.Helper()
	backend := &stepBackend{Backend: storage.NewMemory()}
	srv, err := New(Config{CloudIndex: 0, N: 4, K: 3, IndexDir: t.TempDir(), Backend: backend, ContainerCapacity: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pc := dial(t, srv, 1)
	uploadFile(t, pc, "/keep", [][]byte{bytes.Repeat([]byte("keep."), 30)})
	uploadFile(t, pc, "/drop", [][]byte{bytes.Repeat([]byte("drop."), 30)})
	if rtyp, reply := call(t, pc, protocol.MsgDeleteFile, protocol.EncodeString("/drop")); rtyp != protocol.MsgPutOK {
		t.Fatalf("delete: %d %s", rtyp, reply)
	}
	if err := srv.Flush(); err != nil {
		t.Fatal(err)
	}
	srv.DropCaches()
	old := target(srv)

	// The handler's read is the first of old; the pass's own comes second.
	entered, release := make(chan struct{}), make(chan struct{})
	letGo := sync.OnceFunc(func() { close(release) })
	defer letGo()
	var held atomic.Bool
	backend.onGet = func(name string) error {
		if name == old && held.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
		return nil
	}
	if err := pc.WriteMsg(typ, payload); err != nil {
		t.Fatal(err)
	}
	<-entered
	if _, err := srv.RunScrubPass(); err != nil {
		t.Fatal(err)
	}
	if _, err := backend.Backend.Get(old); err == nil {
		t.Fatalf("the pass left %s in place; nothing raced the get", old)
	}
	letGo()
	rtyp, reply, err := readMsg(pc)
	if err != nil {
		t.Fatal(err)
	}
	return rtyp, reply
}

// TestGetSharesAcrossARewrite: a share located before a pass rewrote its
// container is read from where the pass moved it, not answered with the
// old container's "object not found" — which would drop the connection.
func TestGetSharesAcrossARewrite(t *testing.T) {
	fp := metadata.FingerprintOf(bytes.Repeat([]byte("keep."), 30))
	rtyp, reply := getDuringRewrite(t, protocol.MsgGetShares, protocol.EncodeFingerprints([]metadata.Fingerprint{fp}),
		func(srv *Server) string {
			e, err := srv.ix.LookupShare(fp)
			if err != nil {
				t.Fatal(err)
			}
			return e.Container
		})
	if rtyp != protocol.MsgShares {
		t.Fatalf("get of a live share during a rewrite: reply %d %s", rtyp, reply)
	}
	if err := checkShares(reply, []metadata.Fingerprint{fp}); err != nil {
		t.Fatalf("share read across the rewrite: %v", err)
	}
}

// TestGetRecipeAcrossARewrite: a recipe looked up before a pass rewrote
// its container is read from there, not reported lost.
func TestGetRecipeAcrossARewrite(t *testing.T) {
	rtyp, reply := getDuringRewrite(t, protocol.MsgGetRecipe, protocol.EncodeString("/keep"),
		func(srv *Server) string {
			fe, err := srv.ix.LookupFile(1, "/keep")
			if err != nil {
				t.Fatal(err)
			}
			return fe.RecipeContainer
		})
	if rtyp != protocol.MsgRecipe {
		t.Fatalf("recipe of a live file during a rewrite: reply %d %s", rtyp, reply)
	}
	if r, err := metadata.UnmarshalRecipe(reply); err != nil || r.Path != "/keep" {
		t.Fatalf("recipe read across the rewrite: %v", err)
	}
}
