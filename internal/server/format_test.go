package server

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"cdstore/internal/container"
	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/storage"
)

// format1 is r as recipe format 1 wrote it: format byte 1 and no Version.
func format1(r *metadata.Recipe) []byte {
	b := r.Marshal()
	at := 1 + 4 + len(r.Path) + 8 + 8
	b = append(b[:at:at], b[at+metadata.VersionSize:]...)
	b[0] = 1
	return b
}

// rewriteAsFormat1 rewrites the store's one recipe container as a
// format-1 server left it — the same container layout, its recipes in
// format 1 — and returns the container's name.
func rewriteAsFormat1(t *testing.T, backend *storage.Memory) string {
	t.Helper()
	var recipeContainer string
	rewritten, err := storage.Corrupt(backend,
		func(name string) bool { return strings.HasPrefix(name, "recipe-") },
		func(name string, raw []byte) []byte {
			c, err := container.Unmarshal(name, raw)
			if err != nil {
				t.Fatal(err)
			}
			w := container.NewWriter(name, container.RecipeContainer, c.UserID, 0)
			for _, e := range c.Entries {
				r, err := metadata.UnmarshalRecipe(e.Data)
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Add(e.Key, format1(r)); err != nil {
					t.Fatal(err)
				}
			}
			_, image := w.Seal()
			recipeContainer = name
			return image
		})
	if err != nil || len(rewritten) != 1 {
		t.Fatalf("rewrote %d recipe containers: %v", len(rewritten), err)
	}
	return recipeContainer
}

// TestScrubPassRefusesFormat1Recipe: a store written before recipes
// carried a version is refused, not migrated, and not mistaken for
// damage. A pass over a recipe container holding a format-1 recipe fails
// naming it, counts no lost recipe, quarantines and rewrites nothing, and
// leaves the container's bytes as they were; GetRecipe of the file
// answers an in-band error naming the format, and the connection serves
// on.
func TestScrubPassRefusesFormat1Recipe(t *testing.T) {
	backend := storage.NewMemory()
	srv, err := New(Config{CloudIndex: 0, N: 4, K: 3, IndexDir: t.TempDir(), Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pc := pipeTo(srv)
	defer pc.Close()
	hello(t, pc, 1)
	putOneShareFile(t, srv, pc, "/old.tar")

	recipeContainer := rewriteAsFormat1(t, backend)
	srv.DropCaches()
	before, err := backend.Get(recipeContainer)
	if err != nil {
		t.Fatal(err)
	}

	pass, err := srv.RunScrubPass()
	if !errors.Is(err, metadata.ErrOldFormat) || !strings.Contains(err.Error(), recipeContainer) {
		t.Fatalf("pass over a format-1 recipe: %v, want ErrOldFormat naming %s", err, recipeContainer)
	}
	if len(pass.Damaged) != 0 || pass.RecipesDropped != 0 || pass.ContainersRewritten != 0 {
		t.Fatalf("pass acted on a store it refuses: %+v", pass)
	}
	if st := srv.Stats(); st.LostRecipes != 0 || st.DamagedContainers != 0 || st.QuarantinedShares != 0 {
		t.Fatalf("a format-1 recipe counted as damage: %+v", st)
	}
	if after, err := backend.Get(recipeContainer); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the format-1 recipe container changed: %v", err)
	}

	typ, reply := call(t, pc, protocol.MsgGetRecipe, protocol.EncodeString("/old.tar"))
	re, derr := protocol.DecodeError(reply)
	if typ != protocol.MsgError || derr != nil || !strings.Contains(re.Msg, "format 1") {
		t.Fatalf("GetRecipe of a format-1 recipe: reply %d %q", typ, reply)
	}
	if typ, _ := call(t, pc, protocol.MsgListFiles, nil); typ != protocol.MsgFileList {
		t.Fatalf("connection not serving after a format-1 recipe: reply %d", typ)
	}
}

// TestScrubOfFormat1StoreAnswersInBand: on a store holding a format-1
// recipe and a quarantined share, a scrub pass fails and so does the
// user's scrub report, since it must read the recipe to name the file the
// share belongs to. Both failures are answered in-band, with the format
// named: the connection serves on, directly and on a mux stream, and the
// session beside it on the same connection — through a gateway, another
// user's on the shared upstream — is untouched.
func TestScrubOfFormat1StoreAnswersInBand(t *testing.T) {
	backend := storage.NewMemory()
	srv, err := New(Config{CloudIndex: 0, N: 4, K: 3, IndexDir: t.TempDir(), Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) // after the connections' cleanups
	dial := func() *protocol.Conn {
		pc := pipeTo(srv)
		t.Cleanup(func() { pc.Close() })
		return pc
	}
	direct := dial()
	hello(t, direct, 1)
	putOneShareFile(t, srv, direct, "/old.tar")
	if _, err := storage.Corrupt(backend,
		func(name string) bool { return strings.HasPrefix(name, "share-") },
		func(name string, raw []byte) []byte {
			out, _ := container.TamperEntries(name, raw, 1, 0x5a)
			return out
		}); err != nil {
		t.Fatal(err)
	}
	srv.DropCaches()
	if pass, err := srv.RunScrubPass(); err != nil || len(pass.Damaged) != 1 {
		t.Fatalf("pass over the tampered share: %+v, %v", pass, err)
	}
	rewriteAsFormat1(t, backend)
	srv.DropCaches()

	muxed := dial()
	muxHello(t, muxed, 1, 1)
	muxHello(t, muxed, 2, 2)
	for _, session := range []struct {
		how string
		ask func(typ byte) (byte, []byte)
	}{
		{"directly", func(typ byte) (byte, []byte) { return call(t, direct, typ, nil) }},
		{"on a mux stream", func(typ byte) (byte, []byte) { return mcall(t, muxed, 1, typ, nil) }},
	} {
		how, ask := session.how, session.ask
		for _, typ := range []byte{protocol.MsgScrubControl, protocol.MsgScrubStatus} {
			rtyp, reply := ask(typ)
			re, derr := protocol.DecodeError(reply)
			if rtyp != protocol.MsgError || derr != nil || re.Code != protocol.CodeInternal || !strings.Contains(re.Msg, "format 1") {
				t.Fatalf("%s, request %d on a format-1 store: reply %d %q", how, typ, rtyp, reply)
			}
			if rtyp, _ := ask(protocol.MsgListFiles); rtyp != protocol.MsgFileList {
				t.Fatalf("%s, the request after %d: reply %d", how, typ, rtyp)
			}
			if rtyp, reply := mcall(t, muxed, 2, protocol.MsgListFiles, nil); rtyp != protocol.MsgFileList {
				t.Fatalf("%s, the session beside it after %d: reply %d %q", how, typ, rtyp, reply)
			}
		}
	}
}
