package container

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"cdstore/internal/metadata"
	"cdstore/internal/storage"
)

// rewriteFixture persists one share container of six entries for user 4
// and returns the store, its backend and the parsed container.
func rewriteFixture(t *testing.T) (*Store, *storage.Memory, *Container) {
	t.Helper()
	backend := storage.NewMemory()
	s, err := NewStore(backend, nil)
	if err != nil {
		t.Fatal(err)
	}
	var name string
	for i := 0; i < 6; i++ {
		if name, err = addShare(s, 4, fp(fmt.Sprint("rw-", i)), bytes.Repeat([]byte{byte('a' + i)}, 40+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	c, err := s.GetContainer(name)
	if err != nil {
		t.Fatal(err)
	}
	return s, backend, c
}

func backendNames(t *testing.T, b storage.Backend) []string {
	t.Helper()
	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(names)
	return names
}

// TestRewriteKeepsSurvivorsInOrder: the new container holds exactly the
// marked entries, in their old order with their old bytes; commit hears
// the new name and the surviving keys while BOTH containers exist; the
// old one is gone afterwards.
func TestRewriteKeepsSurvivorsInOrder(t *testing.T) {
	s, backend, c := rewriteFixture(t)
	keep := []bool{true, false, true, true, false, true}
	var wantKeys []metadata.Fingerprint
	var wantReclaimed int64
	for i, e := range c.Entries {
		if keep[i] {
			wantKeys = append(wantKeys, e.Key)
		} else {
			wantReclaimed += int64(entryOverhead + len(e.Data))
		}
	}
	committed := false
	newName, reclaimed, err := s.Rewrite(c, keep, func(name string, kept []metadata.Fingerprint) error {
		committed = true
		if !slices.Equal(kept, wantKeys) {
			t.Errorf("commit got keys %v, want %v", kept, wantKeys)
		}
		if got := backendNames(t, backend); !slices.Equal(got, []string{c.Name, name}) {
			t.Errorf("during commit the backend holds %v, want the old and the new container", got)
		}
		return nil
	})
	if err != nil || !committed {
		t.Fatalf("Rewrite: committed=%v err=%v", committed, err)
	}
	if newName == c.Name || reclaimed != wantReclaimed {
		t.Fatalf("Rewrite = %q, %d reclaimed; want a new name and %d", newName, reclaimed, wantReclaimed)
	}
	if got := backendNames(t, backend); !slices.Equal(got, []string{newName}) {
		t.Fatalf("after rewrite the backend holds %v, want only %s", got, newName)
	}
	s.DropCache()
	nc, err := s.GetContainer(newName)
	if err != nil {
		t.Fatal(err)
	}
	if nc.Type != c.Type || nc.UserID != c.UserID || len(nc.Entries) != len(wantKeys) {
		t.Fatalf("rewritten container: type %v user %d, %d entries", nc.Type, nc.UserID, len(nc.Entries))
	}
	j := 0
	for i, e := range c.Entries {
		if !keep[i] {
			continue
		}
		if nc.Entries[j].Key != e.Key || !bytes.Equal(nc.Entries[j].Data, e.Data) {
			t.Fatalf("survivor %d changed key or bytes", j)
		}
		j++
	}
	// The image is what a writer given the survivors would have sealed.
	w := NewWriter(newName, c.Type, c.UserID, 0)
	for _, e := range nc.Entries {
		w.Add(e.Key, e.Data)
	}
	_, want := w.Seal()
	if got, _ := backend.Get(newName); !bytes.Equal(got, want) {
		t.Fatal("rewritten image differs from a fresh seal of the survivors")
	}
}

func TestRewriteNothingToDropTouchesNothing(t *testing.T) {
	s, backend, c := rewriteFixture(t)
	before, _ := backend.Get(c.Name)
	name, reclaimed, err := s.Rewrite(c, []bool{true, true, true, true, true, true},
		func(string, []metadata.Fingerprint) error { t.Error("commit ran with nothing to drop"); return nil })
	if err != nil || name != c.Name || reclaimed != 0 {
		t.Fatalf("Rewrite = %q, %d, %v; want the same name, nothing reclaimed", name, reclaimed, err)
	}
	after, _ := backend.Get(c.Name)
	if !bytes.Equal(before, after) || len(backendNames(t, backend)) != 1 {
		t.Fatal("a rewrite with nothing to drop changed the backend")
	}
	// No sequence number was spent either.
	if next, _ := addShare(s, 4, fp("next"), []byte("x")); next != containerName(ShareContainer, 4, 1) {
		t.Fatalf("next container is %s: the no-op rewrite consumed a sequence number", next)
	}
}

func TestRewriteAllDroppedDeletes(t *testing.T) {
	s, backend, c := rewriteFixture(t)
	commits := 0
	name, reclaimed, err := s.Rewrite(c, make([]bool, 6), func(newName string, kept []metadata.Fingerprint) error {
		commits++
		if newName != "" || len(kept) != 0 {
			t.Errorf("commit(%q, %d keys), want no name and no keys", newName, len(kept))
		}
		return nil
	})
	if err != nil || name != "" || reclaimed == 0 || commits != 1 {
		t.Fatalf("Rewrite = %q, %d, %v after %d commits", name, reclaimed, err, commits)
	}
	if got := backendNames(t, backend); len(got) != 0 {
		t.Fatalf("backend still holds %v", got)
	}
	if _, err := s.GetContainer(c.Name); err == nil {
		t.Fatal("deleted container still served from the cache")
	}
}

// TestRewriteFailingCommitKeepsOldContainer: when commit fails the old
// container is still there, byte for byte — whatever the index says
// still resolves — and the new one is left as an orphan, never deleted
// on a guess about how far commit got.
func TestRewriteFailingCommitKeepsOldContainer(t *testing.T) {
	s, backend, c := rewriteFixture(t)
	before, _ := backend.Get(c.Name)
	boom := errors.New("index unavailable")
	var orphan string
	_, _, err := s.Rewrite(c, []bool{true, true, false, true, true, true},
		func(newName string, _ []metadata.Fingerprint) error { orphan = newName; return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("Rewrite error = %v, want the commit's", err)
	}
	if after, err := backend.Get(c.Name); err != nil || !bytes.Equal(before, after) {
		t.Fatalf("old container changed or vanished after a failed commit: %v", err)
	}
	for _, e := range c.Entries {
		if got, err := s.GetEntry(c.Name, e.Key); err != nil || !bytes.Equal(got, e.Data) {
			t.Fatalf("entry %s unreadable in the old container: %v", e.Key, err)
		}
	}
	if got := backendNames(t, backend); !slices.Equal(got, []string{c.Name, orphan}) {
		t.Fatalf("backend holds %v, want the old container and the orphan %s", got, orphan)
	}
}

// TestRewriteFailingPersistChangesNothing: a backend that refuses the new
// container stops the rewrite before commit.
func TestRewriteFailingPersistChangesNothing(t *testing.T) {
	s, backend, c := rewriteFixture(t)
	faulty := storage.NewFaulty(backend)
	s.backend = faulty
	faulty.Fail()
	_, _, err := s.Rewrite(c, []bool{false, true, true, true, true, true},
		func(string, []metadata.Fingerprint) error { t.Error("commit ran although persist failed"); return nil })
	if err == nil {
		t.Fatal("Rewrite succeeded on a failed backend")
	}
	if got := backendNames(t, backend); !slices.Equal(got, []string{c.Name}) {
		t.Fatalf("backend holds %v, want only the old container", got)
	}
}
