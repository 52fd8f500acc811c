package index

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"cdstore/internal/metadata"
)

// modelShare is the trivially correct picture of one fingerprint: who
// holds how many references on the committed entry, and, separately, on
// a reservation in flight.
type modelShare struct {
	committed bool
	container string
	size      uint32
	damaged   bool
	refs      map[uint64]uint32

	pending     bool
	pendingRefs map[uint64]uint32
	repair      bool
}

// live returns the refs an operation currently acts on: the
// reservation's while one is in flight, else the committed entry's.
func (m *modelShare) live() map[uint64]uint32 {
	if m.pending {
		return m.pendingRefs
	}
	if m.committed {
		return m.refs
	}
	return nil
}

type indexModel struct {
	shares  map[metadata.Fingerprint]*modelShare
	repairs uint64 // since the last open
}

func (m *indexModel) get(f metadata.Fingerprint) *modelShare {
	if m.shares[f] == nil {
		m.shares[f] = &modelShare{}
	}
	return m.shares[f]
}

// tryReserve returns the status the index must report.
func (m *indexModel) tryReserve(f metadata.Fingerprint, user uint64, size uint32) ReserveStatus {
	s := m.get(f)
	switch {
	case s.pending:
		return StatusPending
	case !s.committed:
		s.pending, s.repair, s.size = true, false, size
		s.pendingRefs = map[uint64]uint32{user: 0}
		return StatusReserved
	case s.damaged:
		s.pending, s.repair = true, true
		s.pendingRefs = maps.Clone(s.refs)
		s.pendingRefs[user] += 0
		return StatusReserved
	default:
		s.refs[user] += 0
		return StatusDuplicate
	}
}

func (m *indexModel) commit(f metadata.Fingerprint, name string) {
	s := m.get(f)
	if s.repair {
		m.repairs++
	}
	s.committed, s.container, s.damaged, s.refs = true, name, false, s.pendingRefs
	s.pending, s.pendingRefs, s.repair = false, nil, false
}

func (m *indexModel) abort(f metadata.Fingerprint) {
	s := m.get(f)
	s.pending, s.pendingRefs, s.repair = false, nil, false
}

func (m *indexModel) release(f metadata.Fingerprint, user uint64) {
	s := m.get(f)
	refs := s.live()
	if c, ok := refs[user]; ok && c > 1 {
		refs[user] = c - 1
	} else {
		delete(refs, user)
	}
	if !s.pending && s.committed && len(refs) == 0 {
		*s = modelShare{}
	}
}

// heldIn reports whether a maintenance operation conditioned on
// container in may touch f: committed there, healthy, nothing in flight.
func (m *indexModel) heldIn(f metadata.Fingerprint, in string) bool {
	s := m.get(f)
	return !s.pending && s.committed && !s.damaged && s.container == in
}

func (m *indexModel) markDamaged(f metadata.Fingerprint, in string) bool {
	if !m.heldIn(f, in) {
		return false
	}
	s := m.get(f)
	s.damaged, s.container = true, ""
	return true
}

func (m *indexModel) repoint(f metadata.Fingerprint, from, to string) bool {
	if !m.heldIn(f, from) {
		return false
	}
	m.get(f).container = to
	return true
}

// check compares every observable answer of ix with the model.
func (m *indexModel) check(t *testing.T, ix *Index, fps []metadata.Fingerprint, users []uint64, op string) {
	t.Helper()
	for _, user := range users {
		owned, err := ix.SharesOwnedBy(fps, user)
		if err != nil {
			t.Fatalf("after %s: SharesOwnedBy: %v", op, err)
		}
		locs, err := ix.LocateShares(fps, user)
		if err != nil {
			t.Fatalf("after %s: LocateShares: %v", op, err)
		}
		for i, f := range fps {
			s := m.get(f)
			_, wantOwned := s.live()[user]
			if owned[i] != wantOwned {
				t.Fatalf("after %s: fp %d user %d owned=%v, model %v", op, i, user, owned[i], wantOwned)
			}
			want := ShareLocation{}
			if s.committed {
				_, has := s.refs[user]
				want = ShareLocation{Found: true, Owned: has, Container: s.container, Size: s.size}
			}
			if locs[i] != want {
				t.Fatalf("after %s: fp %d user %d located %+v, model %+v", op, i, user, locs[i], want)
			}
		}
	}
	for i, f := range fps {
		s := m.get(f)
		got, err := ix.LookupShare(f)
		if !s.committed {
			if err != ErrNotFound {
				t.Fatalf("after %s: fp %d is %+v (%v), model has no committed entry", op, i, got, err)
			}
			continue
		}
		want := &ShareEntry{Fingerprint: f, Container: s.container, Size: s.size, Refs: s.refs, Damaged: s.damaged}
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("after %s: fp %d is %+v (%v), model %+v", op, i, got, err, want)
		}
	}
	if got := ix.RepairedShares(); got != m.repairs {
		t.Fatalf("after %s: RepairedShares = %d, model %d", op, got, m.repairs)
	}
}

// containerMates returns the fingerprints the model places in container in.
func containerMates(m *indexModel, fps []metadata.Fingerprint, in string) []metadata.Fingerprint {
	var out []metadata.Fingerprint
	for _, f := range fps {
		if m.get(f).container == in {
			out = append(out, f)
		}
	}
	return out
}

// TestIndexAgainstModel drives the index and the model with one random
// operation stream — reserve, commit (single and grouped), abort,
// duplicate upload by another user, reference settlement with repeated
// fingerprints, release, quarantine, repoint, repair-reserve, flush,
// sync, reopen — and compares every observable answer after every step.
func TestIndexAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runModel(t, seed, 1500) })
	}
}

func runModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	ix, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ix.Close() }()
	fps := make([]metadata.Fingerprint, 24)
	for i := range fps {
		fps[i] = fp(fmt.Sprintf("model-%d-%d", seed, i))
	}
	users := []uint64{1, 2, 3}
	m := &indexModel{shares: map[metadata.Fingerprint]*modelShare{}}
	pick := func() metadata.Fingerprint { return fps[rng.Intn(len(fps))] }
	// some draws n fingerprints, with repeats, among those satisfying ok.
	some := func(n int, ok func(*modelShare) bool) []metadata.Fingerprint {
		var out []metadata.Fingerprint
		for tries := 0; tries < 4*n && len(out) < n; tries++ {
			if f := pick(); ok(m.get(f)) {
				out = append(out, f)
				if rng.Intn(3) == 0 {
					out = append(out, f)
				}
			}
		}
		return out
	}
	pendings := func() []metadata.Fingerprint {
		var out []metadata.Fingerprint
		for _, f := range fps {
			if m.get(f).pending {
				out = append(out, f)
			}
		}
		return out
	}
	for step := 0; step < steps; step++ {
		user := users[rng.Intn(len(users))]
		var op string
		switch r := rng.Intn(100); {
		case r < 30:
			f, size := pick(), uint32(1+rng.Intn(9000))
			op = fmt.Sprintf("try-reserve user %d", user)
			want := m.tryReserve(f, user, size)
			if got, err := ix.TryReserveShare(f, user, size); err != nil || got != want {
				t.Fatalf("step %d %s: status %v (%v), model %v", step, op, got, err, want)
			}
		case r < 42:
			p := pendings()
			if len(p) == 0 {
				continue
			}
			f, name := p[rng.Intn(len(p))], fmt.Sprintf("share-u%d-%012d", user, step)
			op = "commit"
			if err := ix.CommitShare(f, name); err != nil {
				t.Fatalf("step %d %s: %v", step, op, err)
			}
			m.commit(f, name)
		case r < 50:
			p := pendings()
			names := make([]string, len(p))
			for i, f := range p {
				names[i] = fmt.Sprintf("share-u%d-%012d", user, step*100+i/3) // containers hold a few shares each
				m.commit(f, names[i])
			}
			op = fmt.Sprintf("group-commit of %d", len(p))
			if err := ix.CommitShares(p, names); err != nil {
				t.Fatalf("step %d %s: %v", step, op, err)
			}
		case r < 55:
			p := pendings()
			if len(p) == 0 {
				continue
			}
			f := p[rng.Intn(len(p))]
			op = "abort"
			ix.AbortShare(f)
			m.abort(f)
		case r < 70:
			batch := some(1+rng.Intn(8), func(s *modelShare) bool { return s.pending || s.committed })
			op = fmt.Sprintf("add-refs x%d user %d", len(batch), user)
			if err := ix.AddShareRefs(batch, user); err != nil {
				t.Fatalf("step %d %s: %v", step, op, err)
			}
			for _, f := range batch {
				m.get(f).live()[user]++
			}
		case r < 82:
			batch := some(1+rng.Intn(8), func(*modelShare) bool { return true })
			op = fmt.Sprintf("release x%d user %d", len(batch), user)
			if err := ix.ReleaseShareRefs(batch, user); err != nil {
				t.Fatalf("step %d %s: %v", step, op, err)
			}
			for _, f := range batch {
				m.release(f, user)
			}
		case r < 88:
			// Maintenance on one container: the batch names it plus entries
			// that live elsewhere, are in flight or are unknown, which the
			// compare-and-set must leave alone.
			batch := some(1+rng.Intn(4), func(*modelShare) bool { return true })
			in := "share-u0-nowhere"
			if held := some(1, func(s *modelShare) bool { return s.committed && !s.damaged && !s.pending }); len(held) > 0 {
				in = m.get(held[0]).container
				batch = append(batch, containerMates(m, fps, in)...)
			}
			want, seen := 0, map[metadata.Fingerprint]bool{}
			if r < 85 {
				op = fmt.Sprintf("mark-damaged x%d in %q", len(batch), in)
				for _, f := range batch {
					if !seen[f] && m.markDamaged(f, in) {
						want++
					}
					seen[f] = true
				}
				if got, err := ix.MarkSharesDamaged(batch, in); err != nil || got != want {
					t.Fatalf("step %d %s: marked %d (%v), model %d", step, op, got, err, want)
				}
			} else {
				to := fmt.Sprintf("share-u%d-%012d", user, 1_000_000+step)
				op = fmt.Sprintf("repoint x%d %q -> %q", len(batch), in, to)
				for _, f := range batch {
					if !seen[f] && m.repoint(f, in, to) {
						want++
					}
					seen[f] = true
				}
				if got, err := ix.RepointShares(batch, in, to); err != nil || got != want {
					t.Fatalf("step %d %s: moved %d (%v), model %d", step, op, got, err, want)
				}
			}
		case r < 91:
			op = "add-refs on a missing fingerprint"
			var missing []metadata.Fingerprint
			for _, f := range fps {
				if s := m.get(f); !s.pending && !s.committed {
					missing = append(missing, f)
					break
				}
			}
			if missing == nil {
				continue
			}
			if err := ix.AddShareRefs(missing, user); !errors.Is(err, ErrNotFound) {
				t.Fatalf("step %d %s: %v, want ErrNotFound", step, op, err)
			}
		case r < 94:
			op = "flush"
			if err := ix.Flush(); err != nil {
				t.Fatal(err)
			}
		case r < 97:
			op = "sync"
			if err := ix.Sync(); err != nil {
				t.Fatal(err)
			}
		default:
			op = "reopen"
			if err := ix.Close(); err != nil {
				t.Fatal(err)
			}
			if ix, err = Open(dir); err != nil {
				t.Fatal(err)
			}
			for _, f := range pendings() { // reservations do not survive a restart
				m.abort(f)
			}
			m.repairs = 0
		}
		m.check(t, ix, fps, append(users, 99), fmt.Sprintf("step %d %s", step, op))
	}
}

// TestOwnershipAnswersDependOnlyOnTheAsker is the §3.3 side-channel
// check on the view-backed paths: whatever user A has committed or has
// in flight, user B's ownership and locate answers are those of an
// empty index.
func TestOwnershipAnswersDependOnlyOnTheAsker(t *testing.T) {
	ix := openTestIndex(t)
	const a, b = 1, 2
	var fps []metadata.Fingerprint
	for i := 0; i < 90; i++ {
		f := fp(fmt.Sprintf("side-%d", i))
		fps = append(fps, f)
		if i%3 == 2 {
			continue // unknown to the index
		}
		if st, err := ix.TryReserveShare(f, a, 100); err != nil || st != StatusReserved {
			t.Fatalf("reserve: %v, %v", st, err)
		}
		if i%3 == 0 {
			if err := ix.CommitShare(f, "share-u1-000000000001"); err != nil {
				t.Fatal(err)
			}
			if err := ix.AddShareRefs([]metadata.Fingerprint{f, f}, a); err != nil {
				t.Fatal(err)
			}
		} // else left pending for A
	}
	owned, err := ix.SharesOwnedBy(fps, b)
	if err != nil {
		t.Fatal(err)
	}
	locs, err := ix.LocateShares(fps, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fps {
		if owned[i] || locs[i].Owned {
			t.Fatalf("fp %d (state %d): user B sees ownership through user A's state: side channel", i, i%3)
		}
		if o, _ := ix.ShareOwnedBy(fps[i], b); o {
			t.Fatalf("fp %d: single-fingerprint query leaks", i)
		}
	}
	ownedA, _ := ix.SharesOwnedBy(fps, a)
	for i := range fps {
		if ownedA[i] != (i%3 != 2) {
			t.Fatalf("fp %d: user A owned=%v", i, ownedA[i])
		}
	}
}
