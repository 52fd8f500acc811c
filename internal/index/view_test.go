package index

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"cdstore/internal/metadata"
)

// referenceUnmarshal is the share-entry decoder as it stood before the
// entry view existed, frozen here as the oracle the view is compared
// against (the package's own unmarshalShareEntry is built on the view, so
// comparing against it would prove nothing).
func referenceUnmarshal(fp metadata.Fingerprint, src []byte) (*ShareEntry, error) {
	if len(src) < 12 {
		return nil, fmt.Errorf("short share entry")
	}
	clen := int(binary.BigEndian.Uint32(src))
	p := 4
	if p+clen+8 > len(src) {
		return nil, fmt.Errorf("corrupt share entry")
	}
	e := &ShareEntry{Fingerprint: fp, Container: string(src[p : p+clen])}
	p += clen
	e.Size = binary.BigEndian.Uint32(src[p:])
	count := int(binary.BigEndian.Uint32(src[p+4:]))
	p += 8
	switch len(src) - p {
	case count * 12:
	case count*12 + 1:
		flags := src[len(src)-1]
		if flags&^byte(shareFlagDamaged) != 0 {
			return nil, fmt.Errorf("unknown share entry flags %#x", flags)
		}
		e.Damaged = flags&shareFlagDamaged != 0
	default:
		return nil, fmt.Errorf("corrupt share refs")
	}
	e.Refs = make(map[uint64]uint32, count)
	for i := 0; i < count; i++ {
		e.Refs[binary.BigEndian.Uint64(src[p:])] = binary.BigEndian.Uint32(src[p+8:])
		p += 12
	}
	return e, nil
}

// randomEntry draws an entry covering the shapes the index persists:
// 0–40 owners (some at the count-0 upload marker), empty to long
// container names, damaged or not.
func randomEntry(rng *rand.Rand) *ShareEntry {
	e := &ShareEntry{
		Fingerprint: fp(fmt.Sprint(rng.Int63())),
		Size:        rng.Uint32(),
		Refs:        map[uint64]uint32{},
		Damaged:     rng.Intn(4) == 0,
	}
	name := make([]byte, []int{0, 1, 21, 300}[rng.Intn(4)])
	for i := range name {
		name[i] = byte('a' + rng.Intn(26))
	}
	e.Container = string(name)
	for n := rng.Intn(41); len(e.Refs) < n; {
		e.Refs[uint64(rng.Intn(64))] = uint32(rng.Intn(4))
	}
	return e
}

// encodings returns the byte forms one logical entry may have on disk:
// the current one, and — for a healthy entry — the layout written before
// the flags byte existed (identical bytes) and one with an explicit zero
// flags byte, which the decoder has always accepted.
func encodings(e *ShareEntry) [][]byte {
	raw := marshalShareEntry(e)
	if e.Damaged {
		return [][]byte{raw}
	}
	return [][]byte{raw, append(append([]byte(nil), raw...), 0)}
}

// checkViewAgrees compares every accessor of raw's view with the
// reference decoding.
func checkViewAgrees(t *testing.T, raw []byte) (entryView, *ShareEntry) {
	t.Helper()
	var f metadata.Fingerprint
	want, err := referenceUnmarshal(f, raw)
	if err != nil {
		t.Fatalf("reference rejects %x: %v", raw, err)
	}
	v, err := parseEntry(raw)
	if err != nil {
		t.Fatalf("view rejects %x: %v", raw, err)
	}
	if string(v.container()) != want.Container || v.size() != want.Size || v.damaged() != want.Damaged || v.n != len(want.Refs) {
		t.Fatalf("view {%q %d damaged=%v n=%d}, reference %+v", v.container(), v.size(), v.damaged(), v.n, want)
	}
	total := 0
	users := []uint64{0, 1, 65, 1 << 63} // mostly absent
	for u, c := range want.Refs {
		users = append(users, u)
		total += int(c)
	}
	for _, u := range users {
		c, owned := want.Refs[u]
		if v.owned(u) != owned || v.count(u) != c {
			t.Fatalf("user %d: view owned=%v count=%d, reference owned=%v count=%d", u, v.owned(u), v.count(u), owned, c)
		}
	}
	if v.total() != total {
		t.Fatalf("total %d, reference %d", v.total(), total)
	}
	got, err := unmarshalShareEntry(f, raw)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("materialised %+v (%v), reference %+v", got, err, want)
	}
	return v, want
}

// sameEntry asserts that the derived encoding decodes (by the reference)
// to want, and survives a marshal round trip unchanged.
func sameEntry(t *testing.T, op string, derived entryView, want *ShareEntry) {
	t.Helper()
	if parsed, _ := checkViewAgrees(t, derived.raw); !reflect.DeepEqual(parsed, derived) {
		t.Fatalf("%s: returned view %+v, its bytes parse as %+v", op, derived, parsed)
	}
	got, _ := referenceUnmarshal(want.Fingerprint, derived.raw)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: got %+v, want %+v", op, got, want)
	}
	again, err := referenceUnmarshal(want.Fingerprint, marshalShareEntry(got))
	if err != nil || !reflect.DeepEqual(again, want) {
		t.Fatalf("%s: marshal round trip %+v (%v), want %+v", op, again, err, want)
	}
}

func clone(e *ShareEntry) *ShareEntry {
	c := *e
	c.Refs = maps.Clone(e.Refs)
	return &c
}

// TestEntryViewDifferential checks, over random entries in every on-disk
// form, that the view reads what the frozen decoder reads and that each
// copy-on-write derivation encodes exactly the entry the same edit makes
// on a materialised ShareEntry — without ever writing through the source
// bytes.
func TestEntryViewDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for iter := 0; iter < 2000; iter++ {
		e := randomEntry(rng)
		for _, raw := range encodings(e) {
			before := append([]byte(nil), raw...)
			v, base := checkViewAgrees(t, raw)
			base.Fingerprint = e.Fingerprint

			user, delta := uint64(rng.Intn(66)), uint32(rng.Intn(3))
			want := clone(base)
			want.Refs[user] += delta
			sameEntry(t, "withRef", v.withRef(user, delta), want)

			m := uint32(1 + rng.Intn(3))
			want = clone(base)
			if c, ok := want.Refs[user]; ok && c > m {
				want.Refs[user] = c - m
			} else {
				delete(want.Refs, user)
			}
			sameEntry(t, "withoutRef", v.withoutRef(user, m), want)

			want = clone(base)
			want.Container, want.Damaged = "share-u9-000000000123", false
			sameEntry(t, "withContainer", v.withContainer(want.Container), want)

			want = clone(base)
			want.Container, want.Damaged = "", true
			sameEntry(t, "withDamaged", v.withDamaged(), want)

			if string(raw) != string(before) {
				t.Fatalf("a with* method wrote through the source bytes")
			}
		}
	}
	fresh := newEntry(4096, 7)
	sameEntry(t, "newEntry", fresh, &ShareEntry{Size: 4096, Refs: map[uint64]uint32{7: 0}})
}

// TestEntryViewRejectsCorruption truncates and flips every byte of valid
// encodings: the view and the frozen decoder must agree on which inputs
// are entries, and neither may panic.
func TestEntryViewRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for iter := 0; iter < 200; iter++ {
		raw := encodings(randomEntry(rng))[0]
		for cut := 0; cut <= len(raw); cut++ {
			agreeOnValidity(t, raw[:cut])
		}
		for i := range raw {
			bad := append([]byte(nil), raw...)
			bad[i] ^= byte(1 + rng.Intn(255))
			agreeOnValidity(t, bad)
		}
	}
}

func agreeOnValidity(t *testing.T, raw []byte) bool {
	t.Helper()
	var f metadata.Fingerprint
	_, rerr := referenceUnmarshal(f, raw)
	_, verr := parseEntry(raw)
	if (rerr == nil) != (verr == nil) {
		t.Fatalf("input %x: reference error %v, view error %v", raw, rerr, verr)
	}
	return verr == nil
}

// FuzzShareEntryView feeds arbitrary bytes to the view: it must accept
// exactly what the frozen decoder accepts, agree with it on every
// accessor, and derive only well-formed entries.
func FuzzShareEntryView(f *testing.F) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 12; i++ {
		for _, raw := range encodings(randomEntry(rng)) {
			f.Add(raw, uint64(rng.Intn(66)))
			f.Add(raw[:len(raw)/2], uint64(0))
		}
	}
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint64(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0}, uint64(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff}, uint64(1))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2}, uint64(1))
	f.Fuzz(func(t *testing.T, raw []byte, user uint64) {
		if !agreeOnValidity(t, raw) {
			return
		}
		v, _ := parseEntry(raw)
		var fp metadata.Fingerprint
		if want, _ := referenceUnmarshal(fp, raw); len(want.Refs) == v.n {
			// (a repeated user id, which the index never writes, decodes
			// last-wins in the map and first-wins in the view)
			checkViewAgrees(t, raw)
		}
		for _, d := range []entryView{v.withRef(user, 1), v.withoutRef(user, 1), v.withContainer("c"), v.withDamaged()} {
			if _, err := parseEntry(d.raw); err != nil {
				t.Fatalf("derived entry %x from %x does not parse: %v", d.raw, raw, err)
			}
		}
	})
}
