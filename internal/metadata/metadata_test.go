package metadata

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestFingerprintOfDeterministic(t *testing.T) {
	a := FingerprintOf([]byte("hello"))
	b := FingerprintOf([]byte("hello"))
	c := FingerprintOf([]byte("hellp"))
	if a != b {
		t.Fatal("same content, different fingerprints")
	}
	if a == c {
		t.Fatal("different content, same fingerprint")
	}
}

func TestFingerprintStringParse(t *testing.T) {
	f := FingerprintOf([]byte("roundtrip"))
	s := f.String()
	if len(s) != 64 {
		t.Fatalf("hex length %d, want 64", len(s))
	}
	g, err := ParseFingerprint(s)
	if err != nil || g != f {
		t.Fatalf("parse round trip failed: %v", err)
	}
	if _, err := ParseFingerprint("zz"); err == nil {
		t.Fatal("bad hex accepted")
	}
	if _, err := ParseFingerprint("abcd"); err == nil {
		t.Fatal("short fingerprint accepted")
	}
}

func TestRecipeRoundTrip(t *testing.T) {
	r := &Recipe{
		FileMeta: FileMeta{Path: "/home/user9/backup.tar", FileSize: 1 << 30, NumSecrets: 3},
		Entries: []RecipeEntry{
			{ShareFP: FingerprintOf([]byte("a")), ShareSize: 2731, SecretSize: 8192},
			{ShareFP: FingerprintOf([]byte("b")), ShareSize: 2731, SecretSize: 8192},
			{ShareFP: FingerprintOf([]byte("c")), ShareSize: 1377, SecretSize: 4100},
		},
	}
	enc := r.Marshal()
	got, err := UnmarshalRecipe(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Path != r.Path || got.FileSize != r.FileSize || got.NumSecrets != r.NumSecrets {
		t.Fatalf("file meta mismatch: %+v", got.FileMeta)
	}
	if len(got.Entries) != len(r.Entries) {
		t.Fatalf("entries %d, want %d", len(got.Entries), len(r.Entries))
	}
	for i := range r.Entries {
		if got.Entries[i] != r.Entries[i] {
			t.Fatalf("entry %d mismatch", i)
		}
	}
}

func TestRecipeEmptyEntries(t *testing.T) {
	r := &Recipe{FileMeta: FileMeta{Path: "p", FileSize: 0, NumSecrets: 0}}
	got, err := UnmarshalRecipe(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 0 || got.Path != "p" {
		t.Fatal("empty recipe mismatch")
	}
}

func TestRecipeCorruptInputs(t *testing.T) {
	r := &Recipe{
		FileMeta: FileMeta{Path: "/x", FileSize: 10, NumSecrets: 1},
		Entries:  []RecipeEntry{{ShareFP: FingerprintOf([]byte("e")), ShareSize: 5, SecretSize: 10}},
	}
	enc := r.Marshal()
	if _, err := UnmarshalRecipe(nil); err != ErrShortBuffer {
		t.Fatalf("nil: %v", err)
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 99
	if _, err := UnmarshalRecipe(bad); err != ErrBadVersion {
		t.Fatalf("version: %v", err)
	}
	if _, err := UnmarshalRecipe(enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated entries accepted")
	}
	if _, err := UnmarshalRecipe(append(append([]byte(nil), enc...), 0xFF)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// A recipe whose header NumSecrets disagrees with the entry count must
	// be rejected: restore indexes Entries[seq] for seq < NumSecrets and
	// repair sizes allocations by it, so a liar dies at decode time.
	lying := append([]byte(nil), enc...)
	// NumSecrets is the u64 after version, path length, path, FileSize.
	off := 1 + 4 + len(r.Path) + 8
	lying[off+7] = 2 // NumSecrets: 1 -> 2, entry count still 1
	if _, err := UnmarshalRecipe(lying); err != ErrInconsistency {
		t.Fatalf("NumSecrets/entry-count mismatch accepted: %v", err)
	}
}

func TestRecipePropertyRoundTrip(t *testing.T) {
	err := quick.Check(func(path string, size uint64, fps [][32]byte) bool {
		// NumSecrets must equal the entry count — the decoder enforces the
		// invariant every producer upholds.
		r := &Recipe{FileMeta: FileMeta{Path: path, FileSize: size, NumSecrets: uint64(len(fps))}}
		for _, fp := range fps {
			r.Entries = append(r.Entries, RecipeEntry{ShareFP: fp, ShareSize: 1, SecretSize: 2})
		}
		got, err := UnmarshalRecipe(r.Marshal())
		if err != nil {
			return false
		}
		if got.Path != path || got.FileSize != size || got.NumSecrets != uint64(len(fps)) || len(got.Entries) != len(fps) {
			return false
		}
		for i := range fps {
			if !bytes.Equal(got.Entries[i].ShareFP[:], fps[i][:]) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFileKeyDistinguishesUsersAndPaths(t *testing.T) {
	a := FileKey(1, "/backup.tar")
	b := FileKey(2, "/backup.tar")
	c := FileKey(1, "/other.tar")
	d := FileKey(1, "/backup.tar")
	if a == b || a == c || b == c {
		t.Fatal("FileKey collisions across users/paths")
	}
	if a != d {
		t.Fatal("FileKey not deterministic")
	}
}
