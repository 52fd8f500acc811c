package protocol

import (
	"bytes"
	"testing"
	"testing/quick"

	"cdstore/internal/metadata"
)

// TestDecodersNeverPanicOnGarbage feeds random byte strings to every
// payload decoder: malformed input must produce errors, never panics or
// absurd allocations — servers decode attacker-controlled bytes.
func TestDecodersNeverPanicOnGarbage(t *testing.T) {
	decoders := map[string]func([]byte){
		"Hello":        func(p []byte) { _, _ = DecodeHello(p) },
		"HelloOK":      func(p []byte) { _, _, _, _ = DecodeHelloOK(p) },
		"Fingerprints": func(p []byte) { _, _ = DecodeFingerprintsInto(nil, p) },
		"Bitmap":       func(p []byte) { _, _ = DecodeBitmap(p) },
		"ShareBatch":   func(p []byte) { _, _ = DecodeShareBatch(p) },
		"Shares":       func(p []byte) { _, _ = DecodeShares(p) },
		"String":       func(p []byte) { _, _ = DecodeString(p) },
		"FileList":     func(p []byte) { _, _ = DecodeFileList(p) },
		"Error":        func(p []byte) { _, _ = DecodeError(p) },
		"ScrubReport":  func(p []byte) { _, _ = DecodeScrubReport(p) },
		// MsgPutRecipe payloads decode through metadata.UnmarshalRecipe
		// on the server; it faces the same attacker-controlled bytes.
		"Recipe": func(p []byte) { _, _ = metadata.UnmarshalRecipe(p) },
	}
	for name, dec := range decoders {
		dec := dec
		err := quick.Check(func(p []byte) bool {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s panicked on %x: %v", name, p, r)
				}
			}()
			dec(p)
			return true
		}, &quick.Config{MaxCount: 500})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// realRecipeCorpus builds the seed corpus for FuzzRecipeUnmarshal the
// way a real backup would: recipes whose entries carry fingerprints of
// actual share-sized payloads, including the empty file, a one-secret
// file, and a multi-secret file with a long path.
func realRecipeCorpus() [][]byte {
	mkEntries := func(n int) []metadata.RecipeEntry {
		entries := make([]metadata.RecipeEntry, n)
		for i := range entries {
			share := bytes.Repeat([]byte{byte(i + 1)}, 1400+i)
			entries[i] = metadata.RecipeEntry{
				ShareFP:    metadata.FingerprintOf(share),
				ShareSize:  uint32(len(share)),
				SecretSize: uint32(4096),
			}
		}
		return entries
	}
	empty := &metadata.Recipe{FileMeta: metadata.FileMeta{Path: "/empty", FileSize: 0, NumSecrets: 0}}
	one := &metadata.Recipe{
		FileMeta: metadata.FileMeta{Path: "/one.bin", FileSize: 4096, NumSecrets: 1},
		Entries:  mkEntries(1),
	}
	backup := &metadata.Recipe{
		FileMeta: metadata.FileMeta{
			Path:       "/home/user42/backups/week-03/projects.tar",
			FileSize:   64 * 4096,
			NumSecrets: 64,
		},
		Entries: mkEntries(64),
	}
	return [][]byte{empty.Marshal(), one.Marshal(), backup.Marshal()}
}

// FuzzRecipeUnmarshal feeds attacker-supplied bytes to the recipe
// decoder the server runs on every MsgPutRecipe. It must never panic,
// never allocate out of proportion to the input (a forged entry count
// must not pre-allocate gigabytes), and accepted inputs must round-trip
// canonically.
func FuzzRecipeUnmarshal(f *testing.F) {
	for _, seed := range realRecipeCorpus() {
		f.Add(seed)
	}
	// Hand-crafted liars (recipe format 2): absurd path length, bad
	// version, truncated path, and a format-1 header.
	f.Add([]byte{2, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3})
	f.Add([]byte{3, 0, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 0, 4, 'a', 'b'})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := metadata.UnmarshalRecipe(data)
		if err != nil {
			return
		}
		// Entries are 40 bytes each on the wire: the decoder must not
		// have allocated more entries than the payload can hold.
		if cap(r.Entries) > len(data) {
			t.Fatalf("over-allocation: %d entries capacity from %d input bytes", cap(r.Entries), len(data))
		}
		round := r.Marshal()
		if !bytes.Equal(round, data) {
			t.Fatalf("accepted recipe is not canonical:\n in  %x\n out %x", data, round)
		}
	})
}

// TestRecipeCorpusRoundTrips pins the seed corpus as valid so the fuzz
// target starts from accepting inputs even in plain `go test` runs.
func TestRecipeCorpusRoundTrips(t *testing.T) {
	for i, seed := range realRecipeCorpus() {
		r, err := metadata.UnmarshalRecipe(seed)
		if err != nil {
			t.Fatalf("corpus %d rejected: %v", i, err)
		}
		if !bytes.Equal(r.Marshal(), seed) {
			t.Fatalf("corpus %d does not round-trip", i)
		}
		if uint64(len(r.Entries)) != r.NumSecrets {
			t.Fatalf("corpus %d: %d entries vs %d secrets", i, len(r.Entries), r.NumSecrets)
		}
	}
}

// TestDecodersRejectCountLies checks decoders whose payloads carry
// element counts against buffers that lie about them.
func TestDecodersRejectCountLies(t *testing.T) {
	// Claim 1M fingerprints with a 10-byte body.
	lie := []byte{0x00, 0x10, 0x00, 0x00, 1, 2, 3, 4, 5, 6}
	if _, err := DecodeFingerprintsInto(nil, lie); err == nil {
		t.Error("fingerprint count lie accepted")
	}
	if _, err := DecodeShareBatch(lie); err == nil {
		t.Error("share batch count lie accepted")
	}
	if _, err := DecodeShares(lie); err == nil {
		t.Error("shares count lie accepted")
	}
	if _, err := DecodeFileList(lie); err == nil {
		t.Error("file list count lie accepted")
	}
	// Absurd counts must not pre-allocate gigabytes.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := DecodeShareBatch(huge); err == nil {
		t.Error("absurd share count accepted")
	}
}
