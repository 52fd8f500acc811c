package protocol

import (
	"encoding/hex"
	"reflect"
	"testing"

	"cdstore/internal/metadata"
)

func TestScrubReportRoundtrip(t *testing.T) {
	fp1 := metadata.FingerprintOf([]byte("a"))
	fp2 := metadata.FingerprintOf([]byte("b"))
	r := &ScrubReport{
		Passes:             3,
		ContainersScanned:  100,
		BytesScanned:       1 << 30,
		EntriesVerified:    5000,
		DamagedContainers:  2,
		DamagedEntries:     17,
		QuarantinedShares:  17,
		LostRecipes:        1,
		RepairedShares:     9,
		DamagedOutstanding: 8,
		InflightBytes:      123456,
		Affected: []AffectedFile{
			{Path: "/u7/wk1", Damaged: []metadata.Fingerprint{fp1, fp2}},
			{Path: "/u7/wk2", RecipeLost: true},
		},
	}
	got, err := DecodeScrubReport(EncodeScrubReport(r))
	if err != nil {
		t.Fatal(err)
	}
	// Normalize the empty-slice/nil distinction before comparing.
	if len(got.Affected[1].Damaged) == 0 {
		got.Affected[1].Damaged = nil
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("roundtrip mismatch:\n in: %+v\nout: %+v", r, got)
	}
}

func TestScrubReportEmpty(t *testing.T) {
	got, err := DecodeScrubReport(EncodeScrubReport(&ScrubReport{}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Passes != 0 || len(got.Affected) != 0 {
		t.Fatalf("empty roundtrip: %+v", got)
	}
}

// TestScrubReportWireBytes pins the MsgScrubReport encoding: eleven
// big-endian uint64 counters, a uint32 file count, and per file a
// uint32-length path, a recipe-lost byte and a uint32-counted list of
// fingerprints. There is no flags byte and no user id: a report lists only
// the asker's files. Changing these bytes changes the wire format.
func TestScrubReportWireBytes(t *testing.T) {
	var fp metadata.Fingerprint
	for i := range fp {
		fp[i] = byte(0xa0 + i)
	}
	r := &ScrubReport{
		Passes: 1, ContainersScanned: 2, BytesScanned: 3, EntriesVerified: 4,
		DamagedContainers: 5, DamagedEntries: 6, QuarantinedShares: 7,
		LostRecipes: 8, RepairedShares: 9, DamagedOutstanding: 10, InflightBytes: 11,
		Affected: []AffectedFile{
			{Path: "/a", Damaged: []metadata.Fingerprint{fp}},
			{Path: "/lost", RecipeLost: true, Damaged: []metadata.Fingerprint{}},
		},
	}
	const want = "" +
		"0000000000000001" + "0000000000000002" + "0000000000000003" + "0000000000000004" +
		"0000000000000005" + "0000000000000006" + "0000000000000007" + "0000000000000008" +
		"0000000000000009" + "000000000000000a" + "000000000000000b" +
		"00000002" + // files
		"00000002" + "2f61" + "00" + "00000001" + // "/a", one damaged share:
		"a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf" +
		"00000005" + "2f6c6f7374" + "01" + "00000000" // "/lost", recipe lost
	raw := EncodeScrubReport(r)
	if got := hex.EncodeToString(raw); got != want {
		t.Fatalf("MsgScrubReport bytes\n got %s\nwant %s", got, want)
	}
	got, err := DecodeScrubReport(raw)
	if err != nil || !reflect.DeepEqual(got, r) {
		t.Fatalf("decoded %+v, %v; want %+v", got, err, r)
	}
}

func TestScrubReportMalformed(t *testing.T) {
	r := &ScrubReport{Affected: []AffectedFile{{Path: "/p"}}}
	raw := EncodeScrubReport(r)
	header := raw[:scrubReportCounters*8+4]
	countLie := append(append([]byte(nil), header[:len(header)-4]...), 0, 0, 0, 2)
	countLie = append(countLie, raw[len(header):]...)
	for _, p := range [][]byte{
		nil, raw[:10], header[:len(header)-1], raw[:len(raw)-1], append(append([]byte(nil), raw...), 0),
		countLie, // two files announced, one sent
	} {
		if _, err := DecodeScrubReport(p); err == nil {
			t.Fatalf("malformed payload of %d bytes accepted", len(p))
		}
	}
}

func TestContainerNamesRoundtrip(t *testing.T) {
	names := []string{"share-u1-000000000003", "", "share-u2-000000000009"}
	got, err := DecodeContainerNames(EncodeContainerNames(names))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, got) {
		t.Fatalf("roundtrip: %v != %v", got, names)
	}
	if _, err := DecodeContainerNames([]byte{1, 2}); err == nil {
		t.Fatal("short payload accepted")
	}
	bad := EncodeContainerNames(names)
	if _, err := DecodeContainerNames(bad[:len(bad)-2]); err == nil {
		t.Fatal("truncated payload accepted")
	}
}
