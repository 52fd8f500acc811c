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
		InflightBytes: 123456,
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
	if got.InflightBytes != 0 || len(got.Affected) != 0 {
		t.Fatalf("empty roundtrip: %+v", got)
	}
}

// TestScrubReportWireBytes pins the MsgScrubReport encoding: the
// big-endian uint64 in-flight bytes, a uint32 file count, and per file a
// uint32-length path, a recipe-lost byte and a uint32-counted list of
// fingerprints. There is no cloud-wide counter, no flags byte and no user
// id: a report is the asker's view. Changing these bytes changes the wire
// format.
func TestScrubReportWireBytes(t *testing.T) {
	var fp metadata.Fingerprint
	for i := range fp {
		fp[i] = byte(0xa0 + i)
	}
	r := &ScrubReport{
		InflightBytes: 11,
		Affected: []AffectedFile{
			{Path: "/a", Damaged: []metadata.Fingerprint{fp}},
			{Path: "/lost", RecipeLost: true, Damaged: []metadata.Fingerprint{}},
		},
	}
	const want = "" +
		"000000000000000b" + // in-flight bytes
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
	header := raw[:8+4]
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
