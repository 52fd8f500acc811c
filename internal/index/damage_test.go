package index

import (
	"testing"

	"cdstore/internal/metadata"
)

func fpOf(b byte) metadata.Fingerprint {
	var fp metadata.Fingerprint
	fp[0] = b
	fp[31] = b
	return fp
}

// commitShare reserves and commits fp into container for userID.
func commitShare(t *testing.T, ix *Index, fp metadata.Fingerprint, userID uint64, container string) {
	t.Helper()
	st, err := ix.TryReserveShare(fp, userID, 128)
	if err != nil || st != StatusReserved {
		t.Fatalf("reserve: st=%v err=%v", st, err)
	}
	if err := ix.CommitShare(fp, container); err != nil {
		t.Fatal(err)
	}
}

func TestMarkSharesDamagedAndRepairReserve(t *testing.T) {
	ix, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	fp := fpOf(1)
	commitShare(t, ix, fp, 7, "s-u7-0")
	// Record a second owner via the normal duplicate classification.
	if st, err := ix.TryReserveShare(fp, 9, 128); err != nil || st != StatusDuplicate {
		t.Fatalf("second owner reserve: st=%v err=%v", st, err)
	}

	n, err := ix.MarkSharesDamaged([]metadata.Fingerprint{fp, fpOf(2)}, "s-u7-0")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("marked %d entries, want 1 (unknown fp skipped)", n)
	}

	e, err := ix.LookupShare(fp)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Damaged || e.Container != "" {
		t.Fatalf("after mark: damaged=%v container=%q", e.Damaged, e.Container)
	}
	if len(e.Refs) != 2 {
		t.Fatalf("refs lost on mark: %v", e.Refs)
	}

	damaged, err := ix.DamagedShares()
	if err != nil {
		t.Fatal(err)
	}
	if len(damaged) != 1 || damaged[0].Fingerprint != fp {
		t.Fatalf("DamagedShares = %v", damaged)
	}

	// Re-marking is idempotent.
	if n, err := ix.MarkSharesDamaged([]metadata.Fingerprint{fp}, "s-u7-0"); err != nil || n != 0 {
		t.Fatalf("re-mark: n=%d err=%v", n, err)
	}

	// A damaged entry is reservable (repair), not a duplicate.
	st, err := ix.TryReserveShare(fp, 7, 128)
	if err != nil || st != StatusReserved {
		t.Fatalf("repair reserve: st=%v err=%v", st, err)
	}
	// While the repair is in flight the fingerprint classifies pending.
	if st, _ := ix.TryReserveShare(fp, 9, 128); st != StatusPending {
		t.Fatalf("concurrent reserve during repair: st=%v", st)
	}
	if err := ix.CommitShare(fp, "s-u7-5"); err != nil {
		t.Fatal(err)
	}

	e, err = ix.LookupShare(fp)
	if err != nil {
		t.Fatal(err)
	}
	if e.Damaged || e.Container != "s-u7-5" {
		t.Fatalf("after repair: damaged=%v container=%q", e.Damaged, e.Container)
	}
	if len(e.Refs) != 2 {
		t.Fatalf("refs lost across repair: %v", e.Refs)
	}
	if got := ix.RepairedShares(); got != 1 {
		t.Fatalf("RepairedShares = %d, want 1", got)
	}
	// Healed entry classifies duplicate again.
	if st, _ := ix.TryReserveShare(fp, 9, 128); st != StatusDuplicate {
		t.Fatalf("post-repair reserve: st=%v", st)
	}
}

func TestRepairAbortLeavesEntryDamaged(t *testing.T) {
	ix, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	fp := fpOf(3)
	commitShare(t, ix, fp, 1, "s-u1-0")
	if _, err := ix.MarkSharesDamaged([]metadata.Fingerprint{fp}, "s-u1-0"); err != nil {
		t.Fatal(err)
	}
	if st, _ := ix.TryReserveShare(fp, 1, 128); st != StatusReserved {
		t.Fatalf("repair reserve: st=%v", st)
	}
	ix.AbortShare(fp)

	e, err := ix.LookupShare(fp)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Damaged {
		t.Fatal("abort cleared the damaged flag; repair must stay retryable")
	}
	if ix.RepairedShares() != 0 {
		t.Fatal("aborted repair counted as completed")
	}
	// The next uploader retries the repair.
	if st, _ := ix.TryReserveShare(fp, 1, 128); st != StatusReserved {
		t.Fatal("damaged entry not reservable after aborted repair")
	}
}

func TestMarkSharesDamagedSkipsInFlight(t *testing.T) {
	ix, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	fp := fpOf(4)
	if st, _ := ix.TryReserveShare(fp, 1, 64); st != StatusReserved {
		t.Fatal("reserve failed")
	}
	n, err := ix.MarkSharesDamaged([]metadata.Fingerprint{fp}, "s-u1-0")
	if err != nil || n != 0 {
		t.Fatalf("in-flight fp marked: n=%d err=%v", n, err)
	}
	if err := ix.CommitShare(fp, "s-u1-0"); err != nil {
		t.Fatal(err)
	}
}

func TestDamagedFlagSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	ix, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fp := fpOf(5)
	commitShare(t, ix, fp, 2, "s-u2-0")
	if _, err := ix.MarkSharesDamaged([]metadata.Fingerprint{fp}, "s-u2-0"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}

	ix2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	e, err := ix2.LookupShare(fp)
	if err != nil {
		t.Fatal(err)
	}
	if !e.Damaged {
		t.Fatal("damaged flag lost across reopen")
	}
}

func TestShareEntryCodecLegacyCompat(t *testing.T) {
	// An entry marshalled without a flags byte (the pre-scrub layout)
	// must still decode: healthy entries are written flag-less.
	e := &ShareEntry{Fingerprint: fpOf(6), Container: "s-u1-9", Size: 4096,
		Refs: map[uint64]uint32{1: 2, 3: 4}}
	raw := marshalShareEntry(e)
	got, err := unmarshalShareEntry(e.Fingerprint, raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Damaged {
		t.Fatal("healthy entry decoded as damaged")
	}
	if got.Container != e.Container || got.Size != e.Size || len(got.Refs) != 2 {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}

	// Damaged entries append the flags byte and roundtrip.
	e.Damaged = true
	e.Container = ""
	raw2 := marshalShareEntry(e)
	if len(raw2) != len(raw)-len("s-u1-9")+1 {
		t.Fatalf("flags byte layout unexpected: %d vs %d", len(raw2), len(raw))
	}
	got2, err := unmarshalShareEntry(e.Fingerprint, raw2)
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Damaged || len(got2.Refs) != 2 {
		t.Fatalf("damaged roundtrip mismatch: %+v", got2)
	}

	// Unknown flag bits are rejected, not silently dropped.
	bad := append(append([]byte(nil), raw...), 0x80)
	if _, err := unmarshalShareEntry(e.Fingerprint, bad); err == nil {
		t.Fatal("unknown flags byte accepted")
	}
}
