package cloud

import (
	"bytes"
	"strings"
	"testing"

	"cdstore/internal/container"
)

// corruptOneShare tampers with one stored share inside cloud idx's
// backend, keeping the container structurally valid (CRC recomputed), so
// the corruption is only detectable by CAONT-RS's embedded integrity
// check — the scenario §3.2's brute-force decoding addresses.
func corruptOneShare(t *testing.T, cl *Cluster, idx int) {
	t.Helper()
	backend := cl.Clouds[idx].Backend
	names, err := backend.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if !strings.HasPrefix(name, "share-") {
			continue
		}
		raw, err := backend.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		// Flip bytes in every entry of this container: decoding any
		// secret whose share lives here must fail the integrity check.
		out, changed := container.TamperEntries(name, raw, 1, 0xA5)
		if len(changed) == 0 {
			continue
		}
		if err := backend.Put(name, out); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("no share container found to corrupt")
}

func TestRestoreSurvivesSilentCorruption(t *testing.T) {
	cl := newTestCluster(t)
	c, err := cl.Connect(1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := randomBytes(61, 100*1024)
	if _, err := c.Backup("/corrupt.tar", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	// Flush containers so corruption hits persisted state, and drop the
	// servers' read caches so reads actually see the tampered backend.
	for _, cloud := range cl.Clouds {
		if err := cloud.Server.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Cloud 0 is among the first k preferred for download: corrupting it
	// forces the brute-force retry.
	corruptOneShare(t, cl, 0)
	for _, cloud := range cl.Clouds {
		cloud.Server.DropCaches()
	}

	var out bytes.Buffer
	stats, err := c.Restore("/corrupt.tar", &out)
	if err != nil {
		t.Fatalf("restore failed despite 3 clean clouds: %v", err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restored data corrupted")
	}
	if stats.SubsetRetries == 0 {
		t.Fatal("expected brute-force subset retries for the corrupted shares")
	}
}

func TestReBackupSamePathReplaces(t *testing.T) {
	// Regression: replacing a file must not release shared references
	// before the new recipe claims them (same-path re-upload of identical
	// content used to delete the share index entries mid-flight).
	cl := newTestCluster(t)
	c, err := cl.Connect(1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := randomBytes(62, 80*1024)
	if _, err := c.Backup("/replace.tar", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	// Identical content, same path.
	if _, err := c.Backup("/replace.tar", bytes.NewReader(data)); err != nil {
		t.Fatalf("same-path identical re-backup failed: %v", err)
	}
	var out bytes.Buffer
	if _, err := c.Restore("/replace.tar", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restore after replacement mismatch")
	}
	// New content, same path: old content replaced.
	data2 := randomBytes(63, 90*1024)
	if _, err := c.Backup("/replace.tar", bytes.NewReader(data2)); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if _, err := c.Restore("/replace.tar", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data2) {
		t.Fatal("replacement did not take effect")
	}
	files, err := c.ListFiles()
	if err != nil || len(files) != 1 {
		t.Fatalf("file list after replacements: %v, %v", files, err)
	}
	// A reclaiming pass after replacement churn keeps the live version
	// restorable.
	for _, cloud := range cl.Clouds {
		if err := cloud.Server.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := cloud.Server.RunScrubPass(); err != nil {
			t.Fatal(err)
		}
	}
	out.Reset()
	if _, err := c.Restore("/replace.tar", &out); err != nil {
		t.Fatalf("restore after the pass: %v", err)
	}
	if !bytes.Equal(out.Bytes(), data2) {
		t.Fatal("the pass damaged the live replacement")
	}
}
