package scrub

import (
	"strings"
	"testing"

	"cdstore/internal/container"
	"cdstore/internal/metadata"
	"cdstore/internal/storage"
)

// TestQuarantineIsACompaction: the rewrite a quarantine performs is the
// one GC performs. Besides the damaged entries it drops what the index no
// longer places in the container — a deleted share, and the stale copy of
// a share that was deleted and then stored again elsewhere, whose healthy
// index entry must not be flagged although the stale copy is the one
// that was tampered with.
func TestQuarantineIsACompaction(t *testing.T) {
	tc := newTestCloud(t)
	data := payloads(6, 700, 11)
	fps := tc.putShares(t, 1, data)
	deleted, restored, tampered := fps[0], fps[1], fps[2]
	for _, fp := range []metadata.Fingerprint{deleted, restored} {
		if left, err := tc.ix.ReleaseShareRef(fp, 1); err != nil || left != 0 {
			t.Fatalf("release: %d left, %v", left, err)
		}
	}
	tc.putShares(t, 2, data[1:2]) // the same bytes again, into user 2's container
	if err := tc.store.Flush(); err != nil {
		t.Fatal(err)
	}
	tc.store.DropCache()
	old, err := tc.ix.LookupShare(tampered)
	if err != nil {
		t.Fatal(err)
	}
	// Silently corrupt user 1's copies of `restored` and `tampered`: a
	// valid container whose two entries no longer hash to their keys.
	if _, err := storage.Corrupt(tc.backend, func(n string) bool { return n == old.Container },
		func(n string, raw []byte) []byte {
			c, err := container.Unmarshal(n, raw)
			if err != nil {
				t.Fatal(err)
			}
			w := container.NewWriter(n, c.Type, c.UserID, 0)
			for _, e := range c.Entries {
				data := append([]byte(nil), e.Data...)
				if e.Key == restored || e.Key == tampered {
					data[0] ^= 0x77
				}
				w.Add(e.Key, data)
			}
			_, image := w.Seal()
			return image
		}); err != nil {
		t.Fatal(err)
	}

	s := tc.scrubber(Config{})
	defer s.Close()
	stats, err := s.RunPass()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Damaged) != 1 || len(stats.Damaged[0].DamagedShares) != 2 {
		t.Fatalf("pass reported %+v, want one container with two bad entries", stats.Damaged)
	}
	if c := s.Counters(); c.QuarantinedShares != 1 {
		t.Fatalf("quarantined %d shares, want only the one still indexed in the damaged container", c.QuarantinedShares)
	}
	if e, err := tc.ix.LookupShare(restored); err != nil || e.Damaged || !strings.HasPrefix(e.Container, "share-u2-") {
		t.Fatalf("the share stored again elsewhere was touched: %+v, %v", e, err)
	}
	if e, err := tc.ix.LookupShare(tampered); err != nil || !e.Damaged {
		t.Fatalf("the damaged share is not flagged: %+v, %v", e, err)
	}
	// The rewritten container holds the three healthy, indexed entries only.
	survivor, err := tc.ix.LookupShare(fps[3])
	if err != nil || survivor.Container == old.Container {
		t.Fatalf("survivor not repointed: %+v, %v", survivor, err)
	}
	c, err := tc.store.GetContainer(survivor.Container)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Entries) != 3 || c.Entries[0].Key != fps[3] || c.Entries[1].Key != fps[4] || c.Entries[2].Key != fps[5] {
		t.Fatalf("rewritten container holds %d entries, want shares 3, 4, 5 in order", len(c.Entries))
	}
	if _, err := tc.backend.Get(old.Container); err == nil {
		t.Fatal("the damaged container is still on the backend")
	}
	if stats, err := s.RunPass(); err != nil || len(stats.Damaged) != 0 {
		t.Fatalf("second pass: %+v, %v", stats, err)
	}
}
