package cloud

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"cdstore/internal/client"
	"cdstore/internal/container"
	"cdstore/internal/core"
)

// caontrsShareSize is the size of one share of a secretSize-byte secret
// under CAONT-RS at cl's (n, k), the codec every client runs.
func caontrsShareSize(t *testing.T, cl *Cluster, secretSize int) int64 {
	t.Helper()
	codec, err := core.NewCAONTRS(cl.N, cl.K)
	if err != nil {
		t.Fatal(err)
	}
	return int64(codec.ShareSize(secretSize))
}

// corruptAllShares tampers with every stored share container of cloud
// idx (CRCs recomputed, so only the scheme-level integrity check can
// notice) — a silently lying cloud.
func corruptAllShares(t *testing.T, cl *Cluster, idx int) {
	t.Helper()
	backend := cl.Clouds[idx].Backend
	names, err := backend.List()
	if err != nil {
		t.Fatal(err)
	}
	tampered := 0
	for _, name := range names {
		if !strings.HasPrefix(name, "share-") {
			continue
		}
		raw, err := backend.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		out, changed := container.TamperEntries(name, raw, 1, 0xA5)
		tampered += len(changed)
		if err := backend.Put(name, out); err != nil {
			t.Fatal(err)
		}
	}
	if tampered == 0 {
		t.Fatalf("cloud %d: no shares found to corrupt", idx)
	}
}

// minWindowedSecrets is the fewest secrets that span three of the
// client's 512-secret restore windows: a file this long is restored with
// window-to-window state (the cross-window cache, a demoted primary) and work
// still outstanding after the first window.
const minWindowedSecrets = 2*512 + 1

// flushAndDropCaches makes subsequent reads see the (tampered) backend.
func flushAndDropCaches(t *testing.T, cl *Cluster) {
	t.Helper()
	for _, cloud := range cl.Clouds {
		if err := cloud.Server.Flush(); err != nil {
			t.Fatal(err)
		}
		cloud.Server.DropCaches()
	}
}

// TestRestoreSurvivesCorruptionInTwoClouds injects silent corruption
// into two clouds simultaneously on a (4,2) deployment: every secret's
// first decode (from the two corrupted primaries) fails the integrity
// check, and the §3.2 brute-force k-subset retry must recover every one
// from the two clean clouds — on top of the pooled decode buffers.
func TestRestoreSurvivesCorruptionInTwoClouds(t *testing.T) {
	cl, err := NewCluster(Config{N: 4, K: 2, BaseDir: t.TempDir(), ContainerCapacity: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := client.Connect(client.Options{UserID: 1, N: 4, K: 2, EncodeThreads: 2}, cl.Dialers(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := randomBytes(64, 40*1024) // 10 secrets
	bstats, err := backupFixed(c, "/two-corrupt.tar", data, 4096)
	if err != nil {
		t.Fatal(err)
	}
	flushAndDropCaches(t, cl)
	// Clouds 0 and 1 are exactly the primary fetch set at k=2.
	corruptAllShares(t, cl, 0)
	corruptAllShares(t, cl, 1)
	flushAndDropCaches(t, cl)

	var out bytes.Buffer
	rstats, err := c.Restore("/two-corrupt.tar", &out)
	if err != nil {
		t.Fatalf("restore failed despite 2 clean clouds at k=2: %v", err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restored data corrupted")
	}
	if rstats.SubsetRetries != bstats.Secrets {
		t.Fatalf("subset retries = %d, want one per secret (%d)", rstats.SubsetRetries, bstats.Secrets)
	}
}

// TestRestoreDemotionWithoutCleanSpare: at (4,3) two clouds each serve one
// tampered container, holding the shares of different secrets. The first
// to fail a decode (cloud 0, at the head of the file) is demoted and the
// spare takes its slot; when cloud 1 fails one near the end, the only
// spare left is the demoted cloud 0, so nothing moves and the subset
// retry — which still reads cloud 0, clean for those secrets — restores
// them. Every tampered secret is retried at most once.
func TestRestoreDemotionWithoutCleanSpare(t *testing.T) {
	cl := newTestCluster(t)
	c, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := randomBytes(67, minWindowedSecrets*4096)
	if _, err := backupFixed(c, "/two-damaged.tar", data, 4096); err != nil {
		t.Fatal(err)
	}
	flushAndDropCaches(t, cl)
	tampered := tamperContainer(t, cl, 0, 0) + tamperContainer(t, cl, 1, -2)
	flushAndDropCaches(t, cl)

	var out bytes.Buffer
	rstats, err := c.Restore("/two-damaged.tar", &out)
	if err != nil {
		t.Fatalf("restore with one damaged container on each of two clouds: %v", err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restored data corrupted")
	}
	if rstats.SubsetRetries == 0 || rstats.SubsetRetries > int64(tampered) {
		t.Fatalf("%d subset retries for %d tampered secrets", rstats.SubsetRetries, tampered)
	}
	if rstats.Failovers != 1 {
		t.Fatalf("%d failovers, want the one demotion a clean spare allowed", rstats.Failovers)
	}
}

// TestRestoreFailsWhenCorruptionExceedsRedundancy is the negative twin:
// with (4,3), two fully corrupted clouds leave only 2 clean shares per
// secret — below k — so every 3-subset contains a tampered share and the
// restore must fail with the subset-exhaustion error, not hand back
// corrupted bytes.
func TestRestoreFailsWhenCorruptionExceedsRedundancy(t *testing.T) {
	cl := newTestCluster(t)
	c, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := randomBytes(65, 30*1024)
	if _, err := c.Backup("/hopeless.tar", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	flushAndDropCaches(t, cl)
	corruptAllShares(t, cl, 0)
	corruptAllShares(t, cl, 1)
	flushAndDropCaches(t, cl)

	var out bytes.Buffer
	if _, err := c.Restore("/hopeless.tar", &out); err == nil {
		t.Fatal("restore returned success with only 2 clean clouds at k=3")
	} else if !strings.Contains(err.Error(), "subsets") {
		t.Fatalf("unexpected failure mode: %v", err)
	}
}

// TestRestoreDownloadsDistinctSharesOnce is the dedup-aware-fetch
// regression test: a recipe full of duplicate fingerprints must download
// each distinct share exactly once — counted at the servers, which see
// every GetShares payload — even across windows (the cross-window cache)
// and with the recipe referencing each share many times.
func TestRestoreDownloadsDistinctSharesOnce(t *testing.T) {
	cl := newTestCluster(t)
	c, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Three windows of chunks drawn from only 4 distinct 4KB blocks, so
	// the LRU must carry hits across windows.
	const distinct, chunks = 4, minWindowedSecrets
	blocks := make([][]byte, distinct)
	for i := range blocks {
		blocks[i] = randomBytes(int64(100+i), 4096)
	}
	var data []byte
	for i := 0; i < chunks; i++ {
		data = append(data, blocks[i%distinct]...)
	}
	if _, err := backupFixed(c, "/dedup-heavy.tar", data, 4096); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	rstats, err := c.Restore("/dedup-heavy.tar", &out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restore mismatch")
	}
	shareSize := caontrsShareSize(t, cl, 4096)
	// Each of the k primary clouds (0, 1, 2) serves each distinct share
	// exactly once; the spare cloud serves nothing.
	for i := 0; i < cl.K; i++ {
		st := cl.Clouds[i].Server.Stats()
		if st.SharesServed != distinct {
			t.Errorf("cloud %d served %d shares, want %d (one per distinct fingerprint)", i, st.SharesServed, distinct)
		}
		if st.BytesServed != uint64(distinct)*uint64(shareSize) {
			t.Errorf("cloud %d served %d bytes, want %d", i, st.BytesServed, distinct*int(shareSize))
		}
	}
	if st := cl.Clouds[cl.N-1].Server.Stats(); st.SharesServed != 0 {
		t.Errorf("spare cloud served %d shares, want 0", st.SharesServed)
	}
	if want := int64(cl.K) * distinct * shareSize; rstats.DownloadedBytes != want {
		t.Errorf("DownloadedBytes = %d, want %d (distinct bytes only)", rstats.DownloadedBytes, want)
	}
	if rstats.CacheHitBytes == 0 {
		t.Error("no cross-window cache hits on a 3-window dedup-heavy restore")
	}
	if rstats.Bytes != int64(len(data)) {
		t.Errorf("restored %d bytes, want %d", rstats.Bytes, len(data))
	}
}

// TestRestoreLargeChunksStayUnderMessageCap backs up with 64KB chunks —
// ~22KB shares at (4,3), so one 256-secret window per cloud is ~5.6MB of
// share bytes, past protocol.MaxMessage if requested in one GetShares
// call. The engine must split fetches by reply bytes (a count-only cap
// hard-failed here) and still restore byte-identically.
func TestRestoreLargeChunksStayUnderMessageCap(t *testing.T) {
	cl := newTestCluster(t)
	c, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := randomBytes(67, 16<<20) // 256 chunks: one full default window
	if _, err := backupFixed(c, "/large-chunks.tar", data, 64<<10); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	rstats, err := c.Restore("/large-chunks.tar", &out)
	if err != nil {
		t.Fatalf("large-chunk restore failed: %v", err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("large-chunk restore mismatch")
	}
	if rstats.Failovers != 0 || rstats.SubsetRetries != 0 {
		t.Fatalf("clean restore took failovers=%d retries=%d", rstats.Failovers, rstats.SubsetRetries)
	}
}

// failoverWriter kills one cloud's server as soon as the first restored
// bytes arrive, so the failure lands mid-stream with later windows still
// unfetched.
type failoverWriter struct {
	out     bytes.Buffer
	cl      *Cluster
	victim  int
	tripped bool
}

func (w *failoverWriter) Write(p []byte) (int, error) {
	if !w.tripped {
		w.tripped = true
		w.cl.Clouds[w.victim].Server.Close()
	}
	return w.out.Write(p)
}

// TestRestoreFailsOverMidRestore kills primary cloud 0 after the restore
// has started: with 4 clouds reachable and k=3, the engine must promote
// the spare cloud 3 into the fetch set and finish the restore instead of
// failing it.
func TestRestoreFailsOverMidRestore(t *testing.T) {
	cl := newTestCluster(t)
	c, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Six windows: the fetcher runs only a window or two ahead of the
	// writer (the jobs channel holds one window), so the kill lands with
	// windows still to fetch.
	data := randomBytes(66, 6*512*4096)
	if _, err := backupFixed(c, "/failover.tar", data, 4096); err != nil {
		t.Fatal(err)
	}

	w := &failoverWriter{cl: cl, victim: 0}
	rstats, err := c.Restore("/failover.tar", w)
	if err != nil {
		t.Fatalf("restore failed instead of failing over: %v", err)
	}
	if !bytes.Equal(w.out.Bytes(), data) {
		t.Fatal("failed-over restore is not byte-identical")
	}
	if rstats.Failovers == 0 {
		t.Fatal("restore finished without promoting the spare cloud")
	}
}

// TestRepairStreamsDedupHeavyFile drives Repair through the streaming
// engine on a duplicate-heavy file with a small window: the rebuilt
// cloud receives each distinct share once, and afterwards carries real
// decode weight with another cloud offline.
func TestRepairStreamsDedupHeavyFile(t *testing.T) {
	cl := newTestCluster(t)
	c, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	const distinct, chunks = 4, minWindowedSecrets
	blocks := make([][]byte, distinct)
	for i := range blocks {
		blocks[i] = randomBytes(int64(200+i), 4096)
	}
	var data []byte
	for i := 0; i < chunks; i++ {
		data = append(data, blocks[i%distinct]...)
	}
	if _, err := backupFixed(c, "/repair-dedup.tar", data, 4096); err != nil {
		t.Fatal(err)
	}
	c.Close()

	if err := cl.ReplaceCloud(1); err != nil {
		t.Fatal(err)
	}
	c2, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c2.Repair("/repair-dedup.tar", 1)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Secrets != chunks {
		t.Fatalf("repair streamed %d secrets, want %d", rs.Secrets, chunks)
	}
	if rs.SharesRebuilt != distinct {
		t.Fatalf("repair uploaded %d shares, want %d distinct", rs.SharesRebuilt, distinct)
	}
	if rs.Restore.DownloadedBytes >= rs.Restore.Bytes {
		t.Fatalf("repair read %d share bytes for %d logical bytes; dedup-aware fetch missing",
			rs.Restore.DownloadedBytes, rs.Restore.Bytes)
	}
	c2.Close()

	// The rebuilt cloud must carry weight: restore with cloud 0 down.
	cl.FailCloud(0)
	c3, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	var out bytes.Buffer
	if _, err := c3.Restore("/repair-dedup.tar", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restore through repaired cloud mismatch")
	}
}

// TestRepairSessionFollowsStoredBytes repairs three weekly snapshots of
// one user on one session over TCP: the first pays for its rows, the
// later ones read and send only the rows they add — egress and uploads
// follow what the lost cloud stored, not what the recipes reference. A
// fresh client repairing the now healthy cloud pays for nothing: the
// cloud's own recipe names every share and it confirms holding them all.
// The replacement then carries decode weight with another cloud down.
func TestRepairSessionFollowsStoredBytes(t *testing.T) {
	cl := newTestCluster(t)
	c, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Week w repeats week w-1 and appends `added[w]` new chunks; every
	// week spans three restore windows.
	added := []int{minWindowedSecrets, 3, 5}
	var data [][]byte
	var week []byte
	for w, n := range added {
		week = append(week, randomBytes(int64(300+w), n*4096)...)
		data = append(data, append([]byte(nil), week...))
		if _, err := backupFixed(c, fmt.Sprintf("/weekly/%d", w), week, 4096); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()

	if err := cl.ReplaceCloud(1); err != nil {
		t.Fatal(err)
	}
	rc, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	shareSize := caontrsShareSize(t, cl, 4096)
	secrets := int64(0)
	for w, n := range added {
		secrets += int64(n)
		before := cl.Clouds[1].Server.Stats().SharesReceived
		rs, err := rc.Repair(fmt.Sprintf("/weekly/%d", w), 1)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Secrets != secrets || rs.SecretsReused != secrets-int64(n) || rs.SharesRebuilt != int64(n) {
			t.Errorf("week %d: %d secrets, %d reused, %d rebuilt; want %d, %d, %d",
				w, rs.Secrets, rs.SecretsReused, rs.SharesRebuilt, secrets, secrets-int64(n), n)
		}
		if want := int64(cl.K) * int64(n) * shareSize; rs.Restore.DownloadedBytes != want {
			t.Errorf("week %d: downloaded %d bytes, want %d (k shares per added row)", w, rs.Restore.DownloadedBytes, want)
		}
		if got := cl.Clouds[1].Server.Stats().SharesReceived - before; got != uint64(n) {
			t.Errorf("week %d: target received %d shares, want %d", w, got, n)
		}
	}
	rc.Close()

	rc2, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := rc2.Repair("/weekly/2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SecretsReused != secrets || rs.SharesRebuilt != 0 || rs.Restore.DownloadedBytes != 0 {
		t.Errorf("fresh session, healthy cloud: %d reused, %d rebuilt, %d bytes downloaded; want %d, 0, 0",
			rs.SecretsReused, rs.SharesRebuilt, rs.Restore.DownloadedBytes, secrets)
	}
	rc2.Close()

	cl.FailCloud(0)
	c3, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	for w := range added {
		var out bytes.Buffer
		if _, err := c3.Restore(fmt.Sprintf("/weekly/%d", w), &out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data[w]) {
			t.Fatalf("week %d: restore through the repaired cloud mismatch", w)
		}
	}
}
