// End-to-end tests over real TCP: n per-cloud servers accepting
// connections on loopback listeners, clients running convergent dispersal
// backups and k-of-n restores, a cloud failure, a degraded restore, and a
// repair onto a replacement server — the §5 evaluation scenario in
// miniature, asserted rather than measured.

package cloud

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"cdstore/internal/chunker"
	"cdstore/internal/client"
)

// testOptions are the client options the end-to-end tests start from: a
// (4,3) deployment.
func testOptions(userID uint64) client.Options {
	return client.Options{UserID: userID, N: 4, K: 3}
}

// fixedSource feeds BackupStream from a fixed-size chunker.
type fixedSource struct{ *chunker.Fixed }

func (f fixedSource) NextChunk() ([]byte, error) {
	c, err := f.Next()
	return c.Data, err
}

// backupFixed backs data up under path in size-byte fixed chunks (§4.2's
// other chunker, the one the paper's VM dataset uses). 4 KB chunks keep
// the tests fast and make testFile's repeated blocks repeated chunks.
func backupFixed(c *client.Client, path string, data []byte, size int) (*client.BackupStats, error) {
	fc, err := chunker.NewFixed(bytes.NewReader(data), size)
	if err != nil {
		return nil, err
	}
	return c.BackupStream(path, fixedSource{fc})
}

// connectWith connects a client while the clouds in down are failed, so
// it runs on the others; the outage ends once it is connected (a client
// never redials a cloud it could not reach).
func connectWith(t *testing.T, cl *Cluster, opts client.Options, down ...int) *client.Client {
	t.Helper()
	for _, i := range down {
		cl.FailCloud(i)
	}
	c, err := client.Connect(opts, cl.Dialers(nil))
	for _, i := range down {
		cl.RecoverCloud(i)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// testFile builds deterministic but non-trivial file content with some
// internal redundancy (repeated blocks dedup within and across users).
func testFile(seed byte, size int) []byte {
	out := make([]byte, size)
	for i := range out {
		block := i / 4096
		// Every fourth block repeats to give intra-file duplicates.
		if block%4 == 3 {
			block = block - 3
		}
		out[i] = byte(i) ^ seed ^ byte(block*31)
	}
	return out
}

func restore(t *testing.T, c *client.Client, path string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := c.Restore(path, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestClusterLifecycle runs the full story on one cluster: backup,
// byte-identical restore, dedup on re-upload (intra-user) and cross-user
// upload (inter-user), cloud failure, degraded restore, repair onto a
// replacement server, and restore leaning on the repaired cloud.
func TestClusterLifecycle(t *testing.T) {
	cl := newTestCluster(t)

	data := testFile(7, 256<<10)
	c1 := connectWith(t, cl, testOptions(1))

	// --- backup + byte-identical restore ---
	bstats, err := backupFixed(c1, "/backups/week1.tar", data, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if bstats.LogicalBytes != int64(len(data)) {
		t.Fatalf("backup logical bytes %d, want %d", bstats.LogicalBytes, len(data))
	}
	if bstats.SharesSkipped == 0 {
		t.Error("intra-file duplicate blocks produced no skipped shares")
	}
	if got := restore(t, c1, "/backups/week1.tar"); !bytes.Equal(got, data) {
		t.Fatal("restore is not byte-identical to the original")
	}

	// --- intra-user dedup: same content at a new path moves ~nothing ---
	base := cl.Clouds[0].Server.Stats()
	b2, err := backupFixed(c1, "/backups/week2.tar", data, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if b2.TransferredShareBytes != 0 {
		t.Errorf("re-backup of identical content transferred %d share bytes, want 0", b2.TransferredShareBytes)
	}
	after := cl.Clouds[0].Server.Stats()
	if after.SharesStored != base.SharesStored {
		t.Errorf("re-backup stored %d new shares server-side", after.SharesStored-base.SharesStored)
	}

	// --- inter-user dedup: user 2 uploads the same content; the servers
	// must transfer it (two-stage dedup keeps uploads independent, §3.3)
	// but store nothing new. ---
	c2 := connectWith(t, cl, testOptions(2))
	b3, err := backupFixed(c2, "/backups/u2.tar", data, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if b3.TransferredShareBytes == 0 {
		t.Error("user 2's first backup transferred nothing; intra-user dedup leaked across users")
	}
	after2 := cl.Clouds[0].Server.Stats()
	if after2.SharesStored != after.SharesStored {
		t.Errorf("inter-user duplicate stored %d new shares", after2.SharesStored-after.SharesStored)
	}
	if got := restore(t, c2, "/backups/u2.tar"); !bytes.Equal(got, data) {
		t.Fatal("user 2 restore is not byte-identical")
	}

	// --- kill cloud 2: degraded (k-of-n) restore must still work ---
	failed := 2
	cDeg := connectWith(t, cl, testOptions(1), failed)
	if got := restore(t, cDeg, "/backups/week1.tar"); !bytes.Equal(got, data) {
		t.Fatal("degraded restore with one cloud down is not byte-identical")
	}

	// --- repair: cloud 2 is gone for good; boot a replacement server
	// (empty state) and rebuild its shares from the survivors ---
	if err := cl.ReplaceCloud(failed); err != nil {
		t.Fatal(err)
	}
	cRep := connectWith(t, cl, testOptions(1))
	rstats, err := cRep.Repair("/backups/week1.tar", failed)
	if err != nil {
		t.Fatal(err)
	}
	if rstats.SharesRebuilt == 0 {
		t.Fatal("repair rebuilt no shares")
	}
	repaired := cl.Clouds[failed].Server.Stats()
	if repaired.SharesStored == 0 {
		t.Fatal("replacement server stored nothing during repair")
	}

	// --- the repaired cloud must carry real weight: restore with a
	// different cloud offline, forcing decode through cloud 2's rebuilt
	// shares ---
	cFinal := connectWith(t, cl, testOptions(1), 0)
	if got := restore(t, cFinal, "/backups/week1.tar"); !bytes.Equal(got, data) {
		t.Fatal("restore through the repaired cloud is not byte-identical")
	}
}

// TestConcurrentClientsOverTCP runs several users backing up different
// and overlapping content at the same time against one shared cluster —
// the concurrent-session workload the sharded dedup index serves — and
// then verifies every user restores byte-identical data.
func TestConcurrentClientsOverTCP(t *testing.T) {
	cl := newTestCluster(t)

	const users = 6
	// Even users share identical content (exercising concurrent
	// inter-user dedup on the same fingerprints); odd users are unique.
	files := make([][]byte, users)
	for u := range files {
		seed := byte(100)
		if u%2 == 1 {
			seed = byte(u)
		}
		files[u] = testFile(seed, 128<<10)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, users)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			c, err := client.Connect(testOptions(uint64(u+1)), cl.Dialers(nil))
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			path := fmt.Sprintf("/backups/user%d.tar", u)
			if _, err := backupFixed(c, path, files[u], 4096); err != nil {
				errCh <- fmt.Errorf("user %d backup: %w", u, err)
				return
			}
			var buf bytes.Buffer
			if _, err := c.Restore(path, &buf); err != nil {
				errCh <- fmt.Errorf("user %d restore: %w", u, err)
				return
			}
			if !bytes.Equal(buf.Bytes(), files[u]) {
				errCh <- fmt.Errorf("user %d roundtrip not byte-identical", u)
				return
			}
			errCh <- nil
		}(u)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Identical content across the even users must be stored once: the
	// unique share count each server holds is far below users * shares.
	st := cl.Clouds[0].Server.Stats()
	if st.SharesStored == 0 || st.SharesReceived <= st.SharesStored {
		t.Fatalf("no inter-user dedup under concurrency: %+v", st)
	}
	if err := cl.Clouds[0].Server.Flush(); err != nil {
		t.Fatal(err)
	}
	fpCount, err := cl.Clouds[0].Server.CountShares()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(fpCount) != st.SharesStored {
		t.Fatalf("index holds %d shares but stats say %d stored", fpCount, st.SharesStored)
	}
}
