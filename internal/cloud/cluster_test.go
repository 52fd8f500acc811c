package cloud

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"

	"cdstore/internal/client"
	"cdstore/internal/container"
	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/server"
)

// newTestCluster builds an unshaped (4,3) cluster with small containers.
func newTestCluster(t *testing.T) *Cluster {
	t.Helper()
	cl, err := NewCluster(Config{N: 4, K: 3, BaseDir: t.TempDir(), ContainerCapacity: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func randomBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func totalStats(cl *Cluster) server.Stats {
	var t server.Stats
	for _, c := range cl.Clouds {
		s := c.Server.Stats()
		t.SharesReceived += s.SharesReceived
		t.SharesStored += s.SharesStored
		t.BytesReceived += s.BytesReceived
		t.BytesStored += s.BytesStored
		t.IntraQueries += s.IntraQueries
		t.IntraHits += s.IntraHits
	}
	return t
}

func TestBackupRestoreRoundTrip(t *testing.T) {
	cl := newTestCluster(t)
	c, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	data := randomBytes(1, 300*1024)
	stats, err := c.Backup("/backups/week1.tar", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if stats.LogicalBytes != int64(len(data)) {
		t.Fatalf("LogicalBytes = %d, want %d", stats.LogicalBytes, len(data))
	}
	if stats.Secrets == 0 || stats.SharesSent == 0 {
		t.Fatalf("stats look empty: %+v", stats)
	}
	// Random data has no duplicate chunks: all n shares of every secret
	// cross the wire.
	if stats.SharesSent != stats.Secrets*int64(cl.N) {
		t.Fatalf("sent %d shares for %d secrets, want n=%d per secret", stats.SharesSent, stats.Secrets, cl.N)
	}
	// Logical shares must reflect the n/k dispersal blowup (~4/3).
	blowup := float64(stats.LogicalShareBytes) / float64(stats.LogicalBytes)
	if blowup < 1.30 || blowup > 1.45 {
		t.Fatalf("share blowup %.3f outside [1.30, 1.45]", blowup)
	}

	var out bytes.Buffer
	rstats, err := c.Restore("/backups/week1.tar", &out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restored content differs from original")
	}
	if rstats.Secrets != stats.Secrets {
		t.Fatalf("restored %d secrets, uploaded %d", rstats.Secrets, stats.Secrets)
	}
	if rstats.SubsetRetries != 0 {
		t.Fatalf("unexpected subset retries: %d", rstats.SubsetRetries)
	}
}

func TestIntraUserDeduplication(t *testing.T) {
	cl := newTestCluster(t)
	c, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	data := randomBytes(2, 200*1024)
	first, err := c.Backup("/b/v1.tar", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// Same content, new version: intra-user dedup must suppress nearly
	// all transfers (§5.4: >=94% for subsequent backups; identical data
	// gives 100%).
	second, err := c.Backup("/b/v2.tar", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if second.TransferredShareBytes != 0 {
		t.Fatalf("identical re-upload transferred %d bytes; want 0", second.TransferredShareBytes)
	}
	if second.IntraUserSaving() < 0.999 {
		t.Fatalf("intra-user saving %.3f, want ~1.0", second.IntraUserSaving())
	}
	if first.TransferredShareBytes == 0 {
		t.Fatal("first upload should transfer data")
	}
	// Both versions restore independently.
	for _, path := range []string{"/b/v1.tar", "/b/v2.tar"} {
		var out bytes.Buffer
		if _, err := c.Restore(path, &out); err != nil {
			t.Fatalf("restore %s: %v", path, err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("restore %s content mismatch", path)
		}
	}
}

func TestInterUserDeduplication(t *testing.T) {
	cl := newTestCluster(t)
	data := randomBytes(3, 200*1024)

	c1, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.Backup("/shared.tar", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	storedAfterFirst := totalStats(cl).BytesStored

	// A different user uploads identical content: convergent dispersal
	// produces identical shares, so the servers store nothing new.
	c2, err := cl.Connect(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st2, err := c2.Backup("/shared.tar", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	storedAfterSecond := totalStats(cl).BytesStored
	if storedAfterSecond != storedAfterFirst {
		t.Fatalf("inter-user dedup failed: stored grew %d -> %d", storedAfterFirst, storedAfterSecond)
	}
	// But user 2 did transfer the data (intra-user dedup cannot see user
	// 1's shares — that's the side-channel defence).
	if st2.TransferredShareBytes == 0 {
		t.Fatal("user 2's upload should still transfer shares (two-stage dedup)")
	}
	// And user 2 can restore.
	var out bytes.Buffer
	if _, err := c2.Restore("/shared.tar", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("user 2 restore mismatch")
	}
}

func TestSideChannelFreedom(t *testing.T) {
	// The dedup pattern observed by a user must be independent of other
	// users' data (§3.3). Compare user B's transfer profile in two
	// worlds: one where user A previously uploaded the same data, one
	// where no one did.
	data := randomBytes(4, 150*1024)

	run := func(withPriorUpload bool) int64 {
		cl, err := NewCluster(Config{N: 4, K: 3, BaseDir: t.TempDir(), ContainerCapacity: 64 * 1024})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if withPriorUpload {
			a, err := cl.Connect(1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.Backup("/target.tar", bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
			a.Close()
		}
		b, err := cl.Connect(2, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		st, err := b.Backup("/probe.tar", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return st.TransferredShareBytes
	}

	with := run(true)
	without := run(false)
	if with != without {
		t.Fatalf("user B's transfer differs with (%d) vs without (%d) user A's prior upload: observable side channel", with, without)
	}
	if with == 0 {
		t.Fatal("probe upload should transfer data")
	}
}

func TestRestoreSurvivesCloudFailure(t *testing.T) {
	cl := newTestCluster(t)
	c, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := randomBytes(5, 250*1024)
	if _, err := c.Backup("/ft.tar", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Fail one cloud (n-k = 1 tolerable) and reconnect.
	cl.FailCloud(2)
	c2, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.ScrubStatus(2); err == nil {
		t.Fatal("the client holds a session with the failed cloud")
	}
	var out bytes.Buffer
	rstats, err := c2.Restore("/ft.tar", &out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restore after cloud failure mismatch")
	}
	// The surviving shares are clean: decoding through parity needs no
	// brute-force subset retry.
	if rstats.SubsetRetries != 0 {
		t.Fatalf("degraded restore of clean shares took %d subset retries", rstats.SubsetRetries)
	}
	// Backup must refuse with a cloud down (placement invariant).
	if _, err := c2.Backup("/new.tar", bytes.NewReader(data)); err == nil {
		t.Fatal("backup with a failed cloud should be refused")
	}

	// Two failures exceed n-k: fewer than k clouds remain, so even
	// connecting is refused.
	cl.FailCloud(3)
	if _, err := cl.Connect(1, nil); err == nil {
		t.Fatal("connect with only 2 of 4 clouds should fail (k=3)")
	}
}

func TestRepairRebuildsLostCloud(t *testing.T) {
	cl := newTestCluster(t)
	c, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := randomBytes(6, 200*1024)
	if _, err := c.Backup("/repair.tar", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// Cloud 1 is lost entirely (provider exit) and replaced empty.
	if err := cl.ReplaceCloud(1); err != nil {
		t.Fatal(err)
	}
	c2, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c2.Repair("/repair.tar", 1)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SharesRebuilt == 0 {
		t.Fatal("repair rebuilt nothing")
	}
	c2.Close()

	// Now fail a different cloud: the repaired cloud 1 must carry its
	// weight in a k-of-n restore.
	cl.FailCloud(0)
	c3, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	var out bytes.Buffer
	if _, err := c3.Restore("/repair.tar", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restore using repaired cloud mismatch")
	}
}

// chunkList feeds BackupStream the given secrets in order.
type chunkList [][]byte

func (l *chunkList) NextChunk() ([]byte, error) {
	if len(*l) == 0 {
		return nil, io.EOF
	}
	c := (*l)[0]
	*l = (*l)[1:]
	return c, nil
}

// TestMultiMiBSecretsBackUpRestoreAndRepair: a 12 MiB secret after a
// 3 MiB one gives each cloud a ~4 MiB share after a ~1 MiB one. Every
// share batch — backup's upload, restore's fetch, repair's rebuild — must
// close before the larger share would take it past protocol.BatchBytes,
// so the larger share travels alone and no message outgrows
// protocol.MaxMessage.
func TestMultiMiBSecretsBackUpRestoreAndRepair(t *testing.T) {
	cl := newTestCluster(t)
	small, large := randomBytes(31, 3<<20), randomBytes(32, 12<<20)
	data := append(append([]byte(nil), small...), large...)
	c, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.BackupStream("/big.img", &chunkList{small, large}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := c.Restore("/big.img", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restore differs from the backup")
	}
	c.Close()

	if err := cl.ReplaceCloud(2); err != nil {
		t.Fatal(err)
	}
	c2, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c2.Repair("/big.img", 2)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SharesRebuilt != 2 {
		t.Fatalf("repair rebuilt %d shares, want 2", rs.SharesRebuilt)
	}
	c2.Close()

	// The restore must lean on the repaired cloud.
	cl.FailCloud(0)
	c3, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	out.Reset()
	if _, err := c3.Restore("/big.img", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restore through the repaired cloud differs from the backup")
	}
}

func TestListAndDelete(t *testing.T) {
	cl := newTestCluster(t)
	c, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	d1 := randomBytes(7, 50*1024)
	d2 := randomBytes(8, 60*1024)
	if _, err := c.Backup("/a.tar", bytes.NewReader(d1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Backup("/b.tar", bytes.NewReader(d2)); err != nil {
		t.Fatal(err)
	}
	files, err := c.ListFiles()
	if err != nil || len(files) != 2 {
		t.Fatalf("ListFiles: %d files, %v", len(files), err)
	}
	sizes := map[string]uint64{}
	for _, f := range files {
		sizes[f.Path] = f.FileSize
	}
	if sizes["/a.tar"] != uint64(len(d1)) || sizes["/b.tar"] != uint64(len(d2)) {
		t.Fatalf("listed sizes wrong: %v", sizes)
	}
	if err := c.Delete("/a.tar"); err != nil {
		t.Fatal(err)
	}
	files, _ = c.ListFiles()
	if len(files) != 1 || files[0].Path != "/b.tar" {
		t.Fatalf("after delete: %+v", files)
	}
	var out bytes.Buffer
	if _, err := c.Restore("/a.tar", &out); err == nil {
		t.Fatal("deleted file restored")
	}
	// The other file is untouched.
	out.Reset()
	if _, err := c.Restore("/b.tar", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), d2) {
		t.Fatal("surviving file corrupted by delete")
	}
}

// TestDeleteReportsEveryCloudThatFailed: a delete that fails on one
// connected cloud fails the call, naming that cloud, because the backup
// keeps its share references, storage and bill there. Clouds that no
// longer hold the path count as deleted, so the retry succeeds once the
// cloud is back, and a further delete is a no-op.
func TestDeleteReportsEveryCloudThatFailed(t *testing.T) {
	cl := newTestCluster(t)
	c, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Backup("/d.tar", bytes.NewReader(randomBytes(17, 50*1024))); err != nil {
		t.Fatal(err)
	}
	if err := cl.Clouds[2].Server.Flush(); err != nil {
		t.Fatal(err)
	}
	cl.Clouds[2].Server.DropCaches()
	cl.FailCloud(2)
	err = c.Delete("/d.tar")
	if err == nil || !strings.Contains(err.Error(), "cloud 2") {
		t.Fatalf("delete with cloud 2's backend down: %v, want an error naming cloud 2", err)
	}
	for _, i := range []int{0, 1, 3} {
		if strings.Contains(err.Error(), fmt.Sprintf("cloud %d", i)) {
			t.Fatalf("error %q names cloud %d, whose delete succeeded", err, i)
		}
	}
	cl.RecoverCloud(2)
	c2, err := cl.Connect(1, nil) // the failed delete ended cloud 2's session
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	for attempt := 1; attempt <= 2; attempt++ {
		if err := c2.Delete("/d.tar"); err != nil {
			t.Fatalf("delete %d after recovery: %v", attempt, err)
		}
	}
	if files, err := c2.ListFiles(); err != nil || len(files) != 0 {
		t.Fatalf("after delete: %+v, %v", files, err)
	}
}

// TestScrubRunReclaimsDeletedBackup: retention through the protocol. Once
// a client has had every cloud run a pass (MsgScrubControl, what
// `cdstore-client scrub run` sends), no cloud holds a deleted backup's
// unique shares or its recipe; the kept backup restores with any one
// cloud down, and a second pass reclaims nothing.
func TestScrubRunReclaimsDeletedBackup(t *testing.T) {
	cl := newTestCluster(t)
	// stored maps, per cloud, every entry key in its backend to the
	// container holding it. A client's Bye checkpoints its session on the
	// server after the client has gone, so the servers are flushed first.
	stored := func() []map[metadata.Fingerprint]string {
		t.Helper()
		out := make([]map[metadata.Fingerprint]string, len(cl.Clouds))
		for i, cloud := range cl.Clouds {
			if err := cloud.Server.Flush(); err != nil {
				t.Fatal(err)
			}
			names, err := cloud.Backend.List()
			if err != nil {
				t.Fatal(err)
			}
			out[i] = map[metadata.Fingerprint]string{}
			for _, name := range names {
				raw, err := cloud.Backend.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				c, err := container.Unmarshal(name, raw)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range c.Entries {
					out[i][e.Key] = name
				}
			}
		}
		return out
	}
	backup := func(path string, data []byte) {
		t.Helper()
		c, err := cl.Connect(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Backup(path, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	keep, drop := randomBytes(14, 200*1024), randomBytes(15, 200*1024)
	backup("/keep.tar", keep)
	before := stored()
	backup("/drop.tar", drop)
	dropOnly := stored() // what /drop.tar alone added: its shares and its recipe
	for i := range dropOnly {
		recipe := false
		for key, name := range dropOnly[i] {
			if _, ok := before[i][key]; ok {
				delete(dropOnly[i], key)
			} else {
				recipe = recipe || strings.HasPrefix(name, "recipe-")
			}
		}
		if len(dropOnly[i]) < 2 || !recipe {
			t.Fatalf("cloud %d: the second backup added %d entries, its recipe among them: %v", i, len(dropOnly[i]), recipe)
		}
	}

	c, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("/drop.tar"); err != nil {
		t.Fatal(err)
	}
	for i := range cl.Clouds {
		if err := c.RunScrubPass(i); err != nil {
			t.Fatalf("cloud %d: scrub run: %v", i, err)
		}
	}
	c.Close()
	after := stored()
	for i := range cl.Clouds {
		for key := range dropOnly[i] {
			if name, ok := after[i][key]; ok {
				t.Fatalf("cloud %d: %s still holds %s of the deleted backup", i, name, key)
			}
		}
	}

	for down := range cl.Clouds {
		cl.FailCloud(down)
		c, err := cl.Connect(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if _, err := c.Restore("/keep.tar", &out); err != nil || !bytes.Equal(out.Bytes(), keep) {
			t.Fatalf("cloud %d down: the kept backup does not restore (%v)", down, err)
		}
		c.Close()
		cl.RecoverCloud(down)
	}
	for i, cloud := range cl.Clouds {
		if stats, err := cloud.Server.RunScrubPass(); err != nil || stats.ContainersRewritten != 0 || stats.BytesReclaimed != 0 {
			t.Fatalf("cloud %d: second pass still reclaimed: %+v, %v", i, stats, err)
		}
	}
}

// recipeRefuser fails a connection at the first MsgPutRecipe frame it
// would carry. protocol.Conn flushes once per message, so a Write that
// begins while no frame is in progress begins with a frame header.
type recipeRefuser struct {
	net.Conn
	remaining int // bytes of the current frame still to come
}

func (r *recipeRefuser) Write(p []byte) (int, error) {
	if r.remaining == 0 {
		if p[0] == protocol.MsgPutRecipe {
			return 0, errors.New("recipe refused")
		}
		r.remaining = 5 + int(binary.BigEndian.Uint32(p[1:5]))
	}
	r.remaining -= len(p)
	return r.Conn.Write(p)
}

// TestFailedRecipeUploadLeaksShares pins a known leak (README, Failure
// behaviour): a backup whose every PutRecipe is refused after its shares
// were uploaded leaves those shares stored and owned on every cloud with
// no recipe naming them, and a scrub pass — which reclaims only what the
// index no longer places — keeps every byte of them.
func TestFailedRecipeUploadLeaksShares(t *testing.T) {
	cl := newTestCluster(t)
	dialers := cl.Dialers(nil)
	for i := range dialers {
		dial := dialers[i]
		dialers[i] = func() (net.Conn, error) {
			conn, err := dial()
			if err != nil {
				return nil, err
			}
			return &recipeRefuser{Conn: conn}, nil
		}
	}
	c, err := client.Connect(client.Options{UserID: 1, N: cl.N, K: cl.K}, dialers)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Backup("/leak.tar", bytes.NewReader(randomBytes(16, 200*1024))); err == nil || !strings.Contains(err.Error(), "recipe") {
		t.Fatalf("backup with every recipe refused: err=%v", err)
	}
	c.Close()

	// storedBytes flushes a cloud and totals the objects its backend holds.
	storedBytes := func(cloud *Cloud) int {
		t.Helper()
		if err := cloud.Server.Flush(); err != nil {
			t.Fatal(err)
		}
		names, err := cloud.Backend.List()
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, name := range names {
			raw, err := cloud.Backend.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			total += len(raw)
		}
		return total
	}
	for i, cloud := range cl.Clouds {
		shares, size := cloud.Server.Stats().SharesStored, storedBytes(cloud)
		if shares == 0 || size == 0 {
			t.Fatalf("cloud %d holds %d shares in %d bytes; the upload never happened", i, shares, size)
		}
		if _, err := cloud.Server.RunScrubPass(); err != nil {
			t.Fatal(err)
		}
		if got, gotSize := cloud.Server.Stats().SharesStored, storedBytes(cloud); got != shares || gotSize != size {
			t.Errorf("cloud %d: a pass took %d shares in %d bytes to %d in %d; the leak is fixed, update README", i, shares, size, got, gotSize)
		}
	}
	c, err = cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if files, err := c.ListFiles(); err != nil || len(files) != 0 {
		t.Fatalf("the failed backup is listed: %v, %v", files, err)
	}
}

// exchange performs one request/reply exchange on pc.
func exchange(t *testing.T, pc *protocol.Conn, typ byte, payload []byte) (byte, []byte) {
	t.Helper()
	if err := pc.WriteMsg(typ, payload); err != nil {
		t.Fatal(err)
	}
	var frame []byte
	rtyp, reply, err := pc.ReadMsgInto(&frame)
	if err != nil {
		t.Fatal(err)
	}
	return rtyp, reply
}

// TestFailedRecipeWriteLeavesRefsRaised pins a known defect that item 18
// of the roadmap settles: handlePutRecipe adds the new recipe's share
// references before it stores the recipe and its file entry, so a recipe
// write that fails between them — here the backend is down when the
// recipe's container persists — leaves the references raised with no
// file naming them. Once the one file that did name the share is deleted
// and a pass has run, its user still holds the share. When the defect is
// fixed the last GetShares answers NotFound: flip this test.
func TestFailedRecipeWriteLeavesRefsRaised(t *testing.T) {
	cl, err := NewCluster(Config{N: 4, K: 3, BaseDir: t.TempDir(), ContainerCapacity: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cloud := cl.Clouds[0]
	session := func() *protocol.Conn {
		conn, err := cl.Dialers(nil)[0]()
		if err != nil {
			t.Fatal(err)
		}
		pc := protocol.NewConn(conn)
		t.Cleanup(func() { pc.Close() })
		if typ, _ := exchange(t, pc, protocol.MsgHello, protocol.EncodeHello(1)); typ != protocol.MsgHelloOK {
			t.Fatalf("hello: reply %d", typ)
		}
		return pc
	}
	share := randomBytes(41, 200)
	fp := metadata.FingerprintOf(share)
	recipe := func(path string) []byte {
		r := &metadata.Recipe{
			FileMeta: metadata.FileMeta{Path: path, FileSize: 100, NumSecrets: 1},
			Entries:  []metadata.RecipeEntry{{ShareFP: fp, ShareSize: uint32(len(share)), SecretSize: 100}},
		}
		return r.Marshal()
	}
	pc := session()
	if typ, r := exchange(t, pc, protocol.MsgPutShares, protocol.EncodeShareBatch([]protocol.ShareUpload{{SecretSize: 100, Data: share}})); typ != protocol.MsgPutOK {
		t.Fatalf("put shares: reply %d %s", typ, r)
	}
	if typ, r := exchange(t, pc, protocol.MsgPutRecipe, recipe("/kept")); typ != protocol.MsgPutOK {
		t.Fatalf("put recipe: reply %d %s", typ, r)
	}
	// A 64-byte container is full after one recipe: storing the next one
	// persists it at once, and the backend is down.
	cloud.Backend.Fail()
	if typ, r := exchange(t, pc, protocol.MsgPutRecipe, recipe("/lost")); typ != protocol.MsgError {
		t.Fatalf("recipe write with the backend down: reply %d %s", typ, r)
	}
	cloud.Backend.Recover()

	pc = session()
	typ, r := exchange(t, pc, protocol.MsgListFiles, nil)
	if files, err := protocol.DecodeFileList(r); typ != protocol.MsgFileList || err != nil || len(files) != 1 || files[0].Path != "/kept" {
		t.Fatalf("files after the failed write: %+v, %v; want /kept alone", files, err)
	}
	if typ, r := exchange(t, pc, protocol.MsgDeleteFile, protocol.EncodeString("/kept")); typ != protocol.MsgPutOK {
		t.Fatalf("delete: reply %d %s", typ, r)
	}
	if _, err := cloud.Server.RunScrubPass(); err != nil {
		t.Fatal(err)
	}
	if typ, r := exchange(t, pc, protocol.MsgGetShares, protocol.EncodeFingerprints([]metadata.Fingerprint{fp})); typ != protocol.MsgShares {
		t.Fatalf("GetShares of a share no file names: reply %d %s; the known defect is fixed, flip this test", typ, r)
	}
}

func TestMultipleUsersIsolation(t *testing.T) {
	cl := newTestCluster(t)
	c1, _ := cl.Connect(1, nil)
	defer c1.Close()
	c2, _ := cl.Connect(2, nil)
	defer c2.Close()
	d1 := randomBytes(9, 40*1024)
	if _, err := c1.Backup("/mine.tar", bytes.NewReader(d1)); err != nil {
		t.Fatal(err)
	}
	// User 2 cannot list or restore user 1's file.
	files, err := c2.ListFiles()
	if err != nil || len(files) != 0 {
		t.Fatalf("user 2 sees %d files, want 0", len(files))
	}
	var out bytes.Buffer
	if _, err := c2.Restore("/mine.tar", &out); err == nil {
		t.Fatal("user 2 restored user 1's file")
	}
}

func TestShapedLANClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("shaped transfer test skipped in -short mode")
	}
	// Tiny shaped cluster: verifies the shaping path end to end without
	// long waits (2MB/s links, 200KB payload).
	profiles := make([]LinkProfile, 4)
	for i := range profiles {
		profiles[i] = LinkProfile{Name: fmt.Sprintf("c%d", i), UploadBps: MBps(2), DownloadBps: MBps(2)}
	}
	cl, err := NewCluster(Config{N: 4, K: 3, BaseDir: t.TempDir(), Profiles: profiles, ContainerCapacity: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := cl.Connect(1, &ClientNIC{UploadBps: MBps(8), DownloadBps: MBps(8)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := randomBytes(10, 200*1024)
	if _, err := c.Backup("/shaped.tar", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := c.Restore("/shaped.tar", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("shaped restore mismatch")
	}
}

func TestDiskBackedCluster(t *testing.T) {
	cl, err := NewCluster(Config{N: 4, K: 3, BaseDir: t.TempDir(), DiskBackend: true, ContainerCapacity: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := randomBytes(11, 120*1024)
	if _, err := c.Backup("/disk.tar", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := c.Restore("/disk.tar", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("disk-backed restore mismatch")
	}
}

func TestFastCDCChunkingBackup(t *testing.T) {
	// Options.Chunking selects the Gear-hash chunker; the backup must
	// round-trip and produce content-defined (not fixed-size) secrets.
	cl := newTestCluster(t)
	c, err := client.Connect(client.Options{
		UserID: 1, N: cl.N, K: cl.K, EncodeThreads: 2, Chunking: "fastcdc",
	}, cl.Dialers(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := randomBytes(73, 200*1024)
	stats, err := c.Backup("/cdc.tar", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	// 200KB at the 2K/8K/16K defaults lands well inside (200K/16K, 200K/2K).
	if stats.Secrets < 200*1024/16384 || stats.Secrets > 200*1024/2048 {
		t.Fatalf("secrets = %d, implausible for fastcdc on 200KB", stats.Secrets)
	}
	var out bytes.Buffer
	if _, err := c.Restore("/cdc.tar", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("fastcdc restore mismatch")
	}

	if _, err := client.Connect(client.Options{
		UserID: 1, N: cl.N, K: cl.K, Chunking: "tarsnap",
	}, cl.Dialers(nil)); err == nil {
		t.Fatal("unknown chunking name accepted, want error")
	}
}

func TestFixedChunkingBackup(t *testing.T) {
	// §4.2: both chunkers are implemented; the VM dataset uses 4KB fixed.
	cl := newTestCluster(t)
	c, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := randomBytes(71, 100*1024)
	stats, err := backupFixed(c, "/fixed.tar", data, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// 100KB at 4KB fixed = 25 secrets exactly.
	if stats.Secrets != 25 {
		t.Fatalf("secrets = %d, want 25 with 4KB fixed chunking", stats.Secrets)
	}
	var out bytes.Buffer
	if _, err := c.Restore("/fixed.tar", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("fixed-chunk restore mismatch")
	}
}

// TestReplacedCloudKeepsContainerCapacity: a replacement cloud is
// configured as the rest of the cluster. It once came up with the 4MB
// default, so a repair of this much data sealed one container where the
// original cloud sealed several.
func TestReplacedCloudKeepsContainerCapacity(t *testing.T) {
	const capacity = 64 * 1024
	cl := newTestCluster(t) // ContainerCapacity: capacity
	c, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Backup("/cap.bin", bytes.NewReader(randomBytes(9, 900*1024))); err != nil {
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
	if _, err := c2.Repair("/cap.bin", 1); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	for _, cloud := range []int{0, 1} {
		if err := cl.Clouds[cloud].Server.Flush(); err != nil {
			t.Fatal(err)
		}
		names, err := cl.Clouds[cloud].Backend.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(names) < 4 {
			t.Errorf("cloud %d holds ~300KB of shares in %d containers; want several of at most %d bytes", cloud, len(names), capacity)
		}
		for _, name := range names {
			obj, err := cl.Clouds[cloud].Backend.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			if len(obj) > capacity+capacity/4 {
				t.Errorf("cloud %d container %s is %d bytes, capacity %d", cloud, name, len(obj), capacity)
			}
		}
	}
}
