package cloud

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cdstore/internal/client"
	"cdstore/internal/container"
	"cdstore/internal/metadata"
	"cdstore/internal/netsim"
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
	c, err := cl.Connect(1, 2, nil)
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
	c, err := cl.Connect(1, 2, nil)
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

	c1, err := cl.Connect(1, 2, nil)
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
	c2, err := cl.Connect(2, 2, nil)
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
			a, err := cl.Connect(1, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.Backup("/target.tar", bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
			a.Close()
		}
		b, err := cl.Connect(2, 2, nil)
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
	c, err := cl.Connect(1, 2, nil)
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
	c2, err := cl.Connect(1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := len(c2.AvailableClouds()); got != 3 {
		t.Fatalf("available clouds = %d, want 3", got)
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
	if _, err := cl.Connect(1, 2, nil); err == nil {
		t.Fatal("connect with only 2 of 4 clouds should fail (k=3)")
	}
}

func TestRepairRebuildsLostCloud(t *testing.T) {
	cl := newTestCluster(t)
	c, err := cl.Connect(1, 2, nil)
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
	c2, err := cl.Connect(1, 2, nil)
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
	c3, err := cl.Connect(1, 2, nil)
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

func TestListAndDelete(t *testing.T) {
	cl := newTestCluster(t)
	c, err := cl.Connect(1, 2, nil)
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

// TestScrubRunReclaimsDeletedBackup: retention through the protocol. Once
// a client has had every cloud run a pass (MsgScrubControl RunPass, what
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
		c, err := cl.Connect(1, 2, nil)
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

	c, err := cl.Connect(1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("/drop.tar"); err != nil {
		t.Fatal(err)
	}
	for i := range cl.Clouds {
		if err := c.ScrubControl(i, protocol.ScrubOpRunPass); err != nil {
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
		c, err := cl.Connect(1, 2, nil)
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

func TestMultipleUsersIsolation(t *testing.T) {
	cl := newTestCluster(t)
	c1, _ := cl.Connect(1, 2, nil)
	defer c1.Close()
	c2, _ := cl.Connect(2, 2, nil)
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
	profiles := make([]netsim.LinkProfile, 4)
	for i := range profiles {
		profiles[i] = netsim.LinkProfile{Name: fmt.Sprintf("c%d", i), UploadBps: netsim.MBps(2), DownloadBps: netsim.MBps(2)}
	}
	cl, err := NewCluster(Config{N: 4, K: 3, BaseDir: t.TempDir(), Profiles: profiles, ContainerCapacity: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := cl.Connect(1, 2, &ClientNIC{UploadBps: netsim.MBps(8), DownloadBps: netsim.MBps(8)})
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
	c, err := cl.Connect(1, 2, nil)
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
	c, err := client.Connect(client.Options{
		UserID: 1, N: cl.N, K: cl.K, EncodeThreads: 2, FixedChunkSize: 4096,
	}, cl.Dialers(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := randomBytes(71, 100*1024)
	stats, err := c.Backup("/fixed.tar", bytes.NewReader(data))
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
	c, err := cl.Connect(1, 2, nil)
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
	c2, err := cl.Connect(1, 2, nil)
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
