package main

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cdstore/internal/client"
	"cdstore/internal/cloud"
	"cdstore/internal/storage"
)

// TestScrubHealFailsOnFailedRepair: "scrub heal" is run from cron, so a
// repair that fails must fail the command (a non-zero exit status), not
// only print a line. Cloud 0 holds a quarantined container; clouds 1 and
// 2 then lose their backends, so the repair cannot read k shares.
func TestScrubHealFailsOnFailedRepair(t *testing.T) {
	cl, err := cloud.NewCluster(cloud.Config{N: 4, K: 3, BaseDir: t.TempDir(), ContainerCapacity: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := make([]byte, 200*1024)
	rand.New(rand.NewSource(1)).Read(data)
	if _, err := c.Backup("/heal.bin", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	for _, cloud := range cl.Clouds {
		if err := cloud.Server.Flush(); err != nil {
			t.Fatal(err)
		}
		cloud.Server.DropCaches()
	}
	flipped, err := storage.Corrupt(cl.Clouds[0].Backend,
		func(name string) bool { return strings.HasPrefix(name, "share-") }, storage.FlipBit(7))
	if err != nil || len(flipped) == 0 {
		t.Fatalf("corrupted %d containers: %v", len(flipped), err)
	}
	if _, err := cl.Clouds[0].Server.RunScrubPass(); err != nil {
		t.Fatal(err)
	}
	cl.FailCloud(1)
	cl.FailCloud(2)

	err = run(c, []string{"scrub", "heal"})
	if err == nil || !strings.Contains(err.Error(), "repair") {
		t.Fatalf("scrub heal with an unrepairable file: %v, want an error counting the failed repair", err)
	}
}

// backedUpCluster starts a (4,3) cluster holding one random file of size
// bytes, backed up by user 1 under path.
func backedUpCluster(t *testing.T, path string, size int) *cloud.Cluster {
	t.Helper()
	cl, err := cloud.NewCluster(cloud.Config{N: 4, K: 3, BaseDir: t.TempDir(), ContainerCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	c, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := make([]byte, size)
	rand.New(rand.NewSource(2)).Read(data)
	if _, err := c.Backup(path, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestFailedRestoreRemovesItsOutput: a restore that fails leaves no local
// file behind, not an empty or truncated one.
func TestFailedRestoreRemovesItsOutput(t *testing.T) {
	cl := backedUpCluster(t, "/f.bin", 64<<10)
	c, err := cl.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dir := t.TempDir()
	kept, missing := filepath.Join(dir, "f.bin"), filepath.Join(dir, "missing.bin")
	err = run(c, []string{"restore", "/f.bin", kept, "/missing.bin", missing})
	if err == nil || !strings.Contains(err.Error(), "/missing.bin") {
		t.Fatalf("restore of a missing backup: %v", err)
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatalf("the failed restore left its output: %v", err)
	}
	if fi, err := os.Stat(kept); err != nil || fi.Size() != 64<<10 {
		t.Fatalf("the restore before it: %v", err)
	}
}

// TestInterruptStopsRestore: a signal during a restore closes the
// client's sessions, the restore fails on its next call and removes the
// output it had partly written, and the command returns errInterrupted,
// on which main prints "interrupted" and exits 130.
func TestInterruptStopsRestore(t *testing.T) {
	cl := backedUpCluster(t, "/big.bin", 8<<20)
	// Downloads at 2 MB/s: the restore writes its first window long
	// before it has fetched the last.
	c, err := client.Connect(client.Options{UserID: 1, N: 4, K: 3},
		cl.Dialers(&cloud.ClientNIC{UploadBps: cloud.MBps(100), DownloadBps: cloud.MBps(2)}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out := filepath.Join(t.TempDir(), "big.bin")
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- runUntil(c, []string{"restore", "/big.bin", out}, sig) }()
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
		if fi, err := os.Stat(out); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the restore wrote nothing in a minute")
		}
	}
	sig <- os.Interrupt
	select {
	case err := <-done:
		if !errors.Is(err, errInterrupted) {
			t.Fatalf("interrupted restore: %v, want errInterrupted", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("the restore ran on for a minute after the interrupt")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("the interrupted restore left its output: %v", err)
	}
	if _, err := c.ListFiles(); err == nil {
		t.Fatal("a session is still open after the interrupt")
	}
}
