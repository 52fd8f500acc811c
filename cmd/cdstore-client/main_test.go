package main

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

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
