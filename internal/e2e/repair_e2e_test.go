package e2e

import (
	"bytes"
	"testing"

	"cdstore/internal/client"
	"cdstore/internal/cloud"
	"cdstore/internal/scrub/scheduler"
	"cdstore/internal/secretshare"
)

// connectScheme is connect with an explicit dispersal scheme.
func connectScheme(t *testing.T, scheme secretshare.ArenaScheme, cl *cloud.Cluster, down ...int) *client.Client {
	t.Helper()
	opts := testOptions(1)
	opts.Scheme = scheme
	return connectWith(t, cl, opts, down...)
}

// TestRepairRandomisedSchemeStaysConsistent backs up with AONT-RS — a
// fresh random key per secret — loses a cloud, repairs it, and then reads
// the file back through the rebuilt cloud with each of the other clouds
// down in turn. A repair that re-dispersed the secrets would draw new
// keys and upload shares no surviving share is consistent with; the
// rebuild recovers each key from the survivors instead. The scheduler's
// heal of another cloud, which holds its recipe, then re-uploads the
// damaged shares of the same file, which requires every rebuilt share to
// hash to that recipe's fingerprint.
func TestRepairRandomisedSchemeStaysConsistent(t *testing.T) {
	scheme, err := secretshare.NewAONTRS(testN, testK)
	if err != nil {
		t.Fatal(err)
	}
	cl := startCluster(t)
	data := testFile(11, 192<<10)
	const path = "/random/aontrs.tar"
	if _, err := connectScheme(t, scheme, cl).Backup(path, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}

	const lost = 1
	if err := cl.ReplaceCloud(lost); err != nil {
		t.Fatal(err)
	}
	rs, err := connectScheme(t, scheme, cl).Repair(path, lost)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SharesRebuilt == 0 || cl.Clouds[lost].Server.Stats().SharesStored != uint64(rs.SharesRebuilt) {
		t.Fatalf("repair rebuilt %d shares, replacement stored %d", rs.SharesRebuilt, cl.Clouds[lost].Server.Stats().SharesStored)
	}
	for down := 0; down < testN; down++ {
		if down == lost {
			continue
		}
		c := connectScheme(t, scheme, cl, down)
		var out bytes.Buffer
		st, err := c.Restore(path, &out)
		if err != nil {
			t.Fatalf("restore through the rebuilt cloud with cloud %d down: %v", down, err)
		}
		if !bytes.Equal(out.Bytes(), data) || st.SubsetRetries != 0 {
			t.Fatalf("cloud %d down: identical=%v, %d subset retries", down, bytes.Equal(out.Bytes(), data), st.SubsetRetries)
		}
	}

	// Heal of damaged shares on another cloud of the same randomised backup.
	const damaged = 3
	flushAndDropCaches(t, cl)
	tampered := tamperShareContainers(t, cl.Clouds[damaged].Backend, 2)
	owner := connectScheme(t, scheme, cl)
	sched := scheduler.New(scheduler.Config{Client: owner, N: testN, TriggerPass: true})
	defer sched.Close()
	round, err := sched.RunOnce()
	if err != nil || len(round.Outcomes) != 1 || round.Outcomes[0].Err != nil ||
		round.Outcomes[0].SharesRebuilt != int64(len(tampered)) {
		t.Fatalf("heal round = %+v, %v; want one clean repair of %d shares", round, err, len(tampered))
	}
	healed, err := owner.ScrubStatus(damaged)
	if err != nil {
		t.Fatal(err)
	}
	if healed.DamagedOutstanding != 0 || healed.RepairedShares != uint64(len(tampered)) {
		t.Fatalf("healed %d of %d tampered shares, %d still damaged", healed.RepairedShares, len(tampered), healed.DamagedOutstanding)
	}
	if got := restore(t, connectScheme(t, scheme, cl, 0), path); !bytes.Equal(got, data) {
		t.Fatal("restore through the healed shares is not byte-identical")
	}
}
