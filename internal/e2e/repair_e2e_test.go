package e2e

import (
	"bytes"
	"errors"
	"testing"

	"cdstore/internal/client"
	"cdstore/internal/cloud"
	"cdstore/internal/scrub/scheduler"
	"cdstore/internal/secretshare"
)

// connectScheme is connect with an explicit dispersal scheme.
func connectScheme(t *testing.T, scheme secretshare.Scheme, cl *cloud.Cluster, down ...int) *client.Client {
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
// targeted heal then re-uploads damaged shares of the same file, which
// requires every rebuilt share to hash to its recipe fingerprint.
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

	// Targeted heal on another cloud of the same randomised backup.
	const damaged = 3
	flushAndDropCaches(t, cl)
	tampered := tamperShareContainers(t, cl.Clouds[damaged].Backend, 2)
	owner := connectScheme(t, scheme, cl)
	sched := scheduler.New(scheduler.Config{Client: owner, N: testN, TriggerPass: true})
	defer sched.Close()
	round, err := sched.RunOnce()
	if err != nil || len(round.Outcomes) != 1 || round.Outcomes[0].Err != nil || round.Outcomes[0].Full {
		t.Fatalf("heal round = %+v, %v; want one clean targeted repair", round, err)
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

// TestRepairFailsFastOnNonRebuildableSchemes: for the Table-1 schemes
// whose shares are not Reed-Solomon rows of one package, Repair and
// RepairEntries return ErrSchemeNotRebuildable with nothing sent — the
// replacement server's counters stay at zero — instead of uploading
// shares that no later restore could combine with the survivors.
func TestRepairFailsFastOnNonRebuildableSchemes(t *testing.T) {
	ssss, _ := secretshare.NewSSSS(testN, testK)
	ssms, _ := secretshare.NewSSMS(testN, testK)
	rsss, _ := secretshare.NewRSSS(testN, testK, 1)
	ida, _ := secretshare.NewIDA(testN, testK)
	for _, scheme := range []secretshare.Scheme{ssss, ssms, rsss, ida} {
		t.Run(scheme.Name(), func(t *testing.T) {
			cl := startCluster(t)
			data := testFile(13, 32<<10)
			if _, err := connectScheme(t, scheme, cl).Backup("/t1.tar", bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
			const lost = 2
			if err := cl.ReplaceCloud(lost); err != nil {
				t.Fatal(err)
			}
			c := connectScheme(t, scheme, cl)
			if _, err := c.Repair("/t1.tar", lost); !errors.Is(err, client.ErrSchemeNotRebuildable) {
				t.Fatalf("Repair: err=%v, want ErrSchemeNotRebuildable", err)
			}
			if _, err := c.RepairEntries("/t1.tar", lost, nil); !errors.Is(err, client.ErrSchemeNotRebuildable) {
				t.Fatalf("RepairEntries: err=%v, want ErrSchemeNotRebuildable", err)
			}
			if st := cl.Clouds[lost].Server.Stats(); st.SharesReceived != 0 || st.BytesReceived != 0 || st.SharesStored != 0 {
				t.Fatalf("shares reached the target of a refused repair: %+v", st)
			}
			// The surviving k clouds still restore the file.
			if got := restore(t, c, "/t1.tar"); !bytes.Equal(got, data) {
				t.Fatal("restore from the survivors is not byte-identical")
			}
		})
	}
}
