package e2e

import (
	"bytes"
	"errors"
	"testing"

	"cdstore/internal/client"
	"cdstore/internal/scrub/scheduler"
	"cdstore/internal/secretshare"
)

// connectScheme is connect with an explicit dispersal scheme.
func connectScheme(t *testing.T, scheme secretshare.Scheme, clouds []*cloudServer) *client.Client {
	t.Helper()
	c, err := client.Connect(client.Options{
		UserID: 1, N: testN, K: testK, Scheme: scheme, FixedChunkSize: 4096,
	}, dialersFor(clouds))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func startCluster(t *testing.T) []*cloudServer {
	t.Helper()
	clouds := make([]*cloudServer, testN)
	for i := range clouds {
		clouds[i] = startServer(t, i)
	}
	t.Cleanup(func() {
		for _, cs := range clouds {
			cs.srv.Close()
		}
	})
	return clouds
}

// without returns the cluster with some clouds unreachable.
func without(clouds []*cloudServer, down ...int) []*cloudServer {
	out := append([]*cloudServer(nil), clouds...)
	for _, i := range down {
		out[i] = nil
	}
	return out
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
	clouds := startCluster(t)
	data := testFile(11, 192<<10)
	const path = "/random/aontrs.tar"
	if _, err := connectScheme(t, scheme, clouds).Backup(path, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}

	const lost = 1
	clouds[lost].srv.Close()
	clouds[lost] = startServer(t, lost)
	rs, err := connectScheme(t, scheme, clouds).Repair(path, lost)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SharesRebuilt == 0 || clouds[lost].srv.Stats().SharesStored != uint64(rs.SharesRebuilt) {
		t.Fatalf("repair rebuilt %d shares, replacement stored %d", rs.SharesRebuilt, clouds[lost].srv.Stats().SharesStored)
	}
	for down := 0; down < testN; down++ {
		if down == lost {
			continue
		}
		c := connectScheme(t, scheme, without(clouds, down))
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
	for _, cs := range clouds {
		if err := cs.srv.Flush(); err != nil {
			t.Fatal(err)
		}
		cs.srv.DropCaches()
	}
	tampered := tamperShareContainers(t, clouds[damaged].backend, 2)
	owner := connectScheme(t, scheme, clouds)
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
	if got := restore(t, connectScheme(t, scheme, without(clouds, 0)), path); !bytes.Equal(got, data) {
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
			clouds := startCluster(t)
			data := testFile(13, 32<<10)
			if _, err := connectScheme(t, scheme, clouds).Backup("/t1.tar", bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
			const lost = 2
			clouds[lost].srv.Close()
			clouds[lost] = startServer(t, lost)
			c := connectScheme(t, scheme, clouds)
			if _, err := c.Repair("/t1.tar", lost); !errors.Is(err, client.ErrSchemeNotRebuildable) {
				t.Fatalf("Repair: err=%v, want ErrSchemeNotRebuildable", err)
			}
			if _, err := c.RepairEntries("/t1.tar", lost, nil); !errors.Is(err, client.ErrSchemeNotRebuildable) {
				t.Fatalf("RepairEntries: err=%v, want ErrSchemeNotRebuildable", err)
			}
			if st := clouds[lost].srv.Stats(); st.SharesReceived != 0 || st.BytesReceived != 0 || st.SharesStored != 0 {
				t.Fatalf("shares reached the target of a refused repair: %+v", st)
			}
			// The surviving k clouds still restore the file.
			if got := restore(t, c, "/t1.tar"); !bytes.Equal(got, data) {
				t.Fatal("restore from the survivors is not byte-identical")
			}
		})
	}
}
