package cloud

import (
	"bytes"
	"net"
	"strings"
	"testing"

	"cdstore/internal/client"
)

// overwriteMissedBy backs v1 up under path on every cloud, then
// overwrites it with v2 from a client whose recipes the clouds in missed
// refuse, and checks that overwrite failed.
func overwriteMissedBy(t *testing.T, cl *Cluster, path string, v1, v2 []byte, missed ...int) {
	t.Helper()
	opts := client.Options{UserID: 1, N: cl.N, K: cl.K}
	if _, err := backupFixed(connectWith(t, cl, opts), path, v1, 4096); err != nil {
		t.Fatal(err)
	}
	dialers := cl.Dialers(nil)
	for _, i := range missed {
		dial := dialers[i]
		dialers[i] = func() (net.Conn, error) {
			conn, err := dial()
			if err != nil {
				return nil, err
			}
			return &recipeRefuser{Conn: conn}, nil
		}
	}
	c, err := client.Connect(opts, dialers)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := backupFixed(c, path, v2, 4096); err == nil || !strings.Contains(err.Error(), "recipe") {
		t.Fatalf("overwrite with clouds %v refusing its recipe: err=%v", missed, err)
	}
}

// TestRestoreReadsTheVersionKCloudsAgreeOn: an overwrite of another size
// whose recipe one cloud missed is held consistently by the other k, so
// a fresh session restores it from them and counts the one that lags.
func TestRestoreReadsTheVersionKCloudsAgreeOn(t *testing.T) {
	cl := newTestCluster(t)
	v1, v2 := randomBytes(1, 40*4096), randomBytes(2, 50*4096)
	overwriteMissedBy(t, cl, "/f", v1, v2, 3)

	var out bytes.Buffer
	st, err := connectWith(t, cl, testOptions(1)).Restore("/f", &out)
	if err != nil {
		t.Fatalf("restore of the version clouds 0-2 agree on: %v", err)
	}
	if !bytes.Equal(out.Bytes(), v2) {
		t.Fatal("restore did not return the overwrite")
	}
	if st.LaggingClouds != 1 {
		t.Fatalf("%d lagging clouds, want 1", st.LaggingClouds)
	}
}

// sharesServed totals the shares every cloud has served.
func sharesServed(cl *Cluster) uint64 { return totalStats(cl).SharesServed }

// TestRestoreOfSameShapeStaleRecipeReadsTheAgreeingVersion: an overwrite
// of the same size and chunk sizes that one cloud missed is told from the
// old version by the recipes' version. With every cloud up the restore
// reads the k clouds that hold the overwrite and counts the stale one as
// lagging; with another cloud down no k recipes agree, and the restore
// says so before it fetches a share (before recipes carried a version,
// it read both versions and failed the integrity checks).
func TestRestoreOfSameShapeStaleRecipeReadsTheAgreeingVersion(t *testing.T) {
	cl := newTestCluster(t)
	v1, v2 := randomBytes(1, 40*4096), randomBytes(2, 40*4096)
	overwriteMissedBy(t, cl, "/f", v1, v2, 3)

	var out bytes.Buffer
	st, err := connectWith(t, cl, testOptions(1)).Restore("/f", &out)
	if err != nil {
		t.Fatalf("restore with every cloud up: %v", err)
	}
	if !bytes.Equal(out.Bytes(), v2) || st.LaggingClouds != 1 {
		t.Fatalf("restore returned the overwrite %v, %d lagging clouds; want true, 1", bytes.Equal(out.Bytes(), v2), st.LaggingClouds)
	}

	out.Reset()
	served := sharesServed(cl)
	_, err = connectWith(t, cl, testOptions(1), 0).Restore("/f", &out)
	if err == nil || !strings.Contains(err.Error(), "no 3 of them agree") {
		t.Fatalf("restore from two clouds of the overwrite and the stale one: err=%v, want no 3 agreeing", err)
	}
	if out.Len() != 0 || sharesServed(cl) != served {
		t.Fatalf("refused restore wrote %d bytes and fetched %d shares", out.Len(), sharesServed(cl)-served)
	}
}

// TestRepairOfSameShapeStaleRecipe is the repair twin: a repair reads only
// clouds whose recipes carry one version, so it never rebuilds a share
// from shares of two backups. With cloud 0 replaced empty and cloud 3
// stale, no 3 survivors agree and Repair(path, 0) is refused before the
// target receives a share. TestRepairOfStaleCloudSendsNoShareItHolds
// repairs the stale cloud itself.
func TestRepairOfSameShapeStaleRecipe(t *testing.T) {
	cl := newTestCluster(t)
	v1, v2 := randomBytes(1, 40*4096), randomBytes(2, 40*4096)
	overwriteMissedBy(t, cl, "/f", v1, v2, 3)

	if err := cl.ReplaceCloud(0); err != nil {
		t.Fatal(err)
	}
	_, err := connectWith(t, cl, testOptions(1)).Repair("/f", 0)
	if err == nil || !strings.Contains(err.Error(), "no 3 of them agree") {
		t.Fatalf("repair of cloud 0 from one stale and two current clouds: err=%v, want no 3 agreeing", err)
	}
	if got := cl.Clouds[0].Server.Stats().SharesReceived; got != 0 {
		t.Fatalf("the target received %d shares from a refused repair", got)
	}
}

// TestRepairOfStaleCloudSendsNoShareItHolds: the stale cloud took every
// share of the overwrite before it refused the recipe. Repair uploads
// through backup's uploader, which asks the target before each batch, so
// with every cloud up Repair(path, 3) sends none of the shares it
// rebuilds, yet writes the recipe with the version clouds 0-2 agree on: a
// restore without cloud 0 then reads clouds 1-3 and returns the overwrite.
func TestRepairOfStaleCloudSendsNoShareItHolds(t *testing.T) {
	cl := newTestCluster(t)
	v1, v2 := randomBytes(1, 40*4096), randomBytes(2, 40*4096)
	overwriteMissedBy(t, cl, "/f", v1, v2, 3)

	received := cl.Clouds[3].Server.Stats().SharesReceived
	st, err := connectWith(t, cl, testOptions(1)).Repair("/f", 3)
	if err != nil || st.SharesRebuilt == 0 {
		t.Fatalf("repair of the stale cloud: %+v, %v", st, err)
	}
	if sent := cl.Clouds[3].Server.Stats().SharesReceived - received; st.BytesReuploads != 0 || sent != 0 {
		t.Fatalf("repair sent %d bytes, %d shares the stale cloud already held", st.BytesReuploads, sent)
	}
	var out bytes.Buffer
	rst, err := connectWith(t, cl, testOptions(1), 0).Restore("/f", &out)
	if err != nil || !bytes.Equal(out.Bytes(), v2) || rst.LaggingClouds != 0 {
		t.Fatalf("restore through the repaired cloud: returned the overwrite %v, %+v, %v", bytes.Equal(out.Bytes(), v2), rst, err)
	}
}

// TestRestoreRefusesTwoVersionsKCloudsEachHold: at (4,2) an overwrite
// that two clouds missed leaves two groups of k clouds, each agreeing on
// a version; the restore names both rather than pick one.
func TestRestoreRefusesTwoVersionsKCloudsEachHold(t *testing.T) {
	cl, err := NewCluster(Config{N: 4, K: 2, BaseDir: t.TempDir(), ContainerCapacity: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	overwriteMissedBy(t, cl, "/f", randomBytes(1, 40*4096), randomBytes(2, 50*4096), 2, 3)

	_, err = connectWith(t, cl, client.Options{UserID: 1, N: 4, K: 2}).Restore("/f", &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "clouds [0 1] and clouds [2 3]") {
		t.Fatalf("restore with two versions held by k clouds each: err=%v", err)
	}
}
