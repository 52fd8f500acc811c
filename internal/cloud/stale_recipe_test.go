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

// TestRestoreOfSameShapeStaleRecipeFailsIntegrity pins a known defect
// (README, Failure behaviour): an overwrite of the same size and chunk
// sizes that one cloud missed cannot be told from the old version
// without recipe versions. With another cloud down, the clouds read mix
// versions, and the restore fails the integrity checks rather than
// return wrong bytes.
func TestRestoreOfSameShapeStaleRecipeFailsIntegrity(t *testing.T) {
	cl := newTestCluster(t)
	v1, v2 := randomBytes(1, 40*4096), randomBytes(2, 40*4096)
	overwriteMissedBy(t, cl, "/f", v1, v2, 3)

	var out bytes.Buffer
	_, err := connectWith(t, cl, testOptions(1), 0).Restore("/f", &out)
	if err == nil || !strings.Contains(err.Error(), "integrity") {
		t.Fatalf("restore mixing versions: err=%v, want an integrity failure", err)
	}
	if !bytes.HasPrefix(v2, out.Bytes()) && !bytes.HasPrefix(v1, out.Bytes()) {
		t.Fatal("restore mixing versions wrote bytes of neither version")
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
