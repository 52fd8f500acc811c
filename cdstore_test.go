package cdstore

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestFacadeEndToEnd exercises the public API exactly as the README's
// quick start does.
func TestFacadeEndToEnd(t *testing.T) {
	cluster, err := NewCluster(ClusterConfig{N: 4, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	c, err := cluster.Connect(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := make([]byte, 256*1024)
	rand.New(rand.NewSource(1)).Read(data)
	if _, err := c.Backup("/facade.tar", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := c.Restore("/facade.tar", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("facade round trip mismatch")
	}
}

func TestFacadeSchemes(t *testing.T) {
	secret := []byte("facade-level secret sharing test content .....")
	mk := []func() (Scheme, error){
		func() (Scheme, error) { return NewCAONTRS(4, 3) },
		func() (Scheme, error) { return NewCAONTRSRivest(4, 3) },
		func() (Scheme, error) { return NewSSSS(4, 3) },
		func() (Scheme, error) { return NewIDA(4, 3) },
		func() (Scheme, error) { return NewRSSS(4, 3, 1) },
		func() (Scheme, error) { return NewSSMS(4, 3) },
		func() (Scheme, error) { return NewAONTRS(4, 3) },
	}
	for _, f := range mk {
		s, err := f()
		if err != nil {
			t.Fatal(err)
		}
		shares, err := s.Split(secret)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		got, err := s.Combine(map[int][]byte{0: shares[0], 1: shares[1], 3: shares[3]}, len(secret))
		if err != nil || !bytes.Equal(got, secret) {
			t.Fatalf("%s: combine failed: %v", s.Name(), err)
		}
		if StorageBlowup(s, 8192) < 1.0 {
			t.Fatalf("%s: blowup below 1", s.Name())
		}
	}
}

func TestFacadeCost(t *testing.T) {
	r, err := AnalyzeCost(CostParams{WeeklyBackupGB: 16 * CostTB})
	if err != nil {
		t.Fatal(err)
	}
	if r.SavingVsAONTRS < 0.5 {
		t.Fatalf("16TB case saving %.2f unexpectedly low", r.SavingVsAONTRS)
	}
}

func TestFacadeProfiles(t *testing.T) {
	if len(CloudProfiles()) != 4 {
		t.Fatal("want 4 cloud profiles")
	}
	if LANProfile().UploadBps <= 0 {
		t.Fatal("LAN profile empty")
	}
	if LANClientNIC().UploadBps <= 0 {
		t.Fatal("client NIC empty")
	}
	if FingerprintOf([]byte("x")) == FingerprintOf([]byte("y")) {
		t.Fatal("fingerprint collision")
	}
}
