package cloud

import (
	"net"
	"testing"
	"time"

	"cdstore/internal/storage"
)

func TestShapedConnEndToEnd(t *testing.T) {
	// 1MB/s shaped pipe moving 320KB beyond the 100KB burst: expect
	// >=150ms wall time, proving shaping engages on real connections.
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	shaped := Shape(a, storage.NewLimiter(MBps(1)), nil, 0)

	const total = 320 * 1024
	go func() {
		buf := make([]byte, 32*1024)
		for sent := 0; sent < total; sent += len(buf) {
			shaped.Write(buf)
		}
	}()
	start := time.Now()
	buf := make([]byte, 32*1024)
	got := 0
	for got < total {
		n, err := b.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got += n
	}
	elapsed := time.Since(start)
	if elapsed < 150*time.Millisecond {
		t.Fatalf("320KB at 1MB/s took %v; shaping not engaged", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("took %v; shaping far too slow", elapsed)
	}
}

func TestShapedConnLatencyChargedOnce(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	shaped := Shape(a, nil, nil, 50*time.Millisecond)
	go func() {
		buf := make([]byte, 8)
		b.Read(buf)
		b.Read(buf)
	}()
	start := time.Now()
	shaped.Write(make([]byte, 8))
	shaped.Write(make([]byte, 8))
	elapsed := time.Since(start)
	if elapsed < 50*time.Millisecond {
		t.Fatalf("latency not charged: %v", elapsed)
	}
	if elapsed > 140*time.Millisecond {
		t.Fatalf("latency charged more than once: %v", elapsed)
	}
}

func TestProfiles(t *testing.T) {
	lan := LANProfile()
	if lan.UploadBps != MBps(110) || lan.DownloadBps != MBps(110) {
		t.Fatal("LAN profile speeds wrong")
	}
	clouds := CloudProfiles()
	if len(clouds) != 4 {
		t.Fatalf("want 4 cloud profiles, got %d", len(clouds))
	}
	names := map[string]bool{}
	for _, c := range clouds {
		names[c.Name] = true
		if c.UploadBps <= 0 || c.DownloadBps <= 0 {
			t.Fatalf("%s has non-positive speeds", c.Name)
		}
	}
	for _, want := range []string{"Amazon", "Google", "Azure", "Rackspace"} {
		if !names[want] {
			t.Fatalf("missing cloud %s", want)
		}
	}
	// Table 2 ordering: Azure/Rackspace (HK) much faster than
	// Amazon/Google (SG).
	if !(clouds[2].UploadBps > 2*clouds[0].UploadBps) {
		t.Fatal("Azure should be much faster than Amazon per Table 2")
	}
}

func TestMBps(t *testing.T) {
	if MBps(1) != 1000*1000 {
		t.Fatal("MBps conversion wrong")
	}
}
