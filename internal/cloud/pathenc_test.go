package cloud

import (
	"bytes"
	"strings"
	"testing"

	"cdstore/internal/client"
)

// connectEncoded builds a client with path encoding enabled.
func connectEncoded(t *testing.T, cl *Cluster, user uint64) *client.Client {
	t.Helper()
	c, err := client.Connect(client.Options{
		UserID:        user,
		N:             cl.N,
		K:             cl.K,
		EncodeThreads: 2,
		EncodePaths:   true,
	}, cl.Dialers(nil))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEncodedPathsEndToEnd(t *testing.T) {
	cl := newTestCluster(t)
	c := connectEncoded(t, cl, 1)
	defer c.Close()

	const secretPath = "/finance/acquisition-target-q3.tar"
	data := randomBytes(31, 120*1024)
	if _, err := c.Backup(secretPath, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}

	// No server's file index may contain the plaintext path.
	for i, cloud := range cl.Clouds {
		srv := cloud.Server
		_ = srv
		// Inspect via a plaintext-path client: the file must be invisible
		// under its real name.
		plain, err := cl.Connect(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		files, err := plain.ListFiles()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if strings.Contains(f.Path, "finance") || strings.Contains(f.Path, "acquisition") {
				t.Fatalf("cloud %d stores plaintext path fragment: %q", i, f.Path)
			}
			if !strings.HasPrefix(f.Path, "x1:") {
				t.Fatalf("cloud %d stored unencoded path %q", i, f.Path)
			}
		}
		plain.Close()
		break // one cloud's listing suffices for the plaintext check
	}

	// The encoding client restores by plaintext name.
	var out bytes.Buffer
	if _, err := c.Restore(secretPath, &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restore through encoded path mismatch")
	}

	// ListFiles decodes the plaintext name from k clouds' shares.
	files, err := c.ListFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Path != secretPath {
		t.Fatalf("listed %+v, want the plaintext path", files)
	}
	if files[0].FileSize != uint64(len(data)) {
		t.Fatalf("listed size %d, want %d", files[0].FileSize, len(data))
	}

	// Delete by plaintext name.
	if err := c.Delete(secretPath); err != nil {
		t.Fatal(err)
	}
	files, err = c.ListFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("file survived delete: %+v", files)
	}
}

func TestEncodedPathsSurviveCloudFailure(t *testing.T) {
	cl := newTestCluster(t)
	c := connectEncoded(t, cl, 1)
	data := randomBytes(32, 80*1024)
	if _, err := c.Backup("/private/x.tar", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	c.Close()

	cl.FailCloud(1)
	c2 := connectEncoded(t, cl, 1)
	defer c2.Close()
	// Listing still decodes from the k remaining clouds.
	files, err := c2.ListFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Path != "/private/x.tar" {
		t.Fatalf("listing after outage: %+v", files)
	}
	var out bytes.Buffer
	if _, err := c2.Restore("/private/x.tar", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restore after outage mismatch")
	}
}

func TestEncodedPathsDeterministicForDedup(t *testing.T) {
	// Re-uploading under the same plaintext path must hit the same
	// server-side name (otherwise versions proliferate) — guaranteed by
	// the deterministic convergent encoding of paths.
	cl := newTestCluster(t)
	c := connectEncoded(t, cl, 1)
	defer c.Close()
	data := randomBytes(33, 60*1024)
	if _, err := c.Backup("/same.tar", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Backup("/same.tar", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	files, err := c.ListFiles()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("re-upload created %d entries, want 1", len(files))
	}
}

func TestEncodedAndPlainClientsCoexist(t *testing.T) {
	cl := newTestCluster(t)
	enc := connectEncoded(t, cl, 1)
	defer enc.Close()
	plain, err := cl.Connect(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	d1 := randomBytes(34, 40*1024)
	d2 := randomBytes(35, 40*1024)
	if _, err := enc.Backup("/enc.tar", bytes.NewReader(d1)); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Backup("/plain.tar", bytes.NewReader(d2)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := enc.Restore("/enc.tar", &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if _, err := plain.Restore("/plain.tar", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), d2) {
		t.Fatal("plain client restore mismatch")
	}
}
