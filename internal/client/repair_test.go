package client

import (
	"bytes"
	"errors"
	"maps"
	"math/rand"
	"net"
	"strings"
	"testing"

	"cdstore/internal/container"
	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/secretshare"
	"cdstore/internal/server"
	"cdstore/internal/storage"
)

// pipeCloud is one in-process cloud of a repair test: the server, the
// memory backend under it, and a net.Pipe dialer to it.
type pipeCloud struct {
	srv     *server.Server
	backend *storage.Memory
	dial    Dialer
}

func newPipeCloud(t *testing.T, i, n, k int) *pipeCloud {
	t.Helper()
	backend := storage.NewMemory()
	srv, err := server.New(server.Config{
		CloudIndex: i, N: n, K: k,
		IndexDir: t.TempDir(),
		Backend:  backend,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &pipeCloud{srv: srv, backend: backend, dial: func() (net.Conn, error) {
		a, b := net.Pipe()
		go srv.ServeConn(a)
		return b, nil
	}}
}

type pipeCluster []*pipeCloud

func newPipeCluster(t *testing.T, n, k int) pipeCluster {
	cl := make(pipeCluster, n)
	for i := range cl {
		cl[i] = newPipeCloud(t, i, n, k)
	}
	return cl
}

// connect dials every cloud except those listed as down.
func (cl pipeCluster) connect(t *testing.T, opts Options, down ...int) *Client {
	t.Helper()
	dialers := make([]Dialer, len(cl))
	for i, pc := range cl {
		dialers[i] = pc.dial
	}
	for _, i := range down {
		dialers[i] = nil
	}
	opts.UserID, opts.N = 1, len(cl)
	if opts.FixedChunkSize == 0 {
		opts.FixedChunkSize = 4096
	}
	c, err := Connect(opts, dialers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// storedShares flushes a cloud and returns every share it holds, keyed by
// the fingerprint the server computed for it.
func (pc *pipeCloud) storedShares(t *testing.T) map[metadata.Fingerprint][]byte {
	t.Helper()
	if err := pc.srv.Flush(); err != nil {
		t.Fatal(err)
	}
	names, err := pc.backend.List()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[metadata.Fingerprint][]byte)
	for _, name := range names {
		if !strings.HasPrefix(name, "share-") {
			continue
		}
		raw, err := pc.backend.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := container.Unmarshal(name, raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range c.Entries {
			out[e.Key] = e.Data
		}
	}
	return out
}

// tamperShares silently corrupts every stored share of a cloud (container
// framing and CRC stay valid), so only the scheme's integrity check can
// tell.
func (pc *pipeCloud) tamperShares(t *testing.T) {
	t.Helper()
	if err := pc.srv.Flush(); err != nil {
		t.Fatal(err)
	}
	changed, err := storage.Corrupt(pc.backend,
		func(name string) bool { return strings.HasPrefix(name, "share-") },
		func(name string, data []byte) []byte {
			out, _ := container.TamperEntries(name, data, 1, 0x5a)
			return out
		})
	if err != nil || len(changed) == 0 {
		t.Fatalf("tamper touched %d containers: %v", len(changed), err)
	}
	pc.srv.DropCaches()
}

func repairTestData(seed int64, n int) []byte {
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// recipeOn fetches one cloud's recipe for path.
func recipeOn(t *testing.T, c *Client, cloud int, path string) *metadata.Recipe {
	t.Helper()
	reply, err := c.conns[cloud].call(protocol.MsgGetRecipe, protocol.EncodeString(path), protocol.MsgRecipe)
	if err != nil {
		t.Fatal(err)
	}
	r, err := metadata.UnmarshalRecipe(reply)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRepairHealsThroughSubsetRetry: at (4,2), with cloud 3 lost and one
// of the two primary survivors silently serving tampered shares, the
// rebuild must not mint shares from the bad package — the first decode of
// each affected secret fails its integrity check, the §3.2 subset retry
// finds the clean pair, and the share rebuilt from that winning subset is
// byte for byte the one the backup stored on the lost cloud.
func TestRepairHealsThroughSubsetRetry(t *testing.T) {
	cl := newPipeCluster(t, 4, 2)
	opts := Options{K: 2, EncodeThreads: 2, RestoreWindow: 4}
	data := repairTestData(81, 24*4096+100)
	c := cl.connect(t, opts)
	if _, err := c.Backup("/heal.bin", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	original := cl[3].storedShares(t)

	cl[0].tamperShares(t) // clouds 0 and 1 are the primaries when 3 is excluded
	cl[3] = newPipeCloud(t, 3, 4, 2)
	rc := cl.connect(t, opts)
	stats, err := rc.Repair("/heal.bin", 3)
	if err != nil {
		t.Fatalf("repair with one tampered survivor at k=2 of 3: %v", err)
	}
	if stats.Restore.SubsetRetries == 0 {
		t.Fatal("no subset retry ran: the tampered primary was never decoded")
	}
	if stats.SharesRebuilt != int64(len(original)) {
		t.Fatalf("rebuilt %d shares, the lost cloud held %d", stats.SharesRebuilt, len(original))
	}
	if !maps.EqualFunc(cl[3].storedShares(t), original, bytes.Equal) {
		t.Fatal("shares rebuilt through the subset retry differ from the ones the backup stored")
	}
	// And they decode: only the rebuilt cloud and one clean survivor up.
	var out bytes.Buffer
	if _, err := cl.connect(t, opts, 0, 1).Restore("/heal.bin", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatal("restore through the rebuilt cloud is not byte-identical")
	}
}

// TestRepairFailsWhenNoSubsetVerifies is the negative twin at (4,3): two
// tampered survivors leave no clean 3-subset, so the repair must fail
// with the subset-exhaustion error and upload nothing — never rebuild
// from an unverified package.
func TestRepairFailsWhenNoSubsetVerifies(t *testing.T) {
	cl := newPipeCluster(t, 4, 3)
	opts := Options{K: 3, EncodeThreads: 2}
	c := cl.connect(t, opts)
	if _, err := c.Backup("/hopeless.bin", bytes.NewReader(repairTestData(82, 10*4096))); err != nil {
		t.Fatal(err)
	}
	cl[0].tamperShares(t)
	cl[1].tamperShares(t)
	cl[3] = newPipeCloud(t, 3, 4, 3)
	_, err := cl.connect(t, opts).Repair("/hopeless.bin", 3)
	if err == nil || !strings.Contains(err.Error(), "subsets") {
		t.Fatalf("repair from unverifiable survivors: err=%v, want subset exhaustion", err)
	}
	if st := cl[3].srv.Stats(); st.SharesReceived != 0 {
		t.Fatalf("%d shares reached the target from a repair that never verified", st.SharesReceived)
	}
}

// wrongRowRebuilder is a Rebuilder with a placement bug: it rebuilds the
// next cloud's share. Every check inside the scheme passes, so only a
// caller that knows what the share should be can notice.
type wrongRowRebuilder struct{ secretshare.Rebuilder }

func (w wrongRowRebuilder) RebuildInto(shares map[int][]byte, secretSize, idx int, a *secretshare.Arena) ([]byte, error) {
	return w.Rebuilder.RebuildInto(shares, secretSize, (idx+1)%w.N(), a)
}

// TestRepairEntriesRequiresRecipeFingerprint: a targeted heal re-uploads
// a share only if it hashes to the fingerprint the cloud's recipe holds
// for that secret; anything else aborts before it is sent.
func TestRepairEntriesRequiresRecipeFingerprint(t *testing.T) {
	cl := newPipeCluster(t, 4, 3)
	opts := Options{K: 3}
	c := cl.connect(t, opts)
	if _, err := c.Backup("/fp.bin", bytes.NewReader(repairTestData(83, 6*4096))); err != nil {
		t.Fatal(err)
	}
	recipe := recipeOn(t, c, 2, "/fp.bin")
	damaged := []metadata.Fingerprint{recipe.Entries[1].ShareFP, recipe.Entries[4].ShareFP}
	before := cl[2].srv.Stats()

	// The honest scheme reproduces both fingerprints.
	st, err := c.RepairEntries("/fp.bin", 2, damaged)
	if err != nil || st.SharesRebuilt != 2 || st.Secrets != 2 {
		t.Fatalf("targeted repair: %+v, %v", st, err)
	}
	// Fingerprints the recipe does not hold select nothing.
	if st, err := c.RepairEntries("/fp.bin", 2, []metadata.Fingerprint{{1, 2, 3}}); err != nil || st.SharesRebuilt != 0 {
		t.Fatalf("unknown fingerprint: %+v, %v", st, err)
	}
	mid := cl[2].srv.Stats()
	if mid.SharesReceived != before.SharesReceived+2 {
		t.Fatalf("target received %d shares, want 2", mid.SharesReceived-before.SharesReceived)
	}

	c.scheme = wrongRowRebuilder{c.scheme.(secretshare.Rebuilder)}
	if _, err := c.RepairEntries("/fp.bin", 2, damaged); err == nil || !strings.Contains(err.Error(), "recipe fingerprint") {
		t.Fatalf("misplaced share: err=%v, want the recipe-fingerprint refusal", err)
	}
	if after := cl[2].srv.Stats(); after.SharesReceived != mid.SharesReceived {
		t.Fatalf("%d misplaced shares reached the target", after.SharesReceived-mid.SharesReceived)
	}
}

// TestRepairChecksFileSize: recipes whose FileSize disagrees with the sum
// of their secret sizes must fail the repair loudly instead of being
// copied onto the replacement cloud.
func TestRepairChecksFileSize(t *testing.T) {
	cl := newPipeCluster(t, 4, 3)
	opts := Options{K: 3}
	c := cl.connect(t, opts)
	if _, err := c.Backup("/size.bin", bytes.NewReader(repairTestData(84, 5*4096+7))); err != nil {
		t.Fatal(err)
	}
	// Overstate the file size by one byte, consistently on every cloud.
	for i := range cl {
		r := recipeOn(t, c, i, "/size.bin")
		r.FileSize++
		if _, err := c.conns[i].call(protocol.MsgPutRecipe, r.Marshal(), protocol.MsgPutOK); err != nil {
			t.Fatal(err)
		}
	}
	cl[1] = newPipeCloud(t, 1, 4, 3)
	rc := cl.connect(t, opts)
	if _, err := rc.Repair("/size.bin", 1); err == nil || !strings.Contains(err.Error(), "recipe says") {
		t.Fatalf("repair of a recipe with a wrong FileSize: err=%v", err)
	}
	if _, err := rc.conns[1].call(protocol.MsgGetRecipe, protocol.EncodeString("/size.bin"), protocol.MsgRecipe); err == nil {
		t.Fatal("the inconsistent recipe reached the replacement cloud")
	}
}

// TestRepairRefusesNonRebuildableScheme: the schemes whose shares are not
// rows of one RS codeword fail both entry points with the typed error
// before anything is read or written.
func TestRepairRefusesNonRebuildableScheme(t *testing.T) {
	ssss, err := secretshare.NewSSSS(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	cl := newPipeCluster(t, 4, 3)
	c := cl.connect(t, Options{K: 3, Scheme: ssss})
	if _, err := c.Backup("/ssss.bin", bytes.NewReader(repairTestData(85, 3*4096))); err != nil {
		t.Fatal(err)
	}
	var before [4]server.Stats
	for i, pc := range cl {
		before[i] = pc.srv.Stats()
	}
	if _, err := c.Repair("/ssss.bin", 0); !errors.Is(err, ErrSchemeNotRebuildable) {
		t.Fatalf("Repair: err=%v, want ErrSchemeNotRebuildable", err)
	}
	if _, err := c.RepairEntries("/ssss.bin", 0, []metadata.Fingerprint{{}}); !errors.Is(err, ErrSchemeNotRebuildable) {
		t.Fatalf("RepairEntries: err=%v, want ErrSchemeNotRebuildable", err)
	}
	for i, pc := range cl {
		if pc.srv.Stats() != before[i] {
			t.Errorf("cloud %d saw traffic from a refused repair: %+v -> %+v", i, before[i], pc.srv.Stats())
		}
	}
}
