package client

import (
	"bytes"
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
		go func() {
			srv.ServeConn(a)
			a.Close() // as a TCP server would: a dropped session fails the client's next call
		}()
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

// tamperShares silently corrupts every stride-th stored share of a cloud
// (container framing and CRC stay valid), so only the scheme's integrity
// check can tell, and returns the fingerprints of the shares it changed.
func (pc *pipeCloud) tamperShares(t *testing.T, stride int) []metadata.Fingerprint {
	t.Helper()
	if err := pc.srv.Flush(); err != nil {
		t.Fatal(err)
	}
	var tampered []metadata.Fingerprint
	_, err := storage.Corrupt(pc.backend,
		func(name string) bool { return strings.HasPrefix(name, "share-") },
		func(name string, data []byte) []byte {
			out, changed := container.TamperEntries(name, data, stride, 0x5a)
			for _, e := range changed {
				tampered = append(tampered, e.Key)
			}
			return out
		})
	if err != nil || len(tampered) == 0 {
		t.Fatalf("tamper changed %d shares: %v", len(tampered), err)
	}
	pc.srv.DropCaches()
	return tampered
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

	cl[0].tamperShares(t, 1) // clouds 0 and 1 are the primaries when 3 is excluded
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
	cl[0].tamperShares(t, 1)
	cl[1].tamperShares(t, 1)
	cl[3] = newPipeCloud(t, 3, 4, 3)
	_, err := cl.connect(t, opts).Repair("/hopeless.bin", 3)
	if err == nil || !strings.Contains(err.Error(), "subsets") {
		t.Fatalf("repair from unverifiable survivors: err=%v, want subset exhaustion", err)
	}
	if st := cl[3].srv.Stats(); st.SharesReceived != 0 {
		t.Fatalf("%d shares reached the target from a repair that never verified", st.SharesReceived)
	}
}

// wrongRowScheme is a scheme with a placement bug: it rebuilds the
// next cloud's share. Every check inside the scheme passes, so only a
// caller that knows what the share should be can notice.
type wrongRowScheme struct{ secretshare.ArenaScheme }

func (w wrongRowScheme) RebuildInto(shares map[int][]byte, secretSize, idx int, a *secretshare.Arena) ([]byte, error) {
	return w.ArenaScheme.RebuildInto(shares, secretSize, (idx+1)%w.N(), a)
}

// refuseRecipes makes every later connection to the cloud fail at the
// first MsgPutRecipe it would carry, so a repair that writes the recipe
// errors instead of passing silently.
func (pc *pipeCloud) refuseRecipes() {
	dial := pc.dial
	pc.dial = func() (net.Conn, error) {
		conn, err := dial()
		return &recipeRefuser{Conn: conn}, err
	}
}

// scrubPass runs one scrub pass, quarantining the shares a tamper broke.
func (pc *pipeCloud) scrubPass(t *testing.T) {
	t.Helper()
	if _, err := pc.srv.RunScrubPass(); err != nil {
		t.Fatal(err)
	}
}

// TestRepairRequiresRecipeFingerprint: on a target that holds its recipe,
// Repair rebuilds exactly the shares a scrub pass quarantined and writes
// no recipe; a healthy target gets nothing at all; and a rebuilt share is
// sent only if it hashes to the fingerprint the target's recipe holds for
// it — anything else aborts before it is sent.
func TestRepairRequiresRecipeFingerprint(t *testing.T) {
	const target = 2
	cl := newPipeCluster(t, 4, 3)
	opts := Options{K: 3}
	files := []sessionFile{{path: "/fp.bin", ids: idRange(0, 6)}}
	backupAll(t, cl.connect(t, opts), files)
	original := cl[target].storedShares(t)
	damaged := cl[target].tamperShares(t, 3)
	cl[target].scrubPass(t)
	cl[target].refuseRecipes()
	rc := cl.connect(t, opts)
	before := cl[target].srv.Stats()

	// The honest scheme rebuilds the damaged rows and only those.
	st, err := rc.Repair("/fp.bin", target)
	if err != nil || st.SharesRebuilt != int64(len(damaged)) || st.Secrets != 6 || st.SecretsReused != 6-int64(len(damaged)) {
		t.Fatalf("repair of %d damaged shares: %+v, %v", len(damaged), st, err)
	}
	mid := cl[target].srv.Stats()
	if got := mid.SharesReceived - before.SharesReceived; got != uint64(len(damaged)) {
		t.Fatalf("target received %d shares, want %d", got, len(damaged))
	}
	if !maps.EqualFunc(cl[target].storedShares(t), original, bytes.Equal) {
		t.Fatal("healed shares differ from the ones the backup stored")
	}
	// A healthy target: nothing read, rebuilt or sent.
	if st, err := rc.Repair("/fp.bin", target); err != nil || st.SharesRebuilt != 0 || st.BytesReuploads != 0 ||
		st.SecretsReused != 6 || st.Restore.DownloadedBytes != 0 {
		t.Fatalf("repair of a healthy target: %+v, %v", st, err)
	}
	if after := cl[target].srv.Stats(); after.SharesReceived != mid.SharesReceived {
		t.Fatalf("a healthy target received %d shares", after.SharesReceived-mid.SharesReceived)
	}

	cl[target].tamperShares(t, 3)
	cl[target].scrubPass(t)
	mid = cl[target].srv.Stats()
	rc.scheme = wrongRowScheme{rc.scheme}
	if _, err := rc.Repair("/fp.bin", target); err == nil || !strings.Contains(err.Error(), "recipe fingerprint") {
		t.Fatalf("misplaced share: err=%v, want the recipe-fingerprint refusal", err)
	}
	if after := cl[target].srv.Stats(); after.SharesReceived != mid.SharesReceived {
		t.Fatalf("%d misplaced shares reached the target", after.SharesReceived-mid.SharesReceived)
	}
}

// TestRepairReplacesDisagreeingRecipe: a target recipe that disagrees with
// the survivors' on the file's length is not trusted — every row is
// rebuilt and the recipe replaced by the one the survivors imply.
func TestRepairReplacesDisagreeingRecipe(t *testing.T) {
	const target = 1
	cl := newPipeCluster(t, 4, 3)
	opts := Options{K: 3}
	files := []sessionFile{{path: "/short.bin", ids: idRange(0, 8)}}
	c := cl.connect(t, opts)
	backupAll(t, c, files)
	want := recipesOn(t, c, target, files)
	// One secret short; every share it names is still the user's.
	short := *want[0]
	short.Entries = short.Entries[:7]
	short.NumSecrets, short.FileSize = 7, 7*sessionChunk
	if _, err := c.conns[target].call(protocol.MsgPutRecipe, short.Marshal(), protocol.MsgPutOK); err != nil {
		t.Fatal(err)
	}
	rc := cl.connect(t, opts)
	st, err := rc.Repair("/short.bin", target)
	if err != nil || st.SharesRebuilt != 8 || st.SecretsReused != 0 {
		t.Fatalf("repair over a disagreeing recipe: %+v, %v", st, err)
	}
	checkRecipes(t, rc, target, files, want)
	restoreAll(t, cl.connect(t, opts, 0), files)
}

// TestRepairRebuildsLostRecipe: a target whose recipe container is gone
// answers the repair's GetRecipe NotFound without dropping the session;
// the repair rebuilds every row and puts the recipe back, and the same
// session's next repair finds it and confirms every row.
func TestRepairRebuildsLostRecipe(t *testing.T) {
	const target = 3
	cl := newPipeCluster(t, 4, 3)
	opts := Options{K: 3}
	files := []sessionFile{{path: "/lost-recipe.bin", ids: idRange(0, 10)}}
	c := cl.connect(t, opts)
	backupAll(t, c, files)
	want := recipesOn(t, c, target, files)
	pc := cl[target]
	if err := pc.srv.Flush(); err != nil {
		t.Fatal(err)
	}
	deleted, err := storage.Corrupt(pc.backend,
		func(name string) bool { return strings.HasPrefix(name, "recipe-") },
		func(string, []byte) []byte { return nil })
	if err != nil || len(deleted) == 0 {
		t.Fatalf("deleted %d recipe containers: %v", len(deleted), err)
	}
	pc.srv.DropCaches()

	rc := cl.connect(t, opts)
	st, err := rc.Repair("/lost-recipe.bin", target)
	if err != nil || st.SharesRebuilt != 10 || st.SecretsReused != 0 {
		t.Fatalf("repair of a lost recipe: %+v, %v", st, err)
	}
	checkRecipes(t, rc, target, files, want)
	if st, err = rc.Repair("/lost-recipe.bin", target); err != nil || st.SharesRebuilt != 0 || st.SecretsReused != 10 {
		t.Fatalf("second repair on the same session: %+v, %v", st, err)
	}
	restoreAll(t, cl.connect(t, opts, 0), files)
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
