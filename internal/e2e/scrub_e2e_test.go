// Scrub + background repair end to end: silent corruption and container
// loss injected into cloud backends must be fully detected by the
// server-side scrubber (§3.3 re-fingerprinting), quarantined, published
// via MsgScrubReport, and healed to full (n,k) health by the repair
// scheduler — with the damage never surfacing to a restoring client.
package e2e

import (
	"bytes"
	"encoding/binary"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"cdstore/internal/client"
	"cdstore/internal/cloud"
	"cdstore/internal/container"
	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/scrub/scheduler"
	"cdstore/internal/storage"
)

// recipeCounter counts the MsgPutRecipe frames written on a connection.
// protocol.Conn flushes once per message, so a Write that begins while
// no frame is in progress begins with a frame header.
type recipeCounter struct {
	net.Conn
	puts      *atomic.Int64
	remaining int // bytes of the current frame still to come
}

func (r *recipeCounter) Write(p []byte) (int, error) {
	if r.remaining == 0 {
		if p[0] == protocol.MsgPutRecipe {
			r.puts.Add(1)
		}
		r.remaining = 5 + int(binary.BigEndian.Uint32(p[1:5]))
	}
	r.remaining -= len(p)
	return r.Conn.Write(p)
}

// connectCountingRecipes connects user's client with every recipe put to
// cloud counted in puts.
func connectCountingRecipes(t *testing.T, user uint64, cl *cloud.Cluster, cloud int, puts *atomic.Int64) *client.Client {
	t.Helper()
	dialers := cl.Dialers(nil)
	dial := dialers[cloud]
	dialers[cloud] = func() (net.Conn, error) {
		conn, err := dial()
		return &recipeCounter{Conn: conn, puts: puts}, err
	}
	c, err := client.Connect(testOptions(user), dialers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// tamperShareContainers silently corrupts every stride-th entry of each
// share container on a backend (structure-preserving: CRC stays valid)
// and returns the fingerprints of the entries changed.
func tamperShareContainers(t *testing.T, b storage.Backend, stride int) []metadata.Fingerprint {
	t.Helper()
	var tampered []metadata.Fingerprint
	_, err := storage.Corrupt(b,
		func(name string) bool { return strings.HasPrefix(name, "share-") },
		func(name string, data []byte) []byte {
			out, changed := container.TamperEntries(name, data, stride, 0x5a)
			for _, e := range changed {
				tampered = append(tampered, e.Key)
			}
			return out
		})
	if err != nil {
		t.Fatal(err)
	}
	return tampered
}

// flushAndDropCaches persists every cloud's containers and empties the
// read caches, so scrub and restores read the (about to be tampered)
// backend bytes, not cached parses.
func flushAndDropCaches(t *testing.T, cl *cloud.Cluster) {
	t.Helper()
	for _, c := range cl.Clouds {
		if err := c.Server.Flush(); err != nil {
			t.Fatal(err)
		}
		c.Server.DropCaches()
	}
}

// TestScrubDetectsAndSchedulerHeals is the acceptance scenario: inject
// silent per-entry corruption on one cloud, scrub detects 100% of it,
// quarantine flags exactly the tampered shares, one scheduler Repair
// rebuilds exactly those — the cloud still holds the file's recipe, so
// none is put — and the cloud returns to full health, asserted via
// server stats, with no restore or repair call from the data-owning
// client.
func TestScrubDetectsAndSchedulerHeals(t *testing.T) {
	cl := startCluster(t)

	data := testFile(3, 256<<10)
	owner := connect(t, 1, cl)
	if _, err := owner.Backup("/scrub/víctima.tar", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}

	damagedCloud := 2
	flushAndDropCaches(t, cl)
	tampered := tamperShareContainers(t, cl.Clouds[damagedCloud].Backend, 3)
	if len(tampered) == 0 {
		t.Fatal("tamper injection touched nothing")
	}

	// Baseline stats: healing must not be client-served restore traffic
	// in disguise on the damaged cloud.
	baseServed := cl.Clouds[damagedCloud].Server.Stats().SharesServed

	// --- detection: one scrub pass finds every tampered entry ---
	pass, err := cl.Clouds[damagedCloud].Server.RunScrubPass()
	if err != nil {
		t.Fatal(err)
	}
	if len(pass.Damaged) == 0 {
		t.Fatal("scrub pass over tampered store reported no damage")
	}
	rep, err := owner.ScrubStatus(damagedCloud)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DamagedEntries != uint64(len(tampered)) {
		t.Fatalf("scrub detected %d damaged entries, injected %d", rep.DamagedEntries, len(tampered))
	}
	if rep.DamagedOutstanding != uint64(len(tampered)) {
		t.Fatalf("quarantine flagged %d shares, injected %d", rep.DamagedOutstanding, len(tampered))
	}
	if len(rep.Affected) != 1 || rep.Affected[0].Path != "/scrub/víctima.tar" || rep.Affected[0].RecipeLost {
		t.Fatalf("affected files = %+v, want the one backup with shares damaged", rep.Affected)
	}
	if len(rep.Affected[0].Damaged) != len(tampered) {
		t.Fatalf("report maps %d damaged fps to the file, injected %d", len(rep.Affected[0].Damaged), len(tampered))
	}
	// Healthy clouds must report clean.
	for i, c := range cl.Clouds {
		if i == damagedCloud {
			continue
		}
		if _, err := c.Server.RunScrubPass(); err != nil {
			t.Fatal(err)
		}
		crep, err := owner.ScrubStatus(i)
		if err != nil {
			t.Fatal(err)
		}
		if crep.DamagedEntries != 0 || len(crep.Affected) != 0 {
			t.Fatalf("cloud %d false positives: %+v", i, crep)
		}
	}

	// --- repair: one scheduler round heals the cloud ---
	var recipePuts atomic.Int64
	healer := connectCountingRecipes(t, 1, cl, damagedCloud, &recipePuts)
	sched := scheduler.New(scheduler.Config{
		Client: healer, N: testN, Concurrency: 2,
	})
	defer sched.Close()
	round, err := sched.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if round.CloudsDown != 0 || round.CloudsBusy != 0 {
		t.Fatalf("round blocked: %+v", round)
	}
	for _, out := range round.Outcomes {
		if out.Err != nil {
			t.Fatalf("repair of %q on cloud %d: %v", out.Path, out.Cloud, out.Err)
		}
	}
	sc := sched.Counters()
	if sc.Repairs != 1 || sc.SharesRebuilt != uint64(len(tampered)) {
		t.Fatalf("scheduler counters %+v, want 1 repair rebuilding %d shares", sc, len(tampered))
	}
	if n := recipePuts.Load(); n != 0 {
		t.Fatalf("healing shares put %d recipes to a cloud that holds its recipe", n)
	}

	// --- full health, asserted via server stats ---
	healed, err := owner.ScrubStatus(damagedCloud)
	if err != nil {
		t.Fatal(err)
	}
	if healed.DamagedOutstanding != 0 {
		t.Fatalf("%d shares still damaged after repair round", healed.DamagedOutstanding)
	}
	if healed.RepairedShares != uint64(len(tampered)) {
		t.Fatalf("index healed %d shares, want %d", healed.RepairedShares, len(tampered))
	}
	if len(healed.Affected) != 0 {
		t.Fatalf("files still affected after repair: %+v", healed.Affected)
	}
	// The damaged cloud served no client restore traffic: the stripes
	// were re-read from the OTHER clouds (zero client restore/repair
	// involvement on the healed cloud).
	if served := cl.Clouds[damagedCloud].Server.Stats().SharesServed; served != baseServed {
		t.Fatalf("healing served %d shares from the damaged cloud itself", served-baseServed)
	}
	// A follow-up pass over the healed store is clean.
	pass2, err := cl.Clouds[damagedCloud].Server.RunScrubPass()
	if err != nil {
		t.Fatal(err)
	}
	if len(pass2.Damaged) != 0 {
		t.Fatalf("pass after healing still sees %d damaged containers", len(pass2.Damaged))
	}

	// --- the healed shares carry real weight: restore with another cloud
	// down decodes through cloud 2's rebuilt shares ---
	cFinal := connect(t, 1, cl, 0)
	if got := restore(t, cFinal, "/scrub/víctima.tar"); !bytes.Equal(got, data) {
		t.Fatal("restore through healed shares is not byte-identical")
	}
}

// TestSchedulerFullRepairOnRecipeLoss: deleting a cloud's recipe
// container is discovered by the report's recipe-availability walk and
// healed by the scheduler's one Repair, which finds no recipe on the
// cloud (NotFound, the session intact) and puts it back.
func TestSchedulerFullRepairOnRecipeLoss(t *testing.T) {
	cl := startCluster(t)

	data := testFile(9, 128<<10)
	owner := connect(t, 1, cl)
	if _, err := owner.Backup("/scrub/recipes.tar", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	lostCloud := 1
	flushAndDropCaches(t, cl)
	deleted, err := storage.Corrupt(cl.Clouds[lostCloud].Backend,
		func(name string) bool { return strings.HasPrefix(name, "recipe-") },
		func(string, []byte) []byte { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) == 0 {
		t.Fatal("no recipe container to delete")
	}

	rep, err := owner.ScrubStatus(lostCloud)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Affected) != 1 || !rep.Affected[0].RecipeLost {
		t.Fatalf("affected = %+v, want one recipe-lost file", rep.Affected)
	}

	sched := scheduler.New(scheduler.Config{Client: owner, N: testN})
	defer sched.Close()
	round, err := sched.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(round.Outcomes) != 1 || round.Outcomes[0].Err != nil || sched.Counters().Repairs != 1 {
		t.Fatalf("round = %+v, want one successful repair", round)
	}
	after, err := owner.ScrubStatus(lostCloud)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Affected) != 0 || after.DamagedOutstanding != 0 {
		t.Fatalf("cloud %d not healed: %+v", lostCloud, after)
	}
	// Restore forcing reads through the re-uploaded recipe's cloud.
	c := connect(t, 1, cl, 3)
	if got := restore(t, c, "/scrub/recipes.tar"); !bytes.Equal(got, data) {
		t.Fatal("restore after recipe re-upload is not byte-identical")
	}
}

// TestRestoreContainerBlacklistEscalation: a client restore that trips
// on one silently corrupted share escalates to container granularity —
// the serving container is blacklisted once, and later windows
// substitute healthy clouds' shares instead of brute-forcing every
// affected secret individually.
func TestRestoreContainerBlacklistEscalation(t *testing.T) {
	cl := startCluster(t)

	data := testFile(5, 512<<10)
	opts := testOptions(1)
	opts.RestoreWindow = 16 // several windows, so escalation pays off after window 1
	c0 := connectWith(t, cl, opts)
	if _, err := c0.Backup("/scrub/blacklist.tar", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	badCloud := 0
	flushAndDropCaches(t, cl)
	// Tamper EVERY entry: without escalation each of the ~128 secrets
	// would take its own brute-force retry.
	tampered := tamperShareContainers(t, cl.Clouds[badCloud].Backend, 1)
	if len(tampered) == 0 {
		t.Fatal("tamper injection touched nothing")
	}

	var buf bytes.Buffer
	stats, err := c0.Restore("/scrub/blacklist.tar", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("restore over silent corruption is not byte-identical")
	}
	if stats.SubsetRetries == 0 {
		t.Fatal("no subset retries: corruption never reached the decode path")
	}
	if stats.ContainersBlacklisted == 0 {
		t.Fatal("decode failure did not escalate to a container blacklist")
	}
	if stats.SuspectShareSkips == 0 {
		t.Fatal("blacklist produced no substituted fetches in later windows")
	}
	// Escalation must beat per-secret brute force: retries stay well
	// below the count of corrupted-but-referenced secrets.
	if stats.SubsetRetries >= int64(len(tampered)) {
		t.Fatalf("%d subset retries for %d tampered shares: escalation saved nothing",
			stats.SubsetRetries, len(tampered))
	}
}
