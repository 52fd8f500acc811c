package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cdstore/internal/client"
	"cdstore/internal/cloud"
	"cdstore/internal/cost"
	"cdstore/internal/gateway"
	"cdstore/internal/server"
)

const (
	cloudsN       = 4
	cloudsK       = 3
	encodeThreads = 2
	gatewayConns  = 2
	// failedCloud is the cloud that fails, is replaced and is rebuilt.
	failedCloud = 0
	// recordCloud is the cloud whose request stream the server replay
	// uses; it must not be failedCloud (which serves no restore).
	recordCloud = 1
	// defaultOpTimeout is the watchdog: an operation that has not
	// returned by then is a stall. Nothing in the tree takes a context or
	// a deadline, so a stalled operation cannot be cancelled; the run
	// reports it and exits non-zero instead of hanging.
	defaultOpTimeout = 60 * time.Second
	// warmUser owns the untimed warm-up backup.
	warmUser = 1 << 20
)

var errStall = errors.New("operation stalled past the watchdog")

// phaseCost is what one timed phase cost the process.
type phaseCost struct {
	wallS   float64
	cpuS    float64
	mallocs uint64
}

// roundResult is everything one round measured.
type roundResult struct {
	setupS float64

	repaired int64 // logical bytes of the backups repaired

	backup, restore, repair phaseCost

	wireBackup, wireRestore wireSnapshot
	storedBytes             int64
	usdPerTBMonth           float64

	// bs and rs sum the client's own statistics over the backup and the
	// restore phase; repairRS is the read side of the repairs.
	bs       client.BackupStats
	rs       client.RestoreStats
	repairRS client.RestoreStats
	reupload int64

	// Server counters summed over the clouds: srvBackup is the backup
	// phase, srvRestore the restore phase.
	srvBackup, srvRestore server.Stats

	beBackup, beRestore backendSnapshot

	gwSessions, gwDials, gwRelayed uint64
	sstablesPerShard               float64
	openFDsPeak                    int
	scrubS                         float64
	// inputBackupNs and inputRestoreNs are the time the benchmark's own
	// generators and verifying sinks took inside each phase (traced
	// rounds only).
	inputBackupNs, inputRestoreNs int64

	connectMs, backupFileS, restoreFileS []float64

	recorded []*recordedSession
}

func (r *roundResult) logical() int64  { return r.bs.LogicalBytes } // bytes backed up
func (r *roundResult) secrets() int64  { return r.bs.Secrets }
func (r *roundResult) restored() int64 { return r.rs.Bytes } // bytes restored and verified

// harness runs one round: a fresh 4-cloud cluster on disk, the four
// phases, tear-down.
type harness struct {
	spec   workloadSpec
	sz     sizing
	tr     *tracer
	record bool

	dir      string
	cl       *cloud.Cluster
	gws      []*gateway.Gateway
	gwAddrs  []string
	backends []*tracedBackend

	wire  wireCounters
	be    backendCounters
	phase atomic.Pointer[openSpan]
	// phaseName is the timed phase in progress ("" between phases).
	phaseName string
	// inputNs is time spent inside the benchmark's own generators and
	// verifying sinks (traced rounds only).
	inputNs atomic.Int64

	ops       *runState
	opTimeout time.Duration

	mu       sync.Mutex
	res      roundResult
	fdsPeak  int
	firstErr error
	// stalled is set once an operation outlived the watchdog. Its
	// goroutine still holds a session, so tear-down must not wait for
	// the servers.
	stalled bool
}

// runState is what the rounds of one run share: the operation counts,
// and the data directories of finished rounds, kept until the run ends.
//
// Why the directories wait: deleting a round's thousands of index
// files just before the next round made every file that round created
// slower (a fresh cluster took 0.03 s to start after no deletions and
// 0.09 s after eleven rounds of them, and kept slowing) — probably ext4
// declining to reuse an inode freed in the last five seconds.
// Deleting at the end keeps one round's tear-down out of the next
// round's numbers.
type runState struct {
	attempted, failed atomic.Int64

	mu   sync.Mutex
	dirs []string
}

func (o *runState) removeDirs() {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, d := range o.dirs {
		os.RemoveAll(d)
	}
	o.dirs = nil
}

// runOp runs one backup/restore/repair/verify operation under the
// watchdog and counts it.
func (h *harness) runOp(what string, fn func() error) error {
	h.ops.attempted.Add(1)
	done := make(chan error, 1)
	go func() { done <- fn() }()
	timer := time.NewTimer(h.opTimeout)
	defer timer.Stop()
	var err error
	select {
	case err = <-done:
	case <-timer.C:
		err = errStall
	}
	if err != nil {
		h.ops.failed.Add(1)
		err = fmt.Errorf("%s: %w", what, err)
		h.mu.Lock()
		if h.firstErr == nil {
			h.firstErr = err
		}
		h.stalled = h.stalled || errors.Is(err, errStall)
		h.mu.Unlock()
	}
	return err
}

// addr is where clients reach cloud i now.
func (h *harness) addr(i int) string {
	if h.spec.gateway {
		return h.gwAddrs[i]
	}
	return h.cl.Clouds[i].Addr()
}

func (h *harness) down(i int) bool { return h.cl.Clouds[i].Backend.Down() }

// wrapBackend installs the storage seam on cloud i.
func (h *harness) wrapBackend(i int) {
	f := h.cl.Clouds[i].Backend
	tb := &tracedBackend{
		Backend: f.Backend, c: &h.be, tr: h.tr,
		parent: h.phase.Load, sizes: make(map[string]int64),
	}
	f.Backend = tb
	h.backends[i] = tb
}

// startGateway puts a gateway in front of cloud i.
func (h *harness) startGateway(i int) error {
	gw, err := gateway.New(gateway.Config{
		Dial: func() (net.Conn, error) {
			return net.DialTimeout("tcp", h.cl.Clouds[i].Addr(), 5*time.Second)
		},
		UpstreamConns: gatewayConns,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go gw.Serve(ln)
	h.gws[i], h.gwAddrs[i] = gw, ln.Addr().String()
	return nil
}

// closeGateway folds gateway i's counters into the result and stops it.
func (h *harness) closeGateway(i int) {
	if h.gws[i] == nil {
		return
	}
	st := h.gws[i].Stats()
	h.res.gwSessions += st.Sessions
	h.res.gwDials += st.UpstreamDials
	h.res.gwRelayed += st.Relayed
	h.gws[i].Close()
	h.gws[i] = nil
}

// withSession connects user to the clouds that are up, runs fn and
// closes the session. Connect and Close are spans of their own.
func (h *harness) withSession(user uint64, fn func(c *client.Client, s *session) error) error {
	s := &session{wire: &h.wire, tr: h.tr}
	// Only sessions of the timed phases are recorded for the replay; the
	// warm-up and the final check run between phases.
	if h.record && h.phaseName != "" {
		s.rec = &recordedSession{user: user, phase: h.phaseName}
		h.mu.Lock()
		h.res.recorded = append(h.res.recorded, s.rec)
		h.mu.Unlock()
	}
	sp := h.tr.beginOp(h.phase.Load(), "connect")
	s.cur.Store(sp)
	t := time.Now()
	c, err := client.Connect(client.Options{
		UserID: user, N: cloudsN, K: cloudsK,
		EncodeThreads: encodeThreads, Chunking: h.spec.chunking,
	}, s.dialers(cloudsN, h.addr, h.down, recordCloud))
	sp.end(0)
	if err != nil {
		return fmt.Errorf("user %d connect: %w", user, err)
	}
	h.mu.Lock()
	h.res.connectMs = append(h.res.connectMs, time.Since(t).Seconds()*1e3)
	h.mu.Unlock()
	err = fn(c, s)
	sp = h.tr.beginOp(h.phase.Load(), "close")
	s.cur.Store(sp)
	cerr := c.Close()
	sp.end(0)
	if err == nil {
		err = cerr
	}
	return err
}

// closedLoop runs the sessions of one wave with at most width in
// flight: each worker is one user position of the closed loop.
func closedLoop(width int, sessions []func()) {
	next := make(chan func())
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				s()
			}
		}()
	}
	for _, s := range sessions {
		next <- s
	}
	close(next)
	wg.Wait()
}

// sessionsOf returns one closed-loop session per group: the group's
// user connects, op runs on each of its specs in order, the session
// closes. A failed operation has been counted by runOp and ends the
// session.
func (h *harness) sessionsOf(groups [][]*backupSpec, op func(*client.Client, *session, *backupSpec) error) []func() {
	sessions := make([]func(), len(groups))
	for i, specs := range groups {
		specs := specs
		sessions[i] = func() {
			_ = h.withSession(specs[0].user, func(c *client.Client, s *session) error {
				for _, b := range specs {
					if err := op(c, s, b); err != nil {
						return err
					}
				}
				return nil
			})
		}
	}
	return sessions
}

// byUser groups specs by user, keeping first-appearance order.
func byUser(specs []*backupSpec) [][]*backupSpec {
	idx := make(map[uint64]int)
	var out [][]*backupSpec
	for _, b := range specs {
		i, ok := idx[b.user]
		if !ok {
			i = len(out)
			idx[b.user] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], b)
	}
	return out
}

// backupOne backs up one spec on an open session and records its
// digest.
func (h *harness) backupOne(c *client.Client, s *session, b *backupSpec) error {
	return h.runOp("backup "+b.path, func() error {
		sp := h.tr.beginOp(h.phase.Load(), "backup")
		s.cur.Store(sp)
		t := time.Now()
		var st *client.BackupStats
		var err error
		if b.trace != nil {
			src := newTraceSource(*b.trace)
			st, err = c.BackupStream(b.path, &timedSource{src: src, h: h})
			b.want = src.digest()
		} else {
			r := newSegReader(b.segs)
			st, err = c.Backup(b.path, &timedReader{r: r, h: h})
			b.want = r.digest()
		}
		sp.end(b.want.n)
		if err != nil {
			return err
		}
		h.mu.Lock()
		h.res.backupFileS = append(h.res.backupFileS, time.Since(t).Seconds())
		h.res.bs.LogicalBytes += st.LogicalBytes
		h.res.bs.Secrets += st.Secrets
		h.res.bs.LogicalShareBytes += st.LogicalShareBytes
		h.res.bs.TransferredShareBytes += st.TransferredShareBytes
		h.res.bs.SharesSent += st.SharesSent
		h.res.bs.SharesSkipped += st.SharesSkipped
		h.mu.Unlock()
		return nil
	})
}

// restoreOne restores one spec, verifies every byte and returns the
// client's statistics and how long it took.
func (h *harness) restoreOne(c *client.Client, s *session, b *backupSpec) (st *client.RestoreStats, seconds float64, err error) {
	err = h.runOp("restore "+b.path, func() error {
		sp := h.tr.beginOp(h.phase.Load(), "restore")
		s.cur.Store(sp)
		t := time.Now()
		sink := newVerifySink()
		var err error
		st, err = c.Restore(b.path, &timedWriter{w: sink, h: h})
		sp.end(sink.n)
		if err != nil {
			return err
		}
		seconds = time.Since(t).Seconds()
		return sink.check(b.want)
	})
	return st, seconds, err
}

func addRestoreStats(into, st *client.RestoreStats) {
	into.Bytes += st.Bytes
	into.Secrets += st.Secrets
	into.DownloadedBytes += st.DownloadedBytes
	into.CacheHitBytes += st.CacheHitBytes
	into.SubsetRetries += st.SubsetRetries
	into.Failovers += st.Failovers
}

// timed runs a phase under a span and returns what it cost.
func (h *harness) timed(name string, fn func()) phaseCost {
	sp := h.tr.beginOp(nil, "phase."+name)
	h.phase.Store(sp)
	h.phaseName = name
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t := time.Now()
	fn()
	wall := time.Since(t).Seconds()
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	sp.end(0)
	h.phase.Store(nil)
	h.phaseName = ""
	h.noteFDs()
	return phaseCost{wallS: wall, cpuS: c1 - c0, mallocs: m1.Mallocs - m0.Mallocs}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func (h *harness) noteFDs() {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return
	}
	if len(ents) > h.fdsPeak {
		h.fdsPeak = len(ents)
	}
}

func (h *harness) serverTotals() server.Stats {
	var t server.Stats
	for _, c := range h.cl.Clouds {
		s := c.Server.Stats()
		t.SharesReceived += s.SharesReceived
		t.SharesStored += s.SharesStored
		t.BytesReceived += s.BytesReceived
		t.BytesStored += s.BytesStored
		t.IntraQueries += s.IntraQueries
		t.IntraHits += s.IntraHits
		t.SharesServed += s.SharesServed
		t.BytesServed += s.BytesServed
	}
	return t
}

func subServer(a, b server.Stats) server.Stats {
	return server.Stats{
		SharesReceived: a.SharesReceived - b.SharesReceived,
		SharesStored:   a.SharesStored - b.SharesStored,
		BytesReceived:  a.BytesReceived - b.BytesReceived,
		BytesStored:    a.BytesStored - b.BytesStored,
		IntraQueries:   a.IntraQueries - b.IntraQueries,
		IntraHits:      a.IntraHits - b.IntraHits,
		SharesServed:   a.SharesServed - b.SharesServed,
		BytesServed:    a.BytesServed - b.BytesServed,
	}
}

// storedBytes is what the backends of all clouds hold.
func (h *harness) storedBytes() int64 {
	var n int64
	for _, b := range h.backends {
		n += b.storedBytes()
	}
	return n
}

func (h *harness) flushAll() error {
	sp := h.tr.beginOp(h.phase.Load(), "flush")
	defer sp.end(0)
	for _, c := range h.cl.Clouds {
		if c.Backend.Down() {
			continue
		}
		if err := c.Server.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// setUp generates the round's inputs, starts the cluster (and the
// gateways), and runs one untimed warm-up backup+restore: the first
// backup on a cold cluster measured a third of the steady rate.
func (h *harness) setUp(seed int64, round int) (*plan, error) {
	p := h.spec.plan(seed, round, h.sz)
	dir, err := os.MkdirTemp("", "cdstore-benchmark-")
	if err != nil {
		return nil, err
	}
	h.dir = dir
	h.cl, err = cloud.NewCluster(cloud.Config{N: cloudsN, K: cloudsK, BaseDir: dir, DiskBackend: true})
	if err != nil {
		return nil, err
	}
	h.backends = make([]*tracedBackend, cloudsN)
	for i := range h.cl.Clouds {
		h.wrapBackend(i)
	}
	if h.spec.gateway {
		h.gws = make([]*gateway.Gateway, cloudsN)
		h.gwAddrs = make([]string, cloudsN)
		for i := range h.cl.Clouds {
			if err := h.startGateway(i); err != nil {
				return nil, err
			}
		}
	}
	warm := &backupSpec{
		user: warmUser, path: "/warm",
		segs: []segment{{seed: mix(seed, uint64(round), warmUser), n: h.sz.warmBytes}},
	}
	err = h.withSession(warm.user, func(c *client.Client, s *session) error {
		if err := h.backupOne(c, s, warm); err != nil {
			return err
		}
		_, _, err := h.restoreOne(c, s, warm)
		return err
	})
	if err != nil {
		return nil, err
	}
	// The warm-up is not part of what the phases report.
	h.mu.Lock()
	h.res = roundResult{}
	h.mu.Unlock()
	return p, nil
}

func (h *harness) tearDown() {
	h.mu.Lock()
	stalled := h.stalled
	h.mu.Unlock()
	if !stalled {
		for i := range h.gws {
			h.closeGateway(i)
		}
		if h.cl != nil {
			h.cl.Close()
		}
	}
	if h.dir != "" {
		// The containers go now — they are the bytes, and left in the
		// page cache as dirty data they slow every later round — while
		// the index directories, thousands of small files, wait for the
		// end of the run (see runState).
		backends, _ := filepath.Glob(filepath.Join(h.dir, "cloud*-backend"))
		for _, b := range backends {
			os.RemoveAll(b)
		}
		h.ops.mu.Lock()
		h.ops.dirs = append(h.ops.dirs, h.dir)
		h.ops.mu.Unlock()
	}
}

// runRound runs one full round and returns what it measured. A round
// that cannot finish (a failed or stalled operation) returns an error;
// the operation has already been counted.
func runRound(spec workloadSpec, sz sizing, seed int64, round int, tr *tracer, record bool, ops *runState) (*roundResult, error) {
	h := &harness{spec: spec, sz: sz, tr: tr, record: record, ops: ops, opTimeout: defaultOpTimeout}
	defer h.tearDown()

	t0 := time.Now()
	sp := tr.beginOp(nil, "phase.setup")
	h.phase.Store(sp)
	p, err := h.setUp(seed, round)
	sp.end(0)
	h.phase.Store(nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupS := time.Since(t0).Seconds()
	// Untimed: push the warm-up out of the servers' open containers, so
	// that the backup phase's flush and stored bytes are the workload's.
	if err := h.flushAll(); err != nil {
		return nil, fmt.Errorf("flush after warm-up: %w", err)
	}
	in0 := h.inputNs.Load()

	// ---- backup: waves in order, users of a wave in a closed loop; the
	// phase ends after Flush on every cloud, so work a server defers
	// past PutOK is paid inside it.
	srv0, wire0, be0 := h.serverTotals(), h.wire.snapshot(), h.be.snapshot()
	stored := -h.storedBytes()
	backup := h.timed("backup", func() {
		for _, wave := range p.waves {
			closedLoop(h.spec.users, h.sessionsOf(byUser(wave), h.backupOne))
		}
		if err := h.flushAll(); err != nil {
			h.fail(err)
		}
	})
	if h.firstErr != nil {
		return nil, h.firstErr
	}
	srv1, wire1, be1, in1 := h.serverTotals(), h.wire.snapshot(), h.be.snapshot(), h.inputNs.Load()
	stored += h.storedBytes()
	h.res.sstablesPerShard = sstablesPerShard(h.dir)

	// ---- restore: every backup, one session per user, verified.
	if h.spec.degraded {
		h.cl.FailCloud(failedCloud)
	}
	users := byUser(p.all())
	restore := h.timed("restore", func() {
		closedLoop(h.spec.users, h.sessionsOf(users, func(c *client.Client, s *session, b *backupSpec) error {
			st, seconds, err := h.restoreOne(c, s, b)
			if err != nil {
				return err
			}
			h.mu.Lock()
			h.res.restoreFileS = append(h.res.restoreFileS, seconds)
			addRestoreStats(&h.res.rs, st)
			h.mu.Unlock()
			return nil
		}))
	})
	if h.firstErr != nil {
		return nil, h.firstErr
	}
	srv2, wire2, be2, in2 := h.serverTotals(), h.wire.snapshot(), h.be.snapshot(), h.inputNs.Load()

	// ---- the cloud is lost for good: replace it empty (untimed), then
	// rebuild every backup's shares on it.
	if h.spec.gateway {
		h.closeGateway(failedCloud)
	}
	if err := h.cl.ReplaceCloud(failedCloud); err != nil {
		return nil, fmt.Errorf("replace cloud %d: %w", failedCloud, err)
	}
	h.wrapBackend(failedCloud)
	if h.spec.gateway {
		if err := h.startGateway(failedCloud); err != nil {
			return nil, err
		}
	}
	repair := h.timed("repair", func() {
		closedLoop(h.spec.users, h.sessionsOf(users, h.repairOne))
		if err := h.flushAll(); err != nil {
			h.fail(err)
		}
	})
	if h.firstErr != nil {
		return nil, h.firstErr
	}

	// ---- untimed check: with another cloud down, one backup per user
	// must restore through the rebuilt cloud.
	h.cl.FailCloud(recordCloud)
	last := make([][]*backupSpec, len(users))
	for i, specs := range users {
		last[i] = specs[len(specs)-1:]
	}
	sessions := h.sessionsOf(last, func(c *client.Client, s *session, b *backupSpec) error {
		_, _, err := h.restoreOne(c, s, b)
		return err
	})
	closedLoop(h.spec.users, sessions)
	h.cl.RecoverCloud(recordCloud)
	if h.firstErr != nil {
		return nil, h.firstErr
	}

	// ---- traced rounds only: one scrub pass over healthy data.
	if tr != nil {
		sp := tr.beginOp(nil, "scrub.pass")
		t := time.Now()
		_, err := h.cl.Clouds[recordCloud].Server.RunScrubPass()
		h.res.scrubS = time.Since(t).Seconds()
		sp.end(0)
		if err != nil {
			return nil, fmt.Errorf("scrub pass: %w", err)
		}
	}
	h.noteFDs()
	for i := range h.gws {
		h.closeGateway(i)
	}

	// A copy: a pointer into h would keep the whole cluster reachable
	// for as long as the result is.
	res := new(roundResult)
	*res = h.res
	res.setupS = setupS
	res.backup, res.restore, res.repair = backup, restore, repair
	res.wireBackup, res.wireRestore = wire1.sub(wire0), wire2.sub(wire1)
	res.srvBackup, res.srvRestore = subServer(srv1, srv0), subServer(srv2, srv1)
	res.beBackup, res.beRestore = be1.sub(be0), be2.sub(be1)
	res.storedBytes = stored
	res.openFDsPeak = h.fdsPeak
	res.inputBackupNs, res.inputRestoreNs = in1-in0, in2-in1
	mr, err := cost.AnalyzeMeasured(cost.Measured{
		LogicalBytes:          res.bs.LogicalBytes,
		LogicalShareBytes:     res.bs.LogicalShareBytes,
		TransferredShareBytes: res.bs.TransferredShareBytes,
		StoredShareBytes:      int64(res.srvBackup.BytesStored),
		RestoredBytes:         res.restored(),
		RestoreEgressBytes:    res.rs.DownloadedBytes,
		RepairEgressBytes:     res.repairRS.DownloadedBytes,
	}, 1.0, restoreFracPerMonth, cost.Params{})
	if err != nil {
		return nil, fmt.Errorf("cost model: %w", err)
	}
	res.usdPerTBMonth = mr.USDPerTBMonth
	return res, nil
}

// setUpOnly sets a cluster up, warm-up included, tears it down again and
// returns how long the set-up took: an extra set-up sample, so that
// setup_s is a median over more set-ups than the run has rounds.
func setUpOnly(spec workloadSpec, sz sizing, seed int64, round int, ops *runState) (float64, error) {
	h := &harness{spec: spec, sz: sz, ops: ops, opTimeout: defaultOpTimeout}
	defer h.tearDown()
	t := time.Now()
	if _, err := h.setUp(seed, round); err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	return time.Since(t).Seconds(), nil
}

// restoreFracPerMonth is the share of retained data restored each month
// in the cost model: the scenario matrix's figure.
const restoreFracPerMonth = 0.05

func (h *harness) fail(err error) {
	h.mu.Lock()
	if h.firstErr == nil {
		h.firstErr = err
	}
	h.mu.Unlock()
}

// repairOne rebuilds one backup's shares on the replaced cloud.
func (h *harness) repairOne(c *client.Client, s *session, b *backupSpec) error {
	return h.runOp("repair "+b.path, func() error {
		sp := h.tr.beginOp(h.phase.Load(), "repair")
		s.cur.Store(sp)
		st, err := c.Repair(b.path, failedCloud)
		sp.end(b.want.n)
		if err != nil {
			return err
		}
		h.mu.Lock()
		h.res.repaired += b.want.n
		h.res.reupload += st.BytesReuploads
		addRestoreStats(&h.res.repairRS, &st.Restore)
		h.mu.Unlock()
		return nil
	})
}

// sstablesPerShard counts *.sst files per index shard directory of the
// live cluster: every direct-connection Bye flushes the cloud's shards
// into new tables that nothing compacts.
func sstablesPerShard(dir string) float64 {
	shards, _ := filepath.Glob(filepath.Join(dir, "cloud*-index", "shards", "*"))
	if len(shards) == 0 {
		return 0
	}
	tables, _ := filepath.Glob(filepath.Join(dir, "cloud*-index", "shards", "*", "*.sst"))
	return float64(len(tables)) / float64(len(shards))
}
