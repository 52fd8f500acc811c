package client

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cdstore/internal/cache"
	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/secretshare"
)

// defaultRestoreWindow is the default pipeline window (secrets per fetch
// round trip, Options.RestoreWindow). Individual GetShares calls are
// additionally bounded by bytes (protocol.BatchBytes, using the recipe's
// share sizes) so replies stay under protocol.MaxMessage whatever the
// chunk size.
const defaultRestoreWindow = 512

// restoreWindowBytes closes a restore window once the secrets in it reach
// this many decoded bytes (always admitting at least one), so a file of
// large chunks cannot pin RestoreWindow * chunkSize bytes in flight: the
// pipeline's memory ceiling is independent of chunk size skew. It is four
// times what a default window of 16 KB secrets covers.
const restoreWindowBytes = 32 << 20

// restoreCacheBytes bounds the share cache consulted across restore
// windows, so a recipe referencing the same share fingerprint many times
// downloads it once — restores then pay egress for distinct bytes only,
// the dedup-aware read the paper's cost argument wants.
const restoreCacheBytes = 32 << 20

// cloudRecipe pairs one available cloud connection with its per-cloud
// recipe for the file being read.
type cloudRecipe struct {
	cloud  int
	cc     *cloudConn
	recipe *metadata.Recipe
}

// resultSink consumes decode results in strict sequence order. In
// restore mode d.data is the secret, pool-owned and recycled as soon as
// the sink returns (implementations must not retain it); in rebuild mode
// it is the rebuilt share, and the sink owns it from then on.
type resultSink func(d decodedSecret) error

// restoreEngine is the streaming read path shared by Restore and Repair
// (the decode mirror of BackupStream's pipeline):
//
//	fetcher ──jobs──▸ decode workers ──reorder ring──▸ in-order writer ──▸ sink
//
// One fetcher goroutine walks the recipe in windows, downloading each
// window's *distinct* share fingerprints from the k primary clouds in
// parallel (consulting an LRU of recently seen shares across windows, so
// duplicate fingerprints are downloaded once) and prefetching window N+1
// while the decode workers drain window N. Decode workers run
// CombineInto through per-worker arenas — the zero-allocation decode of
// the scheme layer — falling back to the §3.2 brute-force k-subset
// retry on integrity failures. A single writer reorders results and
// streams secrets to the sink in sequence order, recycling each buffer
// into the shared pool afterwards. Memory held is O(window), not
// O(file).
//
// In rebuild mode (Repair, RepairEntries) the workers do not hand the
// secret on: they call the scheme's RebuildInto — the same decode and
// integrity checks, then one Reed-Solomon row over the verified package —
// and fingerprint the rebuilt share, so everything per-byte runs on the
// parallel stage and the in-order sink only books results.
//
// Fault handling: if a primary cloud fails mid-stream and spare clouds
// remain (more than k reachable), the fetcher promotes a spare and
// retries the window's missing fetches instead of failing the restore.
type restoreEngine struct {
	c           *Client
	numSecrets  uint64
	fileSize    uint64
	window      int
	windowBytes int // restoreWindowBytes; a field so tests can tighten it

	// restricted limits the engine to seqs, a sorted subset of the secret
	// sequence numbers — none of them when seqs is empty; an unrestricted
	// engine processes the whole file. count is the number of pipeline
	// positions: len(seqs) when restricted, numSecrets otherwise. Repairs
	// re-read only the stripes they have to rebuild.
	restricted bool
	seqs       []uint64
	count      uint64

	// mu guards primary/spares: the fetcher reshuffles them on failover
	// while decode workers snapshot them for subset retries.
	mu      sync.Mutex
	primary []cloudRecipe // the k clouds windows are fetched from
	spares  []cloudRecipe // remaining reachable clouds, promoted on failure

	// suspectMu guards the container-granularity escalation state of the
	// §3.2 retry path: containers blacklisted after serving a share that
	// failed verification, and the fingerprints resident in them. Window
	// assignment substitutes a healthy cloud for suspect shares instead
	// of rediscovering the damage one brute-force retry at a time.
	suspectMu sync.Mutex
	blacklist map[int]map[string]bool               // cloud -> container names
	suspects  map[int]map[metadata.Fingerprint]bool // cloud -> suspect share fps

	// shareCache holds recently downloaded shares across windows, keyed
	// by fingerprint.
	shareCache *cache.LRU

	secretPool secretshare.SharePool

	// rebuilder switches the decode workers to rebuild mode: each result
	// is share rebuildIdx of the secret, drawn from the client's share
	// pool, instead of the secret itself. nil restores.
	rebuilder  secretshare.Rebuilder
	rebuildIdx int

	// Hot-path counters (snapshotted into RestoreStats afterwards).
	downloadedBytes     atomic.Int64
	cacheHitBytes       atomic.Int64
	subsetRetries       atomic.Int64
	failovers           atomic.Int64
	containerBlacklists atomic.Int64
	suspectSkips        atomic.Int64
	written             int64 // writer-goroutine only
	secrets             int64 // writer-goroutine only
}

// newRestoreEngine fetches the per-cloud recipes for path from every
// available cloud except `exclude` (pass a negative index to exclude
// none) — one round trip, the clouds asked concurrently — and validates
// they agree. At least k clouds must hold the file. The clouds that do
// are kept in cloud-index order, so which become primaries and which
// spares does not depend on reply timing.
func (c *Client) newRestoreEngine(path string, exclude int) (*restoreEngine, error) {
	paths := make([]string, len(c.conns))
	for i, cc := range c.conns {
		if cc == nil || i == exclude {
			continue
		}
		var err error
		if paths[i], err = c.pathForCloud(i, path); err != nil {
			return nil, err
		}
	}
	recipes := make([]*metadata.Recipe, len(c.conns))
	var wg sync.WaitGroup
	for i, cc := range c.conns {
		if cc == nil || i == exclude {
			continue
		}
		wg.Add(1)
		go func(i int, cc *cloudConn) {
			defer wg.Done()
			reply, err := cc.call(protocol.MsgGetRecipe, protocol.EncodeString(paths[i]), protocol.MsgRecipe)
			if err != nil {
				return // cloud up but file unknown there: treat as unavailable
			}
			if recipe, err := metadata.UnmarshalRecipe(reply); err == nil {
				recipes[i] = recipe
			}
		}(i, cc)
	}
	wg.Wait()
	avail := make([]cloudRecipe, 0, len(recipes))
	for i, recipe := range recipes {
		if recipe != nil {
			avail = append(avail, cloudRecipe{cloud: i, cc: c.conns[i], recipe: recipe})
		}
	}
	if len(avail) < c.opts.K {
		return nil, fmt.Errorf("client: only %d clouds hold %q (< k=%d)", len(avail), path, c.opts.K)
	}
	numSecrets := avail[0].recipe.NumSecrets
	fileSize := avail[0].recipe.FileSize
	for _, cr := range avail[1:] {
		if cr.recipe.NumSecrets != numSecrets || cr.recipe.FileSize != fileSize {
			return nil, fmt.Errorf("client: recipe disagreement between clouds for %q", path)
		}
	}
	return &restoreEngine{
		c:           c,
		numSecrets:  numSecrets,
		count:       numSecrets,
		fileSize:    fileSize,
		window:      c.opts.RestoreWindow,
		windowBytes: restoreWindowBytes,
		primary:     avail[:c.opts.K],
		spares:      avail[c.opts.K:],
		shareCache:  cache.NewLRU(restoreCacheBytes),
	}, nil
}

// restrictTo limits the engine to the given (sorted) secret sequence
// numbers; only those stripes are fetched and decoded. An empty list —
// nil included — restricts it to nothing.
func (e *restoreEngine) restrictTo(seqs []uint64) {
	e.restricted = true
	e.seqs = seqs
	e.count = uint64(len(seqs))
}

// seqAt maps a pipeline position to its secret sequence number.
func (e *restoreEngine) seqAt(pos uint64) uint64 {
	if !e.restricted {
		return pos
	}
	return e.seqs[pos]
}

// refRecipe returns a recipe to read per-secret sizes from (they agree
// across clouds).
func (e *restoreEngine) refRecipe() *metadata.Recipe {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.primary[0].recipe
}

// clouds snapshots every cloud the engine may read from (primary +
// spares), for the brute-force subset retry.
func (e *restoreEngine) clouds() []cloudRecipe {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]cloudRecipe, 0, len(e.primary)+len(e.spares))
	out = append(out, e.primary...)
	return append(out, e.spares...)
}

// isSuspect reports whether a share fingerprint on a cloud sits in a
// blacklisted container.
func (e *restoreEngine) isSuspect(cloud int, fp metadata.Fingerprint) bool {
	e.suspectMu.Lock()
	defer e.suspectMu.Unlock()
	return e.suspects[cloud][fp]
}

// markSuspect flags one share fingerprint on one cloud as suspect.
func (e *restoreEngine) markSuspect(cloud int, fp metadata.Fingerprint) {
	e.suspectMu.Lock()
	if e.suspects == nil {
		e.suspects = make(map[int]map[metadata.Fingerprint]bool)
	}
	if e.suspects[cloud] == nil {
		e.suspects[cloud] = make(map[metadata.Fingerprint]bool)
	}
	e.suspects[cloud][fp] = true
	e.suspectMu.Unlock()
}

// decodeJob is one secret heading into the decode worker pool. shares
// maps cloud index -> share bytes; the byte slices may be shared between
// jobs (deduplicated fetches) and must be treated read-only.
type decodeJob struct {
	pos        uint64 // pipeline position (ordering key)
	seq        uint64 // secret sequence number (recipe key)
	secretSize int
	shares     map[int][]byte
}

// decodedSecret is one decode result heading to the in-order writer.
// data is the secret, drawn from the engine's secret pool — or, in
// rebuild mode, the rebuilt share from the client's share pool, with its
// fingerprint in fp. secretSize is the recipe's size of the secret either
// way.
type decodedSecret struct {
	pos        uint64
	seq        uint64
	secretSize int
	data       []byte
	fp         metadata.Fingerprint // rebuild mode only
	retried    bool
}

// stats assembles the public RestoreStats from the engine counters.
func (e *restoreEngine) stats() *RestoreStats {
	return &RestoreStats{
		Bytes:                 e.written,
		Secrets:               e.secrets,
		DownloadedBytes:       e.downloadedBytes.Load(),
		CacheHitBytes:         e.cacheHitBytes.Load(),
		SubsetRetries:         e.subsetRetries.Load(),
		Failovers:             e.failovers.Load(),
		ContainersBlacklisted: e.containerBlacklists.Load(),
		SuspectShareSkips:     e.suspectSkips.Load(),
	}
}

// windowEnd returns the exclusive end of the pipeline window starting at
// position start: at most e.window secrets, closing early once
// cumulative secret bytes reach e.windowBytes. At least one secret is
// always admitted, so a single secret larger than the budget forms a
// window of its own rather than stalling the pipeline.
func (e *restoreEngine) windowEnd(start uint64) uint64 {
	end := start + uint64(e.window)
	if end > e.count {
		end = e.count
	}
	recipe := e.refRecipe()
	acc := uint64(0)
	for pos := start; pos < end; pos++ {
		sz := uint64(recipe.Entries[e.seqAt(pos)].SecretSize)
		if pos > start && acc+sz > uint64(e.windowBytes) {
			return pos
		}
		acc += sz
	}
	return end
}

// run streams every secret of the file through the pipeline into sink,
// in order. It returns after the last secret has been delivered (or the
// first error has unwound the pipeline).
func (e *restoreEngine) run(sink resultSink) error {
	if e.count == 0 {
		return nil
	}
	threads := e.c.opts.EncodeThreads
	jobs := make(chan decodeJob, e.window)
	// Producer lead over the writer is bounded by the jobs channel (one
	// window) plus one in-flight job per worker; one spare slot keeps a
	// lapping producer from ever blocking on the writer's current slot.
	ring := newReorderRing(e.window + threads + 1)
	errCh := make(chan error, threads+2)
	done := make(chan struct{})
	var closeOnce sync.Once
	cancel := func() {
		closeOnce.Do(func() {
			close(done)
			ring.abort()
		})
	}
	defer cancel()

	// Fetcher: walks the recipe in windows, prefetching ahead of decode.
	// The jobs channel's capacity (one window) is the pipeline depth: the
	// fetcher runs at most one window ahead of the slowest decoder.
	go func() {
		defer close(jobs)
		for start := uint64(0); start < e.count; {
			end := e.windowEnd(start)
			got, rows, err := e.fetchWindow(start, end)
			if err != nil {
				select {
				case errCh <- err:
				default:
				}
				cancel()
				return
			}
			recipe := e.refRecipe()
			for pos := start; pos < end; pos++ {
				row := rows[pos-start]
				seq := e.seqAt(pos)
				shares := make(map[int][]byte, len(row))
				for _, ref := range row {
					data, ok := got[ref.fp]
					if !ok {
						// Unreachable: fetchWindow resolved every
						// fingerprint of the window's assignment.
						select {
						case errCh <- fmt.Errorf("client: share for secret %d missing after fetch", seq):
						default:
						}
						cancel()
						return
					}
					shares[ref.cloud] = data
				}
				job := decodeJob{
					pos:        pos,
					seq:        seq,
					secretSize: int(recipe.Entries[seq].SecretSize),
					shares:     shares,
				}
				select {
				case jobs <- job:
				case <-done:
					return
				}
			}
			start = end
		}
	}()

	// Decode workers: per-worker arenas over the shared secret pool — in
	// rebuild mode over the client's share pool, where rebuilt shares are
	// drawn and the repair sink returns them after each flush.
	pool := &e.secretPool
	if e.rebuilder != nil {
		pool = &e.c.sharePool
	}
	for t := 0; t < threads; t++ {
		go func() {
			arena := secretshare.NewArenaWithPool(pool)
			for job := range jobs {
				data, retried, err := e.decodeSecret(job, arena)
				if err != nil {
					select {
					case errCh <- fmt.Errorf("secret %d: %w", job.seq, err):
					default:
					}
					cancel()
					return
				}
				d := decodedSecret{pos: job.pos, seq: job.seq, secretSize: job.secretSize, data: data, retried: retried}
				if e.rebuilder != nil {
					d.fp = metadata.FingerprintOf(data)
				}
				if !ring.put(d) {
					return // pipeline unwinding; result abandoned
				}
			}
		}()
	}

	// In-order writer (this goroutine): walk the ring in sequence,
	// deliver, recycle. A failed take means a fetcher or worker aborted
	// the pipeline after parking its error — which is therefore already
	// waiting in errCh.
	for next := uint64(0); next < e.count; next++ {
		d, ok := ring.take(next)
		if !ok {
			return <-errCh
		}
		if d.retried {
			e.subsetRetries.Add(1)
		}
		if err := sink(d); err != nil {
			return err
		}
		e.secrets++
		if e.rebuilder != nil {
			e.written += int64(d.secretSize) // the sink owns the share
			continue
		}
		e.written += int64(len(d.data))
		e.secretPool.Put(d.data)
	}
	return nil
}

// shareRef names one share of one secret's assignment: which cloud
// serves it, under which fingerprint, and its recipe size.
type shareRef struct {
	cloud int
	cc    *cloudConn
	fp    metadata.Fingerprint
	size  int
}

// windowAssignment picks, for each position of [start, end), the k
// (cloud, fingerprint) pairs the decode will use: the primary clouds by
// default, substituting a spare cloud's share wherever a primary's
// fingerprint sits in a blacklisted container. When no healthy
// substitute remains the suspect share is kept — the decode falls back
// to the brute-force retry, exactly the pre-escalation behavior.
func (e *restoreEngine) windowAssignment(start, end uint64) [][]shareRef {
	e.mu.Lock()
	primary := append([]cloudRecipe(nil), e.primary...)
	spares := append([]cloudRecipe(nil), e.spares...)
	e.mu.Unlock()

	rows := make([][]shareRef, 0, end-start)
	for pos := start; pos < end; pos++ {
		seq := e.seqAt(pos)
		row := make([]shareRef, 0, len(primary))
		for _, cr := range primary {
			ent := &cr.recipe.Entries[seq]
			if e.isSuspect(cr.cloud, ent.ShareFP) {
				substituted := false
				for _, sp := range spares {
					sent := &sp.recipe.Entries[seq]
					if e.isSuspect(sp.cloud, sent.ShareFP) {
						continue
					}
					taken := false
					for _, r := range row {
						if r.cloud == sp.cloud {
							taken = true
							break
						}
					}
					if taken {
						continue
					}
					row = append(row, shareRef{cloud: sp.cloud, cc: sp.cc, fp: sent.ShareFP, size: int(sent.ShareSize)})
					e.suspectSkips.Add(1)
					substituted = true
					break
				}
				if substituted {
					continue
				}
			}
			row = append(row, shareRef{cloud: cr.cloud, cc: cr.cc, fp: ent.ShareFP, size: int(ent.ShareSize)})
		}
		rows = append(rows, row)
	}
	return rows
}

// fetchWindow downloads the distinct shares the window's assignment
// needs for positions [start, end), in parallel across clouds,
// consulting the cross-window share cache first. On a cloud failure it
// promotes a spare into failed primary slots (dropping failed spares
// outright) and retries with a fresh assignment — the mid-restore
// failover path — before giving up. The returned map resolves every
// fingerprint the returned assignment references.
func (e *restoreEngine) fetchWindow(start, end uint64) (map[metadata.Fingerprint][]byte, [][]shareRef, error) {
	var gotMu sync.Mutex
	got := make(map[metadata.Fingerprint][]byte, (end-start)*uint64(e.c.opts.K)/2)
	for {
		rows := e.windowAssignment(start, end)

		// Bucket the assignment's references per serving cloud.
		perCloud := make(map[int][]shareRef)
		conns := make(map[int]*cloudConn)
		for _, row := range rows {
			for _, ref := range row {
				perCloud[ref.cloud] = append(perCloud[ref.cloud], ref)
				conns[ref.cloud] = ref.cc
			}
		}

		type cloudErr struct {
			cloud int
			err   error
		}
		var wg sync.WaitGroup
		failCh := make(chan cloudErr, len(perCloud))
		for cloud, refs := range perCloud {
			wg.Add(1)
			go func(cloud int, cc *cloudConn, refs []shareRef) {
				defer wg.Done()
				if err := e.fetchRefs(cc, refs, &gotMu, got); err != nil {
					failCh <- cloudErr{cloud: cloud, err: err}
				}
			}(cloud, conns[cloud], refs)
		}
		wg.Wait()
		close(failCh)

		failed := make(map[int]error)
		for fe := range failCh {
			failed[fe.cloud] = fe.err
		}
		if len(failed) == 0 {
			return got, rows, nil
		}
		// Drop failed spares; promote spares into failed primary slots.
		// Without enough spares the window — and the restore — fails.
		e.mu.Lock()
		live := e.spares[:0]
		for _, sp := range e.spares {
			if _, bad := failed[sp.cloud]; !bad {
				live = append(live, sp)
			}
		}
		e.spares = live
		for slot, pr := range e.primary {
			err, bad := failed[pr.cloud]
			if !bad {
				continue
			}
			if len(e.spares) == 0 {
				e.mu.Unlock()
				return nil, nil, fmt.Errorf("cloud %d: %w (no spare cloud left to fail over to)",
					pr.cloud, err)
			}
			e.primary[slot] = e.spares[0]
			e.spares = e.spares[1:]
			e.failovers.Add(1)
		}
		e.mu.Unlock()
	}
}

// fetchRefs resolves one cloud's share references for the window: cache
// hits are reused (and counted), the rest are downloaded in batches and
// inserted into both the window map and the cache.
func (e *restoreEngine) fetchRefs(
	cc *cloudConn,
	refs []shareRef,
	gotMu *sync.Mutex,
	got map[metadata.Fingerprint][]byte,
) error {
	var need []metadata.Fingerprint
	var needSize []int // recipe share sizes, for byte-bounded batches
	gotMu.Lock()
	for _, ref := range refs {
		fp := ref.fp
		if _, ok := got[fp]; ok {
			continue
		}
		if v, ok := e.shareCache.Get(string(fp[:])); ok {
			data := v.([]byte)
			got[fp] = data
			e.cacheHitBytes.Add(int64(len(data)))
			continue
		}
		got[fp] = nil // reserve so duplicates within the window fetch once
		need = append(need, fp)
		needSize = append(needSize, ref.size)
	}
	gotMu.Unlock()

	for lo := 0; lo < len(need); {
		// Bound each GetShares call by reply bytes (protocol.BatchBytes,
		// mirroring the upload side) as well as count: a count-only cap
		// would blow protocol.MaxMessage on large chunk sizes.
		hi, batchBytes := lo, 0
		for hi < len(need) && hi-lo < defaultRestoreWindow {
			if hi > lo && batchBytes+needSize[hi] > protocol.BatchBytes {
				break
			}
			batchBytes += needSize[hi]
			hi++
		}
		downloads, err := fetchByFingerprint(cc, need[lo:hi])
		if err != nil {
			// Un-reserve this cloud's outstanding fingerprints so the
			// failover retry (possibly via another cloud's identical
			// share) fetches them.
			gotMu.Lock()
			for _, fp := range need[lo:] {
				if got[fp] == nil {
					delete(got, fp)
				}
			}
			gotMu.Unlock()
			return err
		}
		gotMu.Lock()
		for i := range downloads {
			data := downloads[i].Data
			got[downloads[i].Fingerprint] = data
			e.downloadedBytes.Add(int64(len(data)))
			e.shareCache.AddCharged(string(downloads[i].Fingerprint[:]), data, int64(len(data)))
		}
		gotMu.Unlock()
		lo = hi
	}
	return nil
}

// containerQueryBatch bounds one MsgGetShareContainers request (32 bytes
// per fingerprint, so 4096 fps is a 128KB payload).
const containerQueryBatch = 4096

// escalate hash-verifies a failed decode's in-hand shares against their
// recipe fingerprints and escalates every mismatch to container
// granularity (satellite of §3.2: one detected bad share condemns its
// whole container for the rest of the restore).
func (e *restoreEngine) escalate(job decodeJob) {
	for _, cr := range e.clouds() {
		data, ok := job.shares[cr.cloud]
		if !ok {
			continue
		}
		fp := cr.recipe.Entries[job.seq].ShareFP
		if metadata.FingerprintOf(data) == fp {
			continue
		}
		e.blacklistContainerOf(cr, fp)
	}
}

// blacklistContainerOf blacklists the container holding fp on cr's cloud
// and marks every share the restore's recipe draws from that container
// as suspect, in one batched container-map query — so replacements for
// all of them are fetched from healthy clouds at window granularity
// instead of one brute-force retry per secret.
func (e *restoreEngine) blacklistContainerOf(cr cloudRecipe, fp metadata.Fingerprint) {
	e.markSuspect(cr.cloud, fp)
	e.shareCache.Remove(string(fp[:]))
	names, err := fetchShareContainers(cr.cc, []metadata.Fingerprint{fp})
	if err != nil || names[0] == "" {
		// Server can't map the share (old protocol, or already
		// quarantined): per-fingerprint suspicion is all we get.
		return
	}
	cname := names[0]
	e.suspectMu.Lock()
	if e.blacklist == nil {
		e.blacklist = make(map[int]map[string]bool)
	}
	if e.blacklist[cr.cloud] == nil {
		e.blacklist[cr.cloud] = make(map[string]bool)
	}
	if e.blacklist[cr.cloud][cname] {
		e.suspectMu.Unlock()
		return
	}
	e.blacklist[cr.cloud][cname] = true
	e.suspectMu.Unlock()
	e.containerBlacklists.Add(1)

	distinct := make([]metadata.Fingerprint, 0, len(cr.recipe.Entries))
	seen := make(map[metadata.Fingerprint]bool, len(cr.recipe.Entries))
	for i := range cr.recipe.Entries {
		f := cr.recipe.Entries[i].ShareFP
		if !seen[f] {
			seen[f] = true
			distinct = append(distinct, f)
		}
	}
	for lo := 0; lo < len(distinct); lo += containerQueryBatch {
		hi := lo + containerQueryBatch
		if hi > len(distinct) {
			hi = len(distinct)
		}
		names, err := fetchShareContainers(cr.cc, distinct[lo:hi])
		if err != nil {
			return // best-effort: the per-secret retry still covers us
		}
		for i, n := range names {
			if n != cname {
				continue
			}
			e.markSuspect(cr.cloud, distinct[lo+i])
			e.shareCache.Remove(string(distinct[lo+i][:]))
		}
	}
}

// fetchShareContainers maps share fingerprints to the containers holding
// them on one cloud ("" = unknown there).
func fetchShareContainers(cc *cloudConn, fps []metadata.Fingerprint) ([]string, error) {
	reply, err := cc.call(protocol.MsgGetShareContainers, protocol.EncodeFingerprints(fps), protocol.MsgShareContainers)
	if err != nil {
		return nil, err
	}
	names, err := protocol.DecodeContainerNames(reply)
	if err != nil {
		return nil, err
	}
	if len(names) != len(fps) {
		return nil, fmt.Errorf("client: got %d container names, want %d", len(names), len(fps))
	}
	return names, nil
}

// fetchByFingerprint downloads the given share fingerprints from one
// cloud, validating the reply echoes them in order.
func fetchByFingerprint(cc *cloudConn, fps []metadata.Fingerprint) ([]protocol.ShareDownload, error) {
	reply, err := cc.call(protocol.MsgGetShares, protocol.EncodeFingerprints(fps), protocol.MsgShares)
	if err != nil {
		return nil, err
	}
	downloads, err := protocol.DecodeShares(reply)
	if err != nil {
		return nil, err
	}
	if len(downloads) != len(fps) {
		return nil, fmt.Errorf("client: got %d shares, want %d", len(downloads), len(fps))
	}
	for i := range downloads {
		if downloads[i].Fingerprint != fps[i] {
			return nil, fmt.Errorf("client: share %d fingerprint mismatch in reply", i)
		}
	}
	return downloads, nil
}

// fetchShares downloads the shares for secrets [start, end) of one cloud
// per its recipe, returning them in sequence order (per-secret helper
// for the brute-force retry).
func fetchShares(cc *cloudConn, recipe *metadata.Recipe, start, end uint64) ([][]byte, error) {
	fps := make([]metadata.Fingerprint, 0, end-start)
	for s := start; s < end; s++ {
		fps = append(fps, recipe.Entries[s].ShareFP)
	}
	downloads, err := fetchByFingerprint(cc, fps)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(downloads))
	for i := range downloads {
		out[i] = downloads[i].Data
	}
	return out, nil
}

// decodeShares is one decode attempt over a share map through the
// worker's arena: the secret, or in rebuild mode share rebuildIdx of it —
// returned only if the same integrity checks pass.
func (e *restoreEngine) decodeShares(shares map[int][]byte, secretSize int, arena *secretshare.Arena) ([]byte, error) {
	if e.rebuilder != nil {
		return e.rebuilder.RebuildInto(shares, secretSize, e.rebuildIdx, arena)
	}
	return secretshare.CombineWithArena(e.c.scheme, shares, secretSize, arena)
}

// decodeSecret decodes one job through the worker's arena; on an
// integrity failure it falls back to the §3.2 brute-force k-subset retry
// (a cold path that fetches this secret's share from every remaining
// cloud). Rebuild mode takes the same path, so a share is only ever
// rebuilt from a subset that verified.
func (e *restoreEngine) decodeSecret(job decodeJob, arena *secretshare.Arena) ([]byte, bool, error) {
	secret, err := e.decodeShares(job.shares, job.secretSize, arena)
	if err == nil {
		return secret, false, nil
	}
	if !errors.Is(err, secretshare.ErrCorrupt) {
		return nil, false, err
	}
	// Escalate first: recipe fingerprints make each in-hand share
	// independently verifiable, so the offending cloud — and the whole
	// container that served the bad bytes — can be blacklisted before the
	// per-secret brute force runs.
	e.escalate(job)
	// Brute force: refetch this secret's share from EVERY reachable cloud
	// — including those already in hand, whose copy may be a transiently
	// corrupted download pinned in the cross-window cache — falling back
	// to the in-hand bytes when a refetch fails, then try all k-subsets
	// until one decodes cleanly. The suspect fingerprints are evicted
	// from the share cache so later secrets referencing them re-download
	// clean bytes instead of re-entering this path with the same data.
	all := make(map[int][]byte, e.c.opts.N)
	for cloud, data := range job.shares {
		all[cloud] = data
	}
	for _, cr := range e.clouds() {
		fp := cr.recipe.Entries[job.seq].ShareFP
		e.shareCache.Remove(string(fp[:]))
		got, ferr := fetchShares(cr.cc, cr.recipe, job.seq, job.seq+1)
		if ferr != nil || len(got) != 1 {
			continue
		}
		all[cr.cloud] = got[0]
		e.downloadedBytes.Add(int64(len(got[0])))
	}
	clouds := make([]int, 0, len(all))
	for cloud := range all {
		clouds = append(clouds, cloud)
	}
	k := e.c.opts.K
	subset := make([]int, k)
	var try func(from, depth int) []byte
	try = func(from, depth int) []byte {
		if depth == k {
			sub := make(map[int][]byte, k)
			for _, ci := range subset[:depth] {
				sub[ci] = all[ci]
			}
			if s, cerr := e.decodeShares(sub, job.secretSize, arena); cerr == nil {
				return s
			}
			return nil
		}
		for i := from; i < len(clouds); i++ {
			subset[depth] = clouds[i]
			if s := try(i+1, depth+1); s != nil {
				return s
			}
		}
		return nil
	}
	if s := try(0, 0); s != nil {
		return s, true, nil
	}
	return nil, true, fmt.Errorf("all %d-subsets of %d shares failed integrity checks", k, len(all))
}
