package client

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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

// cloudRecipe pairs one available cloud connection with its per-cloud
// recipe for the file being read.
type cloudRecipe struct {
	cloud  int
	cc     *cloudConn
	recipe *metadata.Recipe
}

// resultSink consumes decode results in strict sequence order. In
// restore mode d.data is the secret, the engine's again as soon as the
// sink returns (implementations must not retain it); in rebuild mode it
// is the rebuilt share, and the sink owns it from then on.
type resultSink func(d decodedSecret) error

// restoreEngine is the streaming read path shared by Restore and Repair
// (the decode mirror of BackupStream's pipeline):
//
//	fetcher ──jobs──▸ decode workers ──reorder ring──▸ in-order writer ──▸ sink
//
// One fetcher goroutine walks the recipe in windows, downloading each
// window's shares from the k primary clouds in parallel and prefetching
// window N+1 while the decode workers drain window N. Decode workers run
// CombineInto through per-worker arenas — the zero-allocation decode of
// the scheme layer — falling back to the §3.2 brute-force k-subset
// retry on integrity failures. A single writer reorders results and
// streams secrets to the sink in sequence order. Decoded bytes in flight
// are O(window), not O(file), beside the session memo's fixed budget; a
// restore's plan adds 40 bytes per position and 48 per distinct row to the
// recipes already held (40 bytes per position per cloud).
//
// A restore fetches and decodes each distinct row (rowKey) once per
// session, not once per reference. Before the first window it keys every
// position of the file and counts how many positions read each row; the
// memo entries the file will read are pinned by those counts. The
// fetcher then plans every window by row: a row the session memo of
// verified secrets holds (Client.secrets), or one an earlier position of
// this file reads, goes straight to the reorder ring as a placeholder —
// nothing is fetched or decoded for it — and the writer fills it in from
// the memo, releasing one pin, and donates every secret it has decoded,
// pinned by the uses the file has left for it. Planning runs ahead of
// writing, which is why a repeat is recognised from the file's plan
// rather than from the memo: its first occurrence is still in the
// pipeline, and is certain to be written, and donated, before the writer
// reaches the repeat. A placeholder whose entry is gone by then — the
// donation found the memo full of pinned entries, or the row was never
// pinned — is fetched, verified and decoded on the spot like any other
// secret, so correctness never depends on what the memo still holds.
// Row keys name the clouds read from: after a failover the restore gives
// back its pins, keys the positions not yet planned afresh, and finishes
// the file unpinned.
//
// In rebuild mode (Repair's engine, made with a target cloud) the workers
// do not hand the secret on: they call the scheme's RebuildInto — the
// same decode and integrity checks, then one Reed-Solomon row over the
// verified package — and fingerprint the rebuilt share, so everything
// per-byte runs on the parallel stage and the in-order sink only books
// results.
//
// Fault handling: if a primary cloud fails mid-stream and spare clouds
// remain (more than k reachable), the fetcher promotes a spare and
// retries the window's missing fetches instead of failing the restore.
type restoreEngine struct {
	c          *Client
	numSecrets uint64
	fileSize   uint64
	// sizes is one cloud's recipe entries, to read per-secret sizes from
	// (they agree across clouds).
	sizes       []metadata.RecipeEntry
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

	// target switches the decode workers to rebuild mode: each result is
	// share target of the secret, drawn from the client's share pool,
	// instead of the secret itself. noTarget restores. held is the
	// target's own recipe for the file, nil when it has none that agrees
	// with the others: what the repair plan asks the target to confirm.
	target int
	held   *metadata.Recipe

	// rows is a restore's plan of its file, one per position: the fetcher
	// plans windows from it, the writer books each position it writes
	// against its row. A rebuild has none: its plan has already restricted
	// the engine to distinct rows.
	rows []posRow

	// Hot-path counters (snapshotted into RestoreStats afterwards).
	downloadedBytes     atomic.Int64
	cacheHitBytes       atomic.Int64
	subsetRetries       atomic.Int64
	failovers           atomic.Int64
	containerBlacklists atomic.Int64
	suspectSkips        atomic.Int64
	// Writer-goroutine only.
	written       int64
	secrets       int64
	secretsReused int64
	memoRefetches int64
}

// newRestoreEngine fetches the per-cloud recipes for path from every
// available cloud — one round trip, the clouds asked concurrently — and
// validates they agree. At least k clouds other than target must hold the
// file. The clouds that do are kept in cloud-index order, so which become
// primaries and which spares does not depend on reply timing. The target
// of a repair (noTarget for a restore) is asked in the same round trip
// but never read from: its recipe becomes e.held unless it is missing,
// unparseable, or disagrees with the others on NumSecrets or FileSize.
func (c *Client) newRestoreEngine(path string, target int) (*restoreEngine, error) {
	paths := make([]string, len(c.conns))
	for i, cc := range c.conns {
		if cc == nil {
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
		if cc == nil {
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
	var held *metadata.Recipe
	if target != noTarget {
		held, recipes[target] = recipes[target], nil
	}
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
	if held != nil && (held.NumSecrets != numSecrets || held.FileSize != fileSize) {
		held = nil
	}
	return &restoreEngine{
		c:           c,
		numSecrets:  numSecrets,
		count:       numSecrets,
		fileSize:    fileSize,
		sizes:       avail[0].recipe.Entries,
		window:      c.opts.RestoreWindow,
		windowBytes: restoreWindowBytes,
		primary:     avail[:c.opts.K],
		spares:      avail[c.opts.K:],
		target:      target,
		held:        held,
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
// maps cloud index -> share bytes; the byte slices are views into the
// clouds' reply frames, may be shared between jobs (deduplicated fetches)
// and must be treated read-only.
type decodeJob struct {
	pos        uint64 // pipeline position (ordering key)
	seq        uint64 // secret sequence number (recipe key)
	key        rowKey // restore mode only
	secretSize int
	shares     map[int][]byte
}

// decodedSecret is one decode result heading to the in-order writer.
// data is the secret, drawn from the client's secret pool — or, in
// rebuild mode, the rebuilt share from the client's share pool, with its
// fingerprint in fp. secretSize is the recipe's size of the secret either
// way. A placeholder (restore mode only) carries no data: the writer
// reads the secret of row key out of the session memo.
type decodedSecret struct {
	pos         uint64
	seq         uint64
	key         rowKey // restore mode only
	secretSize  int
	data        []byte
	fp          metadata.Fingerprint // rebuild mode only
	retried     bool
	placeholder bool
}

// stats assembles the public RestoreStats from the engine counters.
func (e *restoreEngine) stats() *RestoreStats {
	return &RestoreStats{
		Bytes:                 e.written,
		Secrets:               e.secrets,
		DownloadedBytes:       e.downloadedBytes.Load(),
		CacheHitBytes:         e.cacheHitBytes.Load(),
		SecretsReused:         e.secretsReused,
		MemoRefetches:         e.memoRefetches,
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
	acc := uint64(0)
	for pos := start; pos < end; pos++ {
		sz := uint64(e.sizes[e.seqAt(pos)].SecretSize)
		if pos > start && acc+sz > uint64(e.windowBytes) {
			return pos
		}
		acc += sz
	}
	return end
}

// posRow is a restore's plan of one position: its row, the row's index
// among the distinct rows planFile returned, and whether an earlier
// position of the file reads the same row. (An int32 index suffices: a
// recipe of 2^31 entries would be 80 GiB per cloud.)
type posRow struct {
	key    rowKey
	row    int32
	repeat bool
}

// planFile keys the positions [from, count) over the clouds the engine
// reads from now and returns their distinct rows, each with the number of
// positions that read it. The hashing, one SHA-256 per position and most
// of the plan's cost, is split over one goroutine per decode worker: the
// workers have nothing to do until the first window.
func (e *restoreEngine) planFile(from uint64) []rowUse {
	keyer := e.rowKeyer(noTarget)
	threads := uint64(e.c.opts.EncodeThreads)
	span := (e.count - from + threads - 1) / threads
	var wg sync.WaitGroup
	for lo := from; lo < e.count; lo += span {
		wg.Add(1)
		go func(rk rowKeyer, lo, hi uint64) {
			defer wg.Done()
			rk.buf = make([]byte, 0, cap(rk.buf)) // the copy's own
			for pos := lo; pos < hi; pos++ {
				e.rows[pos].key = rk.at(e.seqAt(pos))
			}
		}(*keyer, lo, min(lo+span, e.count))
	}
	wg.Wait()
	index := make(map[rowKey]int32, e.count-from) // sized once: no rehash mid-plan
	var uses []rowUse
	for pos := from; pos < e.count; pos++ {
		r := &e.rows[pos]
		i, repeat := index[r.key]
		if !repeat {
			i = int32(len(uses))
			index[r.key] = i
			uses = append(uses, rowUse{key: r.key})
		}
		uses[i].left++
		r.row, r.repeat = i, repeat
	}
	return uses
}

// keyAt returns the row key of a position; zero in rebuild mode.
func (e *restoreEngine) keyAt(pos uint64) rowKey {
	if e.rows == nil {
		return rowKey{}
	}
	return e.rows[pos].key
}

// planWindow appends to fetch the positions of [start, end) to fetch and
// decode; every other one gets a placeholder. A placeholder goes out for a
// row the session memo holds — touched, so that an unpinned entry is still
// there when the writer comes for it — and for a row an earlier position
// reads. A rebuild fetches every position.
func (e *restoreEngine) planWindow(fetch []uint64, start, end uint64) []uint64 {
	for pos := start; pos < end; pos++ {
		if e.rows != nil {
			r := &e.rows[pos]
			if held := e.c.secrets.touch(r.key); held || r.repeat {
				continue
			}
		}
		fetch = append(fetch, pos)
	}
	return fetch
}

// jobOf assembles the decode job of one position from its row of the
// window's assignment and the shares fetched for the window.
func (e *restoreEngine) jobOf(pos uint64, key rowKey, row []shareRef, got map[metadata.Fingerprint][]byte) (decodeJob, error) {
	seq := e.seqAt(pos)
	shares := make(map[int][]byte, len(row))
	for _, ref := range row {
		data, ok := got[ref.fp]
		if !ok {
			// Unreachable: fetchWindow resolved every fingerprint of the
			// window's assignment.
			return decodeJob{}, fmt.Errorf("client: share for secret %d missing after fetch", seq)
		}
		shares[ref.cloud] = data
	}
	return decodeJob{
		pos:        pos,
		seq:        seq,
		key:        key,
		secretSize: int(e.sizes[seq].SecretSize),
		shares:     shares,
	}, nil
}

// refetch decodes the secret of a placeholder whose memo entry was
// evicted between plan and write: one secret's fetch, verification and
// decode, with the subset retry and the failover every other secret has.
func (e *restoreEngine) refetch(d decodedSecret, arena *secretshare.Arena) ([]byte, bool, error) {
	got, rows, err := e.fetchWindow([]uint64{d.pos})
	if err != nil {
		return nil, false, err
	}
	job, err := e.jobOf(d.pos, d.key, rows[0], got)
	if err != nil {
		return nil, false, err
	}
	return e.decodeSecret(job, arena)
}

// run streams every secret of the file through the pipeline into sink,
// in order. It returns after the last secret has been delivered (or the
// first error has unwound the pipeline).
func (e *restoreEngine) run(sink resultSink) error {
	if e.count == 0 {
		return nil
	}
	// A restore plans its whole file first and pins what the memo holds of
	// it. uses is the writer's from here on: the uses of each row still to
	// be written and the pins held for them, nil once given back.
	memo := e.c.secrets
	var uses []rowUse
	if e.target == noTarget {
		e.rows = make([]posRow, e.count)
		uses = e.planFile(0)
		memo.pinFile(uses)
		defer func() { memo.release(uses) }() // every exit, success or error
	}
	threads := e.c.opts.EncodeThreads
	jobs := make(chan decodeJob, e.window)
	// The decode workers' lead over the writer is bounded by the jobs
	// channel (one window) plus one in-flight job per worker, and one spare
	// slot keeps a lapping producer from ever blocking on the writer's
	// current slot. Placeholders stretch the positions that lead spans; a
	// producer past the ring's lap waits for the writer, the fetcher
	// included, and the job the writer waits for is never behind one.
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
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
		cancel()
	}

	// Fetcher: walks the recipe in windows, prefetching ahead of decode.
	// The jobs channel's capacity (one window) is the pipeline depth: the
	// fetcher runs at most one window of decodes ahead of the slowest
	// decoder. Positions go out in ascending order, jobs to the workers and
	// placeholders straight to the ring. A failover — here or in the
	// writer's refetch — changes the clouds row keys name, so the positions
	// not yet planned are keyed again.
	go func() {
		defer close(jobs)
		var fetch []uint64  // ascending
		keyedAt := int64(0) // e.failovers when the unplanned positions were keyed
		for start := uint64(0); start < e.count; {
			if f := e.failovers.Load(); e.rows != nil && f != keyedAt {
				keyedAt = f
				e.planFile(start)
			}
			end := e.windowEnd(start)
			fetch = e.planWindow(fetch[:0], start, end)
			got, rows, err := e.fetchWindow(fetch)
			if err != nil {
				fail(err)
				return
			}
			next := 0 // index into fetch and rows
			for pos := start; pos < end; pos++ {
				if next == len(fetch) || fetch[next] != pos {
					seq := e.seqAt(pos)
					d := decodedSecret{
						pos: pos, seq: seq, key: e.keyAt(pos), placeholder: true,
						secretSize: int(e.sizes[seq].SecretSize),
					}
					if !ring.put(d) {
						return
					}
					continue
				}
				job, err := e.jobOf(pos, e.keyAt(pos), rows[next], got)
				if err != nil {
					fail(err)
					return
				}
				next++
				select {
				case jobs <- job:
				case <-done:
					return
				}
			}
			start = end
		}
	}()

	// Decode workers: per-worker arenas over the client's secret pool — in
	// rebuild mode over its share pool, where rebuilt shares are drawn and
	// the repair sink returns them after each flush.
	pool := &e.c.secretPool
	if e.target != noTarget {
		pool = &e.c.sharePool
	}
	for t := 0; t < threads; t++ {
		go func() {
			arena := secretshare.NewArenaWithPool(pool)
			for job := range jobs {
				data, retried, err := e.decodeSecret(job, arena)
				if err != nil {
					fail(fmt.Errorf("secret %d: %w", job.seq, err))
					return
				}
				d := decodedSecret{pos: job.pos, seq: job.seq, key: job.key, secretSize: job.secretSize, data: data, retried: retried}
				if e.target != noTarget {
					d.fp = metadata.FingerprintOf(data)
				}
				if !ring.put(d) {
					return // pipeline unwinding; result abandoned
				}
			}
		}()
	}

	// In-order writer (this goroutine): walk the ring in sequence and
	// deliver. A failed take means a fetcher or worker aborted the pipeline
	// after parking its error — which is therefore already waiting in
	// errCh.
	var copied []byte                   // the memo's copy of a placeholder's secret
	var refetchArena *secretshare.Arena // made by the first refetch
	for next := uint64(0); next < e.count; next++ {
		d, ok := ring.take(next)
		if !ok {
			return <-errCh
		}
		if uses != nil && e.failovers.Load() != 0 {
			// The rows ahead are keyed anew: finish the file unpinned.
			memo.release(uses)
			uses = nil
		}
		var u *rowUse // this position's row, while the restore holds pins
		if uses != nil {
			// The fetcher re-keys only positions it has not planned yet, and
			// only after a failover.
			u = &uses[e.rows[next].row]
			u.left--
		}
		if d.placeholder {
			if copied, ok = memo.appendTo(copied[:0], d.key, u != nil && u.pinned); ok {
				d.data = copied
				e.secretsReused++
				e.cacheHitBytes.Add(int64(e.c.opts.K) * int64(e.sizes[d.seq].ShareSize))
			} else {
				if refetchArena == nil {
					refetchArena = secretshare.NewArenaWithPool(pool)
				}
				var err error
				if d.data, d.retried, err = e.refetch(d, refetchArena); err != nil {
					return fmt.Errorf("secret %d: %w", d.seq, err)
				}
				d.placeholder = false
				e.memoRefetches++
			}
		}
		if d.retried {
			e.subsetRetries.Add(1)
		}
		if err := sink(d); err != nil {
			return err
		}
		e.secrets++
		if e.target != noTarget {
			e.written += int64(d.secretSize) // the sink owns the share
			continue
		}
		e.written += int64(len(d.data))
		if !d.placeholder {
			pins := 0
			if u != nil {
				pins = u.left
			}
			if memo.donate(d.key, d.data, pins) {
				u.pinned = true // donate pins only when asked to
			}
		}
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

// windowAssignment picks, for each of the given positions, the k
// (cloud, fingerprint) pairs the decode will use: the primary clouds by
// default, substituting a spare cloud's share wherever a primary's
// fingerprint sits in a blacklisted container. When no healthy
// substitute remains the suspect share is kept — the decode falls back
// to the brute-force retry, exactly the pre-escalation behavior.
func (e *restoreEngine) windowAssignment(positions []uint64) [][]shareRef {
	e.mu.Lock()
	primary := append([]cloudRecipe(nil), e.primary...)
	spares := append([]cloudRecipe(nil), e.spares...)
	e.mu.Unlock()

	rows := make([][]shareRef, 0, len(positions))
	for _, pos := range positions {
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

// fetchWindow downloads the distinct shares the assignment of the given
// positions needs, in parallel across clouds. On a cloud failure it
// promotes a spare into failed primary slots (dropping failed spares
// outright) and retries with a fresh assignment — the mid-restore
// failover path — before giving up. The returned map resolves every
// fingerprint the returned assignment references, rows[i] being that of
// positions[i]. The writer's refetch may run it beside the fetcher's.
func (e *restoreEngine) fetchWindow(positions []uint64) (map[metadata.Fingerprint][]byte, [][]shareRef, error) {
	var gotMu sync.Mutex
	got := make(map[metadata.Fingerprint][]byte, len(positions)*e.c.opts.K)
	for {
		rows := e.windowAssignment(positions)

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

// fetchRefs resolves one cloud's share references for the window,
// downloading in batches each fingerprint the window map does not hold
// yet. The map's values are views into the reply frames.
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
// worker's arena: the secret, or in rebuild mode share target of it —
// returned only if the same integrity checks pass.
func (e *restoreEngine) decodeShares(shares map[int][]byte, secretSize int, arena *secretshare.Arena) ([]byte, error) {
	if e.target != noTarget {
		return e.c.scheme.RebuildInto(shares, secretSize, e.target, arena)
	}
	return e.c.scheme.CombineInto(shares, secretSize, arena)
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
	// corrupted download — falling back to the in-hand bytes when a
	// refetch fails, then try all k-subsets until one decodes cleanly.
	// Nothing downloaded outlives its window, so a later secret
	// referencing these fingerprints downloads them afresh.
	all := make(map[int][]byte, e.c.opts.N)
	for cloud, data := range job.shares {
		all[cloud] = data
	}
	for _, cr := range e.clouds() {
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
