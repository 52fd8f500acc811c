package client

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/secretshare"
)

// defaultRestoreWindow is the number of fetched secrets per pipeline
// window of the streaming restore engine (and per fetch round trip):
// window N+1 is prefetched while the decode workers drain window N, and
// memory held by a restore/repair is O(window), never O(file). A window
// spans as many skipped positions as lie among its fetched secrets:
// placeholders hold no data. Individual GetShares
// calls are cut by protocol.CutBatch, on the recipe's share sizes, so
// replies stay under protocol.MaxMessage whatever the chunk size.
const defaultRestoreWindow = 512

// restoreWindowBytes closes a restore window once the secrets it fetches
// reach this many decoded bytes (always admitting at least one), so a file of
// large chunks cannot pin defaultRestoreWindow * chunkSize bytes in
// flight: the pipeline's memory ceiling is independent of chunk size
// skew. It is four times what a default window of 16 KB secrets covers.
const restoreWindowBytes = 32 << 20

// cloudRecipe pairs one available cloud connection with its per-cloud
// recipe for the file being read.
type cloudRecipe struct {
	cloud  int
	cc     *cloudConn
	recipe *metadata.Recipe
}

// resultSink consumes decode results in strict sequence order, one for
// every position of the file. In restore mode d.data is the secret, the
// engine's again as soon as the sink returns (implementations must not
// retain it); in rebuild mode it is the rebuilt share, and the sink owns
// it from then on, or nil for a placeholder: a row the target holds, or
// one an earlier position rebuilds.
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
// the codec — and on an integrity failure recover the secret's verified
// shares and run the §3.2 brute-force search over their k-subsets
// (recoverShares). A single writer reorders results and
// streams secrets to the sink in sequence order. Decoded bytes in flight
// are O(window), not O(file), beside the session memo's fixed budget; the
// plan adds 40 bytes per position to the recipes already held (40 bytes
// per position per cloud), and per distinct row 48 for a restore's uses
// or 40 for a repair's entries.
//
// Both operations read each distinct row (rowKey) at most once, from one
// plan of the file: before the run, Restore or Repair keys every position
// and counts how many positions read each row (planFile). The engine
// walks every position; each is fetched or skipped, and a skipped one
// goes straight to the reorder ring as a placeholder — nothing is fetched
// or decoded for it. Only why a row is skipped differs. A repair skips a
// row an earlier position reads, and one its target confirmed it holds
// (both settled before the run); the writer hands its placeholders
// straight to the sink, which records the row's entry.
//
// A restore pins the memo entries its file will read by those counts. The
// fetcher then plans every window by row: a row the session memo of
// verified secrets holds (Client.memo), or one an earlier position of
// this file reads, gets a placeholder, and the writer fills it in from
// the memo, releasing one pin, and donates every secret it has decoded,
// pinned by the uses the file has left for it. Planning runs ahead of
// writing, which is why a repeat is recognised from the file's plan
// rather than from the memo: its first occurrence is still in the
// pipeline, and is certain to be written, and donated, before the writer
// reaches the repeat. A placeholder whose entry is gone by then — the
// donation found the memo full of pinned entries, or the row was never
// pinned — is fetched, verified and decoded on the spot like any other
// secret, so correctness never depends on what the memo still holds.
// A cloud dropped or demoted mid-run keeps its place in the row keys (see
// rowKeyer): the plan and its pins hold to the end of the run.
//
// In rebuild mode (Repair's engine, made with a target cloud) the workers
// do not decode the secret: they check each of the k shares against its
// recipe fingerprint, compute share target with one Reed-Solomon row over
// them (rebuildShare) and fingerprint the rebuilt share, so everything
// per-byte runs on the parallel stage and the in-order sink only books
// results.
//
// Fault handling: there is one way to stop reading from a primary, a
// spare promoted into its slot (promote), and one recovery of a secret
// whose shares failed, a restore's decode or a rebuild's fingerprint
// check (recoverShares). A primary whose fetch fails is dropped for the
// rest of the restore and the window's fetches retried, while spares
// remain (more than k reachable). The recovery keeps the in-hand shares
// that match their recipe fingerprints, refetches the secret's share from
// every other reachable cloud, keeping those that match, and demotes each
// primary whose share did not: it becomes the last spare, still asked by
// later recoveries, once a spare that has not itself been demoted can
// take its slot. A restore then searches the k-subsets of the verified
// shares, a rebuild takes any k of them. The recipes are what is trusted
// here; nothing the cloud says about its own layout is asked.
type restoreEngine struct {
	c          *Client
	numSecrets uint64
	fileSize   uint64
	// sizes is one cloud's recipe entries, to read per-secret sizes from
	// (they agree across clouds).
	sizes       []metadata.RecipeEntry
	window      int
	windowBytes int // restoreWindowBytes; a field so tests can tighten it

	// mu guards primary/spares/demoted: the fetcher and the decode workers
	// reshuffle them while workers snapshot them for subset retries.
	mu      sync.Mutex
	primary []cloudRecipe // the k clouds windows are fetched from
	spares  []cloudRecipe // remaining reachable clouds, demoted ones last
	demoted []int         // clouds demoted for serving a bad share
	lagging int           // clouds holding another version, never read

	// version is the backup the clouds read from hold (their recipes'
	// Version), which a repair writes into the target's recipe.
	version metadata.Version

	// target switches the decode workers to rebuild mode: each result is
	// share target of the secret, drawn from the client's share pool,
	// instead of the secret itself. noTarget restores. held is the
	// target's own recipe for the file, nil when it has none of the
	// version the others hold: what the repair plan asks the target to
	// confirm.
	target int
	held   *metadata.Recipe

	// rows is the plan of the file, one per position (planFile): the
	// fetcher plans windows from it, the writer books each position it
	// writes against its row.
	rows []posRow

	// frames recycles the run's reply frames (see frameList).
	frames frameList

	// Hot-path counters (snapshotted into RestoreStats afterwards).
	downloadedBytes atomic.Int64
	cacheHitBytes   atomic.Int64
	subsetRetries   atomic.Int64
	failovers       atomic.Int64
	// Writer-goroutine only.
	written       int64
	secrets       int64
	secretsReused int64
	memoRefetches int64
}

// newRestoreEngine fetches the per-cloud recipes for path from every
// available cloud — one round trip, the clouds asked concurrently — and
// reads from the clouds whose recipes agree (see agreeing). At least k
// clouds other than target must hold the file and agree on it. They are
// kept in cloud-index order, so which become primaries and which spares
// does not depend on reply timing. The target of a repair (noTarget for
// a restore) is asked in the same round trip but never read from: its
// recipe becomes e.held unless it is missing, unparseable, or of another
// version than the clouds read from.
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
	group, err := c.agreeing(path, avail)
	if err != nil {
		return nil, err
	}
	first := group[0].recipe
	if held != nil && !sameVersion(held, first) {
		held = nil
	}
	return &restoreEngine{
		c:           c,
		numSecrets:  first.NumSecrets,
		fileSize:    first.FileSize,
		sizes:       first.Entries,
		version:     first.Version,
		window:      c.restoreWindow,
		windowBytes: restoreWindowBytes,
		primary:     group[:c.opts.K],
		spares:      group[c.opts.K:],
		lagging:     len(avail) - len(group),
		target:      target,
		held:        held,
	}, nil
}

// agreeing returns the clouds in avail whose recipes are of the version
// (sameVersion) that at least k of them hold, in cloud-index order: the
// clouds that hold one backup. The others missed an overwrite's recipe
// and lag, whether or not the overwrite kept the file's shape. With
// n < 2k at most one version can reach k; two that do are an error naming
// both.
func (c *Client) agreeing(path string, avail []cloudRecipe) ([]cloudRecipe, error) {
	var group []cloudRecipe
	var clouds []int
	for _, cr := range avail {
		if group != nil && sameVersion(group[0].recipe, cr.recipe) {
			continue
		}
		var same []cloudRecipe
		var sameClouds []int
		for _, o := range avail {
			if sameVersion(cr.recipe, o.recipe) {
				same, sameClouds = append(same, o), append(sameClouds, o.cloud)
			}
		}
		if len(same) < c.opts.K {
			continue
		}
		if group != nil {
			return nil, fmt.Errorf("client: clouds %v and clouds %v hold different versions of %q", clouds, sameClouds, path)
		}
		group, clouds = same, sameClouds
	}
	if group == nil {
		return nil, fmt.Errorf("client: recipe disagreement between clouds for %q: no %d of them agree", path, c.opts.K)
	}
	return group, nil
}

// sameVersion reports whether two recipes were written by the same
// backup: the same Version, and still the same shape — the same size in
// the same sequence of secret sizes — so that indexing one by the other's
// entries stays safe whatever a cloud answers.
func sameVersion(a, b *metadata.Recipe) bool {
	return a.Version == b.Version && a.FileSize == b.FileSize &&
		slices.EqualFunc(a.Entries, b.Entries, func(x, y metadata.RecipeEntry) bool {
			return x.SecretSize == y.SecretSize
		})
}

// clouds snapshots every cloud the engine may read from (primary +
// spares), for the row keys and for recoverShares.
func (e *restoreEngine) clouds() []cloudRecipe {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]cloudRecipe, 0, len(e.primary)+len(e.spares))
	out = append(out, e.primary...)
	return append(out, e.spares...)
}

// decodeJob is one secret heading into the decode worker pool. shares
// maps cloud index -> share bytes; the byte slices are views into the
// reply frames of the job's window, may be shared between jobs
// (deduplicated fetches) and must be treated read-only. refs names, for
// each of them, the cloud that served it and the fingerprint its recipe
// holds. Once the job is decoded, done gives its map back and, with the
// window's last job, the window's frames.
type decodeJob struct {
	seq        uint64 // secret sequence number: recipe key and ordering key
	secretSize int
	shares     map[int][]byte
	refs       []shareRef
	win        *window
}

// shareMaps recycles the decode jobs' share maps.
var shareMaps = sync.Pool{New: func() any { return make(map[int][]byte) }}

// window is what one fetchWindow downloaded: every share the assignment
// rows name, by fingerprint, as a view into the reply frame it arrived
// in, and those frames. jobs counts the decode jobs still reading them;
// the last one done hands the frames back to the engine's list.
type window struct {
	mu     sync.Mutex // guards got and frames while the clouds' fetches fill them
	got    map[metadata.Fingerprint][]byte
	rows   [][]shareRef
	frames [][]byte
	jobs   atomic.Int32
}

// done releases what a decoded job held: its share map, and its window's
// frames if it was the window's last job. Nothing may read the job's
// shares afterwards.
func (e *restoreEngine) done(job decodeJob) {
	clear(job.shares)
	shareMaps.Put(job.shares)
	if job.win.jobs.Add(-1) == 0 {
		e.frames.put(job.win.frames...)
	}
}

// frameList recycles one run's GetShares reply frames. A frame is
// allocated by the read at the exact size of the reply it first carries
// (protocol.Conn.ReadMsgInto) and comes back once the jobs of its window
// are decoded; get hands out the smallest idle frame a reply fits in, so
// frames are reused without being grown with headroom, and a restore no
// longer allocates and zeroes a frame per reply. The frames go with the
// engine: a session holds none between runs.
type frameList struct {
	mu   sync.Mutex
	idle [][]byte
}

// maxIdleFrames bounds the frames a run keeps idle: at least what the
// pipeline holds in flight, one reply per primary cloud for each window
// between the fetcher and the writer.
const maxIdleFrames = 16

// get returns the smallest idle frame of at least size bytes' capacity,
// or nil, which the read allocates at the reply's size.
func (l *frameList) get(size int) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	best := -1
	for i, f := range l.idle {
		if cap(f) >= size && (best < 0 || cap(f) < cap(l.idle[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	f, last := l.idle[best], len(l.idle)-1
	l.idle[best], l.idle[last] = l.idle[last], nil
	l.idle = l.idle[:last]
	return f
}

// put takes frames back; nothing may read them afterwards. Beyond
// maxIdleFrames they are left to the garbage collector.
func (l *frameList) put(frames ...[]byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, f := range frames {
		if f != nil && len(l.idle) < maxIdleFrames {
			l.idle = append(l.idle, f)
		}
	}
}

// decodedSecret is one decode result heading to the in-order writer.
// data is the secret, drawn from the client's secret pool — or, in
// rebuild mode, the rebuilt share from the client's share pool, with its
// fingerprint in fp. secretSize is the recipe's size of the secret either
// way. A placeholder carries no data: in restore mode the writer reads
// the secret of its row out of the session memo.
type decodedSecret struct {
	seq         uint64
	secretSize  int
	data        []byte
	fp          metadata.Fingerprint // rebuild mode only
	retried     bool
	placeholder bool
}

// stats assembles the public RestoreStats from the engine counters.
func (e *restoreEngine) stats() *RestoreStats {
	return &RestoreStats{
		Bytes:           e.written,
		Secrets:         e.secrets,
		DownloadedBytes: e.downloadedBytes.Load(),
		CacheHitBytes:   e.cacheHitBytes.Load(),
		SecretsReused:   e.secretsReused,
		MemoRefetches:   e.memoRefetches,
		SubsetRetries:   e.subsetRetries.Load(),
		Failovers:       e.failovers.Load(),
		LaggingClouds:   int64(e.lagging),
	}
}

// posRow is the plan of one position: its row, the row's index among the
// distinct rows planFile returned, whether an earlier position of the
// file reads the same row, and — a repair's first position of a row only —
// whether the target confirmed it holds the row's share. (An int32 index
// suffices: a recipe of 2^31 entries would be 80 GiB per cloud.)
type posRow struct {
	key    rowKey
	row    int32
	repeat bool
	held   bool
}

// planFile makes the plan, once per engine and before the run: it keys
// every position over the clouds the engine reads from and returns the
// file's distinct rows, each with the number of positions that read it.
// The hashing, one SHA-256 per position and most of the plan's cost, is
// split over one goroutine per decode worker: the workers have nothing to
// do until the first window.
func (e *restoreEngine) planFile() []rowUse {
	e.rows = make([]posRow, e.numSecrets)
	keyer := e.rowKeyer()
	threads := uint64(e.c.opts.EncodeThreads)
	span := (e.numSecrets + threads - 1) / threads
	var wg sync.WaitGroup
	for lo := uint64(0); lo < e.numSecrets; lo += span {
		wg.Add(1)
		go func(rk rowKeyer, lo, hi uint64) {
			defer wg.Done()
			rk.buf = make([]byte, 0, cap(rk.buf)) // the copy's own
			for pos := lo; pos < hi; pos++ {
				e.rows[pos].key = rk.at(pos)
			}
		}(*keyer, lo, min(lo+span, e.numSecrets))
	}
	wg.Wait()
	index := make(map[rowKey]int32, e.numSecrets) // sized once: no rehash mid-plan
	var uses []rowUse
	for pos := range e.rows {
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

// planWindow plans the pipeline window starting at position start: it
// refills fetch with the positions to fetch and decode, and returns the
// window's exclusive end; every other position gets a placeholder. A
// position is skipped when an earlier position reads its row, when the
// target of a repair holds it, and in a restore when the session memo
// holds it — touched, so that an unpinned entry is still there when the
// writer comes for it. The window closes before a fetched secret that
// would make e.window of them, or take their bytes past e.windowBytes;
// skipped positions count toward neither. At least one fetched secret is
// always admitted, so a single secret larger than the budget forms a
// window of its own rather than stalling the pipeline, and a window of
// skipped positions alone runs to the end of the file.
func (e *restoreEngine) planWindow(fetch []uint64, start uint64) ([]uint64, uint64) {
	fetch, acc := fetch[:0], 0
	for pos := start; pos < e.numSecrets; pos++ {
		r := &e.rows[pos]
		if e.target == noTarget && e.c.memo.touch(r.key) || r.repeat || r.held {
			continue
		}
		sz := int(e.sizes[pos].SecretSize)
		if len(fetch) == e.window || len(fetch) > 0 && acc+sz > e.windowBytes {
			return fetch, pos
		}
		acc += sz
		fetch = append(fetch, pos)
	}
	return fetch, e.numSecrets
}

// jobOf assembles the decode job of position seq, the i-th the window
// fetched, from its row of the window's assignment and the window's shares.
func (e *restoreEngine) jobOf(seq uint64, i int, win *window) (decodeJob, error) {
	row := win.rows[i]
	shares := shareMaps.Get().(map[int][]byte)
	for _, ref := range row {
		data, ok := win.got[ref.fp]
		if !ok {
			// Unreachable: fetchWindow resolved every fingerprint of the
			// window's assignment.
			return decodeJob{}, fmt.Errorf("client: share for secret %d missing after fetch", seq)
		}
		shares[ref.cloud] = data
	}
	return decodeJob{
		seq:        seq,
		secretSize: int(e.sizes[seq].SecretSize),
		shares:     shares,
		refs:       row,
		win:        win,
	}, nil
}

// refetch decodes the secret of a placeholder whose memo entry was
// evicted between plan and write: one secret's fetch, verification and
// decode, with the recovery and the failover every other secret has.
func (e *restoreEngine) refetch(d decodedSecret, arena *secretshare.Arena) ([]byte, bool, error) {
	win, err := e.fetchWindow([]uint64{d.seq})
	if err != nil {
		return nil, false, err
	}
	job, err := e.jobOf(d.seq, 0, win)
	if err != nil {
		return nil, false, err
	}
	defer e.done(job)
	return e.decodeSecret(job, arena)
}

// run streams every position of the file through the pipeline into sink,
// in order, by the plan planFile made; uses are a restore's rows of it,
// which run pins in the session memo (a repair has none). It returns
// after the last position has been delivered (or the first error has
// unwound the pipeline).
func (e *restoreEngine) run(uses []rowUse, sink resultSink) error {
	if e.numSecrets == 0 {
		return nil
	}
	// uses is the writer's from here on: the uses of each row still to be
	// written and the pins held for them.
	memo := e.c.memo
	memo.pinFile(uses)
	defer memo.release(uses) // every exit, success or error
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

	// Fetcher: walks the file in windows, prefetching ahead of decode.
	// The jobs channel's capacity (one window) is the pipeline depth: the
	// fetcher runs at most one window of decodes ahead of the slowest
	// decoder. Positions go out in ascending order, jobs to the workers and
	// placeholders straight to the ring.
	go func() {
		defer close(jobs)
		var fetch []uint64 // ascending
		for start := uint64(0); start < e.numSecrets; {
			var end uint64
			fetch, end = e.planWindow(fetch, start)
			win, err := e.fetchWindow(fetch)
			if err != nil {
				fail(err)
				return
			}
			next := 0 // index into fetch and rows
			for seq := start; seq < end; seq++ {
				if next == len(fetch) || fetch[next] != seq {
					d := decodedSecret{seq: seq, secretSize: int(e.sizes[seq].SecretSize), placeholder: true}
					if !ring.put(d) {
						return
					}
					continue
				}
				job, err := e.jobOf(seq, next, win)
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
	// the repair's uploader returns them once their round is over.
	pool := &e.c.secretPool
	if e.target != noTarget {
		pool = &e.c.sharePool
	}
	for t := 0; t < threads; t++ {
		go func() {
			arena := secretshare.NewArenaWithPool(pool)
			for job := range jobs {
				data, retried, err := e.decodeSecret(job, arena)
				e.done(job)
				if err != nil {
					fail(fmt.Errorf("secret %d: %w", job.seq, err))
					return
				}
				d := decodedSecret{seq: job.seq, secretSize: job.secretSize, data: data, retried: retried}
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
	// errCh. A rebuild's placeholders go to the sink as they are.
	var copied []byte                   // the memo's copy of an unpinned placeholder's secret
	var refetchArena *secretshare.Arena // made by the first refetch
	for next := uint64(0); next < e.numSecrets; next++ {
		d, ok := ring.take(next)
		if !ok {
			return <-errCh
		}
		r := &e.rows[next]
		var u *rowUse // this position's row, in a restore
		if uses != nil {
			u = &uses[r.row]
			u.left--
		}
		// A placeholder whose entry carries this file's pins is written
		// from the entry in place, and its pin given back once the sink
		// has returned; one whose entry is unpinned is copied out, as an
		// eviction may recycle the buffer the moment the lock is released.
		var pin *memoEntry
		if d.placeholder && e.target == noTarget {
			if u != nil {
				pin = u.entry
			}
			hit := pin != nil
			if hit {
				d.data = pin.value
			} else {
				copied, hit = memo.appendTo(copied[:0], r.key)
				d.data = copied
			}
			if hit {
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
		err := sink(d)
		if pin != nil {
			memo.unpinOne(pin)
		}
		if err != nil {
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
			if entry := memo.donate(r.key, d.data, pins); entry != nil {
				u.entry = entry // donate pins only when asked to
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
// (cloud, fingerprint) pairs the decode will use: the primaries' entries.
func (e *restoreEngine) windowAssignment(positions []uint64) [][]shareRef {
	e.mu.Lock()
	primary := slices.Clone(e.primary)
	e.mu.Unlock()

	k := len(primary)
	refs := make([]shareRef, len(positions)*k) // one allocation for the window's rows
	rows := make([][]shareRef, len(positions))
	for i, seq := range positions {
		rows[i] = refs[i*k : (i+1)*k : (i+1)*k]
		for j, cr := range primary {
			ent := &cr.recipe.Entries[seq]
			rows[i][j] = shareRef{cloud: cr.cloud, cc: cr.cc, fp: ent.ShareFP, size: int(ent.ShareSize)}
		}
	}
	return rows
}

// promote moves the first spare into primary slot. With clean set only a
// spare that has not been demoted may move; demoted spares sit last, so
// the first spare is clean whenever any is. It reports false, moving
// nothing, when no spare qualifies. Every primary replaced mid-restore is
// counted here. Caller holds e.mu.
func (e *restoreEngine) promote(slot int, clean bool) bool {
	if len(e.spares) == 0 || clean && slices.Contains(e.demoted, e.spares[0].cloud) {
		return false
	}
	e.primary[slot], e.spares = e.spares[0], e.spares[1:]
	e.failovers.Add(1)
	return true
}

// demote stops fetching windows from a primary that served a share whose
// bytes fail its recipe fingerprint: a clean spare takes its slot and the
// cloud becomes the last spare, still asked by recoverShares. Without a
// clean spare nothing moves and each recovery checks what the cloud
// serves. Row keys and memo pins stay, as they do when a cloud is dropped.
func (e *restoreEngine) demote(cloud int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	slot := slices.IndexFunc(e.primary, func(cr cloudRecipe) bool { return cr.cloud == cloud })
	if slot < 0 {
		return // demoted or dropped already
	}
	if out := e.primary[slot]; e.promote(slot, true) {
		e.spares = append(e.spares, out)
		e.demoted = append(e.demoted, cloud)
	}
}

// fetchWindow downloads the distinct shares the assignment of the given
// positions needs, in parallel across clouds. On a cloud failure it drops
// the cloud, promotes a spare into its slot and retries with a fresh
// assignment — the mid-restore failover path — before giving up. The
// returned window resolves every fingerprint its assignment references,
// rows[i] being that of positions[i], and expects one job per position
// (see done). The writer's refetch may run it beside the fetcher's.
func (e *restoreEngine) fetchWindow(positions []uint64) (*window, error) {
	win := &window{got: make(map[metadata.Fingerprint][]byte, len(positions)*e.c.opts.K)}
	win.jobs.Store(int32(len(positions)))
	for {
		win.rows = e.windowAssignment(positions)

		// Bucket the assignment's references per serving cloud.
		perCloud := make(map[int][]shareRef)
		conns := make(map[int]*cloudConn)
		for _, row := range win.rows {
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
				if err := e.fetchRefs(cc, refs, win); err != nil {
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
			return win, nil
		}
		// Drop the failed clouds: a spare, demoted or not, takes each
		// failed primary's slot. Without one the window — and the restore —
		// fails. A cloud demoted since the assignment was made is a spare
		// by now and is dropped as one.
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
			if !e.promote(slot, false) {
				e.mu.Unlock()
				e.frames.put(win.frames...) // nothing reads them
				return nil, fmt.Errorf("cloud %d: %w (no spare cloud left to fail over to)",
					pr.cloud, err)
			}
		}
		e.mu.Unlock()
	}
}

// fetchRefs resolves one cloud's share references for the window,
// downloading in batches each fingerprint the window's map does not hold
// yet. Each batch's reply is read into a frame from the engine's list,
// picked by the reply's size as the recipe states it, and the map's
// values are views into those frames.
func (e *restoreEngine) fetchRefs(cc *cloudConn, refs []shareRef, win *window) error {
	var need []metadata.Fingerprint
	var needSize []int // recipe share sizes, for byte-bounded batches
	win.mu.Lock()
	for _, ref := range refs {
		fp := ref.fp
		if _, ok := win.got[fp]; ok {
			continue
		}
		win.got[fp] = nil // reserve so duplicates within the window fetch once
		need = append(need, fp)
		needSize = append(needSize, ref.size)
	}
	win.mu.Unlock()

	for lo := 0; lo < len(need); {
		hi, batchBytes := lo, 0
		for hi < len(need) && !protocol.CutBatch(hi-lo, batchBytes, needSize[hi]) {
			batchBytes += needSize[hi]
			hi++
		}
		frame := e.frames.get(4 + (hi-lo)*(metadata.FingerprintSize+4) + batchBytes)
		downloads, err := fetchByFingerprint(cc, need[lo:hi], &frame)
		if err != nil {
			e.frames.put(frame) // nothing reads it
			// Un-reserve this cloud's outstanding fingerprints so the
			// failover retry (possibly via another cloud's identical
			// share) fetches them.
			win.mu.Lock()
			for _, fp := range need[lo:] {
				if win.got[fp] == nil {
					delete(win.got, fp)
				}
			}
			win.mu.Unlock()
			return err
		}
		win.mu.Lock()
		win.frames = append(win.frames, frame)
		for i := range downloads {
			data := downloads[i].Data
			win.got[downloads[i].Fingerprint] = data
			e.downloadedBytes.Add(int64(len(data)))
		}
		win.mu.Unlock()
		lo = hi
	}
	return nil
}

// fetchByFingerprint downloads the given share fingerprints from one
// cloud into *frame, validating the reply echoes them in order. The
// shares' bytes are views of the frame.
func fetchByFingerprint(cc *cloudConn, fps []metadata.Fingerprint, frame *[]byte) ([]protocol.ShareDownload, error) {
	reply, err := cc.callInto(protocol.MsgGetShares, protocol.EncodeFingerprints(fps), protocol.MsgShares, frame)
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

// decodeSecret decodes one job through the worker's arena. On an
// integrity failure it recovers the secret's verified shares
// (recoverShares) and runs the §3.2 brute-force search over their
// k-subsets: one subset decodes when the in-hand shares that failed their
// fingerprints were all that was wrong; more are tried when a cloud holds
// a share that matches its recipe but belongs to another row. In rebuild
// mode it rebuilds the job's share instead (rebuildShare).
func (e *restoreEngine) decodeSecret(job decodeJob, arena *secretshare.Arena) ([]byte, bool, error) {
	if e.target != noTarget {
		return e.rebuildShare(job, arena)
	}
	secret, err := e.c.codec.CombineInto(job.shares, job.secretSize, arena)
	if err == nil {
		return secret, false, nil
	}
	if !errors.Is(err, secretshare.ErrCorrupt) {
		return nil, false, err
	}
	verified, err := e.recoverShares(job)
	if err != nil {
		return nil, true, err
	}
	clouds := make([]int, 0, len(verified))
	for cloud := range verified {
		clouds = append(clouds, cloud)
	}
	slices.Sort(clouds)
	k := e.c.opts.K
	sub := make(map[int][]byte, k)
	var try func(from int) []byte
	try = func(from int) []byte {
		if len(sub) == k {
			s, err := e.c.codec.CombineInto(sub, job.secretSize, arena)
			if err != nil {
				return nil
			}
			return s
		}
		for i := from; i < len(clouds); i++ {
			sub[clouds[i]] = verified[clouds[i]]
			if s := try(i + 1); s != nil {
				return s
			}
			delete(sub, clouds[i])
		}
		return nil
	}
	if s := try(0); s != nil {
		return s, true, nil
	}
	return nil, true, fmt.Errorf("all %d-subsets of %d verified shares failed integrity checks", k, len(verified))
}

// rebuildShare computes share e.target of one job's secret with one
// Reed-Solomon row (CAONTRS.RebuildInto) from k shares that hash to the
// fingerprints their clouds' recipes hold. That check, run before every
// row, is what makes the row sound without decoding the secret: the
// engine reads only clouds whose recipes carry one backup's version
// (agreeing), so k shares that match their recipes are k shares of the
// codeword that backup stored, and any row of it is the share the backup
// stored there (§3.1, §3.2). A row with a share that does not match is
// built from any k of the shares recoverShares verifies; with fewer the
// repair fails and nothing of the secret is sent.
func (e *restoreEngine) rebuildShare(job decodeJob, arena *secretshare.Arena) ([]byte, bool, error) {
	shares, retried := job.shares, false
	for _, ref := range job.refs {
		if metadata.FingerprintOf(job.shares[ref.cloud]) != ref.fp {
			var err error
			if shares, err = e.recoverShares(job); err != nil {
				return nil, true, err
			}
			retried = true
			break
		}
	}
	share, err := e.c.codec.RebuildInto(shares, job.secretSize, e.target, arena)
	return share, retried, err
}

// recoverShares is the one recovery of a secret whose shares failed a
// check, a restore's decode or a rebuild's fingerprints. It keeps each
// share in hand that hashes to its recipe fingerprint, demotes each cloud
// whose share does not, and fetches the secret's share again from every
// reachable cloud not yet verified, keeping only the shares that match.
// Bytes that fail their fingerprint are never worth a decode: a cloud
// serves a share by its fingerprint and re-fingerprints what it stores
// (§3.3), so they were never the stored share. Fewer than k verified
// shares fail the secret. Nothing downloaded outlives the job, so a later
// secret referencing these fingerprints downloads them afresh.
func (e *restoreEngine) recoverShares(job decodeJob) (map[int][]byte, error) {
	verified := make(map[int][]byte, e.c.opts.N)
	for _, ref := range job.refs {
		if data := job.shares[ref.cloud]; metadata.FingerprintOf(data) == ref.fp {
			verified[ref.cloud] = data
		} else {
			e.demote(ref.cloud)
		}
	}
	for _, cr := range e.clouds() {
		if _, ok := verified[cr.cloud]; ok {
			continue
		}
		fp := cr.recipe.Entries[job.seq].ShareFP
		got, err := fetchByFingerprint(cr.cc, []metadata.Fingerprint{fp}, new([]byte))
		if err != nil {
			continue
		}
		e.downloadedBytes.Add(int64(len(got[0].Data)))
		if metadata.FingerprintOf(got[0].Data) == fp {
			verified[cr.cloud] = got[0].Data
		}
	}
	if len(verified) < e.c.opts.K {
		return nil, fmt.Errorf("only %d shares match their recipe fingerprints: no %d-subsets of verified shares",
			len(verified), e.c.opts.K)
	}
	return verified, nil
}
