package client

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"cdstore/internal/chunker"
	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/secretshare"
)

// BackupStats reports what one backup moved and saved.
type BackupStats struct {
	// LogicalBytes is the original file size.
	LogicalBytes int64
	// Secrets is the number of chunks produced.
	Secrets int64
	// LogicalShareBytes is the total size of all n shares before any
	// deduplication (the "logical shares" of §5.4).
	LogicalShareBytes int64
	// TransferredShareBytes is what was actually sent after intra-user
	// deduplication (the "transferred shares" of §5.4).
	TransferredShareBytes int64
	// SharesSent counts shares transferred across all clouds.
	SharesSent int64
	// SharesSkipped counts shares suppressed by intra-user dedup.
	SharesSkipped int64
}

// IntraUserSaving returns 1 - transferred/logical (§5.4 metric).
func (s *BackupStats) IntraUserSaving() float64 {
	if s.LogicalShareBytes == 0 {
		return 0
	}
	return 1 - float64(s.TransferredShareBytes)/float64(s.LogicalShareBytes)
}

// backupCounters is the hot-path form of BackupStats: plain atomics, so
// encode workers and uploaders never serialize on a stats mutex.
type backupCounters struct {
	logicalBytes          atomic.Int64
	secrets               atomic.Int64
	logicalShareBytes     atomic.Int64
	transferredShareBytes atomic.Int64
	sharesSent            atomic.Int64
	sharesSkipped         atomic.Int64
}

func (bc *backupCounters) snapshot() *BackupStats {
	return &BackupStats{
		LogicalBytes:          bc.logicalBytes.Load(),
		Secrets:               bc.secrets.Load(),
		LogicalShareBytes:     bc.logicalShareBytes.Load(),
		TransferredShareBytes: bc.transferredShareBytes.Load(),
		SharesSent:            bc.sharesSent.Load(),
		SharesSkipped:         bc.sharesSkipped.Load(),
	}
}

// secretJob is one chunk heading into the encode pool.
type secretJob struct {
	seq  uint64
	data []byte
}

// shareItem is one encoded share heading to one cloud's uploader. data is
// a pool-owned buffer; whoever consumes the item recycles it into the
// client's share pool once the bytes are no longer needed.
type shareItem struct {
	seq        uint64
	fp         metadata.Fingerprint
	data       []byte
	secretSize uint32
}

// ChunkSource yields successive secrets for a backup; it returns io.EOF
// after the final chunk. Chunking normally happens inside Backup via
// Rabin fingerprinting, but trace-driven workloads whose chunk boundaries
// are fixed by the trace (§5.5: "Each chunk is treated as a secret") use
// BackupStream with their own source.
type ChunkSource interface {
	NextChunk() ([]byte, error)
}

// chunkerSource adapts any chunker.Chunker to ChunkSource.
type chunkerSource struct{ ck chunker.Chunker }

func (r chunkerSource) NextChunk() ([]byte, error) {
	c, err := r.ck.Next()
	if err != nil {
		return nil, err
	}
	return c.Data, nil
}

// Backup chunks r with variable-size content-defined chunking (§4.2's
// Rabin, or FastCDC via Options.Chunking; fixed-size chunks go through
// BackupStream with a chunker.Fixed source), encodes every secret
// with the convergent scheme, runs two-stage deduplication's client half
// (intra-user dedup queries), and uploads unique shares plus per-cloud
// recipes. path names the backup for later Restore calls. Backup
// requires every cloud connection to be up: share i must land on cloud i
// for deduplication to work (§3.2), so a missing cloud cannot simply be
// skipped.
func (c *Client) Backup(path string, r io.Reader) (*BackupStats, error) {
	if c.opts.Chunking == "fastcdc" {
		return c.BackupStream(path, chunkerSource{ck: chunker.NewFastCDC(r)})
	}
	return c.BackupStream(path, chunkerSource{ck: chunker.NewRabin(r)})
}

// BackupStream is Backup with caller-controlled chunking.
//
// Pipeline shape (§4.6 plus the zero-allocation rework): the chunk
// producer feeds a pool of encode workers; each worker owns a reusable
// scratch arena and draws share buffers from the client's share pool, so
// steady state allocates nothing per secret beyond the AES key schedule.
// Shares fan out to one uploader per cloud, which recycles each buffer
// into the pool once its query/upload round has flushed. Stats are plain
// atomics — no mutex on the hot path.
//
// Error discipline: a failing encode worker keeps draining its jobs
// channel (so the producer can never block against a dead pool), the
// producer stops chunking as soon as any worker OR uploader has failed
// (a dead cloud must not cost a full-source encode), and the error
// surfaced to the caller is deterministic — the encode failure with the
// lowest secret sequence wins, then upload failures by cloud index.
func (c *Client) BackupStream(path string, source ChunkSource) (*BackupStats, error) {
	// A recipe, and a share, travels as one message, inside a mux frame
	// when a gateway relays it: the backup stops before a secret that would
	// take any cloud's recipe past protocol.MaxMessage less the mux header,
	// or whose shares exceed protocol.MaxShareBytes.
	maxSecrets := uint64(math.MaxUint64)
	for i, cc := range c.conns {
		if cc == nil {
			return nil, fmt.Errorf("client: cloud %d unavailable; backup requires all %d clouds", i, c.opts.N)
		}
		cloudPath, err := c.pathForCloud(i, path)
		if err != nil {
			return nil, err
		}
		maxSecrets = min(maxSecrets, uint64(metadata.MaxRecipeEntries(len(cloudPath), protocol.MaxMessage-protocol.MuxHeaderSize)))
	}
	version, err := c.nextVersion()
	if err != nil {
		return nil, err
	}
	counters := &backupCounters{}

	jobs := make(chan secretJob, 4*c.opts.EncodeThreads)
	perCloud := make([]chan shareItem, c.opts.N)
	for i := range perCloud {
		perCloud[i] = make(chan shareItem, 256)
	}

	// First-error bookkeeping (cold path, so a mutex is fine here):
	// encode failures keep the lowest secret sequence; stopProducing is
	// closed by the first failure anywhere — encode worker or uploader —
	// so the producer stops chunking once the backup is doomed.
	var failMu sync.Mutex
	var encodeErr error
	var encodeErrSeq uint64
	var stopOnce sync.Once
	stopProducing := make(chan struct{})
	stop := func() { stopOnce.Do(func() { close(stopProducing) }) }
	fail := func(seq uint64, err error) {
		failMu.Lock()
		if encodeErr == nil || seq < encodeErrSeq {
			encodeErr, encodeErrSeq = err, seq
		}
		failMu.Unlock()
		stop()
	}

	// Encoding worker pool (§4.6: parallelize at the secret level). Each
	// worker reuses one arena and one fingerprint buffer across secrets.
	var encodeWG sync.WaitGroup
	for w := 0; w < c.opts.EncodeThreads; w++ {
		encodeWG.Add(1)
		go func() {
			defer encodeWG.Done()
			arena := secretshare.NewArenaWithPool(&c.sharePool)
			var fps []metadata.Fingerprint
			for job := range jobs {
				shares, err := c.codec.SplitInto(job.data, arena)
				if err != nil {
					// Record and KEEP DRAINING: a worker that returns here
					// would strand the producer on jobs<- once every worker
					// is gone (the EncodeThreads=1 hang this replaces).
					fail(job.seq, fmt.Errorf("encode secret %d: %w", job.seq, err))
					continue
				}
				if cap(fps) < len(shares) {
					fps = make([]metadata.Fingerprint, len(shares))
				}
				fps = fps[:len(shares)]
				var logical int64
				for i := range shares {
					fps[i] = metadata.FingerprintOf(shares[i])
					logical += int64(len(shares[i]))
				}
				counters.logicalShareBytes.Add(logical)
				for i := range shares {
					perCloud[i] <- shareItem{
						seq:        job.seq,
						fp:         fps[i],
						data:       shares[i],
						secretSize: uint32(len(job.data)),
					}
				}
			}
		}()
	}

	// One uploader per cloud (§4.6: one thread per cloud).
	uploads := make([]*uploader, c.opts.N)
	var uploadWG sync.WaitGroup
	for i := range uploads {
		up := c.newUploader(c.conns[i], counters)
		uploads[i] = up
		uploadWG.Add(1)
		go func(shares <-chan shareItem) {
			defer uploadWG.Done()
			for item := range shares {
				if up.add(item) != nil {
					stop()
				}
			}
			up.flush()
		}(perCloud[i])
	}

	// Pull secrets from the chunk source, stopping early once any encode
	// worker or uploader has failed.
	var seq uint64
	var chunkErr error
produce:
	for {
		data, err := source.NextChunk()
		if err == io.EOF {
			break
		}
		if err == nil && seq == maxSecrets {
			err = fmt.Errorf("client: %q has more than %d secrets, and its recipe would exceed protocol.MaxMessage (%d bytes)", path, maxSecrets, protocol.MaxMessage)
		}
		if share := c.codec.ShareSize(len(data)); err == nil && share > protocol.MaxShareBytes {
			err = fmt.Errorf("client: secret %d of %q is %d bytes, and its %d-byte shares would exceed protocol.MaxShareBytes (%d bytes)", seq, path, len(data), share, protocol.MaxShareBytes)
		}
		if err != nil {
			chunkErr = err
			break
		}
		counters.logicalBytes.Add(int64(len(data)))
		counters.secrets.Add(1)
		select {
		case jobs <- secretJob{seq: seq, data: data}:
		case <-stopProducing:
			break produce
		}
		seq++
	}
	close(jobs)
	encodeWG.Wait()
	for i := range perCloud {
		close(perCloud[i])
	}
	uploadWG.Wait()
	if chunkErr != nil {
		return nil, chunkErr
	}
	failMu.Lock()
	firstEncodeErr := encodeErr
	failMu.Unlock()
	if firstEncodeErr != nil {
		return nil, firstEncodeErr
	}
	for i, up := range uploads {
		if up.err != nil {
			return nil, fmt.Errorf("cloud %d upload: %w", i, up.err)
		}
	}
	stats := counters.snapshot()

	// Build and upload the per-cloud recipes (the recipe at cloud i lists
	// the fingerprints of the shares stored at cloud i). The path each
	// cloud sees may be an opaque dispersed encoding (§4.3). Every recipe
	// carries this backup's one version. The n clouds settle their recipes
	// concurrently; the lowest failing cloud index decides the error, as
	// when they ran in turn.
	numSecrets := seq
	recipeErrs := make([]error, c.opts.N)
	var recipeWG sync.WaitGroup
	for i := 0; i < c.opts.N; i++ {
		recipeWG.Add(1)
		go func(i int) {
			defer recipeWG.Done()
			recipeErrs[i] = c.putRecipe(i, path, version, uint64(stats.LogicalBytes), numSecrets, uploads[i])
		}(i)
	}
	recipeWG.Wait()
	for _, err := range recipeErrs {
		if err != nil {
			return nil, err
		}
	}
	return stats, nil
}

// putRecipe builds cloud i's recipe of version for path from the entries
// its uploader recorded and stores it there.
func (c *Client) putRecipe(i int, path string, version metadata.Version, fileSize, numSecrets uint64, up *uploader) error {
	cloudPath, err := c.pathForCloud(i, path)
	if err != nil {
		return err
	}
	// Every secret sends each cloud exactly one share, so as many
	// recorded entries as there are secrets, none beyond the last
	// sequence number, means none is missing.
	if up.recorded != numSecrets || uint64(len(up.entries)) != numSecrets {
		return fmt.Errorf("client: cloud %d has recipe entries for %d of %d secrets", i, up.recorded, numSecrets)
	}
	recipe := &metadata.Recipe{
		FileMeta: metadata.FileMeta{Path: cloudPath, FileSize: fileSize, NumSecrets: numSecrets},
		Version:  version,
		Entries:  up.entries,
	}
	if _, err := up.cc.call(protocol.MsgPutRecipe, recipe.Marshal(), protocol.MsgPutOK); err != nil {
		return fmt.Errorf("cloud %d recipe: %w", i, err)
	}
	return nil
}

// uploader puts one cloud's side of a file on it: backup runs one per
// cloud, Repair one for its target. It records the recipe entry of every
// share, drops shares already seen this session, and batches the rest,
// cut by protocol.CutBatch, into query/upload rounds. A share's buffer is
// recycled into the client's share pool as soon as its round is over (or
// at once for a share already seen this session). After a failed round
// the uploader keeps taking shares — the encode workers must never block
// on a dead cloud — but only to recycle their buffers.
type uploader struct {
	cc       *cloudConn
	pool     *secretshare.SharePool
	counters *backupCounters
	err      error // the first failed round

	entries  []metadata.RecipeEntry // by secret sequence
	recorded uint64
	// seen tracks fingerprints already handled this session, so a share
	// repeated within one file is sent at most once.
	seen map[metadata.Fingerprint]bool

	// The batch under construction, and its round's uploads (reused).
	fps     []metadata.Fingerprint
	pending []protocol.ShareUpload
	bytes   int
	uploads []protocol.ShareUpload
}

// newUploader makes an uploader to cc over the client's share pool.
func (c *Client) newUploader(cc *cloudConn, counters *backupCounters) *uploader {
	return &uploader{cc: cc, pool: &c.sharePool, counters: counters, seen: make(map[metadata.Fingerprint]bool)}
}

// record sets secret seq's recipe entry.
func (u *uploader) record(seq uint64, entry metadata.RecipeEntry) {
	for uint64(len(u.entries)) <= seq {
		u.entries = append(u.entries, metadata.RecipeEntry{})
	}
	u.entries[seq] = entry
	u.recorded++
}

// add records one share and batches it: the batch runs its round first if
// the share would overflow it, and at once if the share filled it. add
// returns the first failed round's error.
func (u *uploader) add(item shareItem) error {
	u.record(item.seq, metadata.RecipeEntry{
		ShareFP:    item.fp,
		ShareSize:  uint32(len(item.data)),
		SecretSize: item.secretSize,
	})
	if u.seen[item.fp] {
		u.counters.sharesSkipped.Add(1)
		u.pool.Put(item.data)
		return nil
	}
	u.seen[item.fp] = true
	if protocol.CutBatch(len(u.pending), u.bytes, len(item.data)) {
		u.flush()
	}
	u.fps = append(u.fps, item.fp)
	u.pending = append(u.pending, protocol.ShareUpload{SecretSeq: item.seq, SecretSize: item.secretSize, Data: item.data})
	u.bytes += len(item.data)
	if protocol.CutBatch(len(u.pending), u.bytes, 1) {
		u.flush()
	}
	return u.err
}

// flush runs the batch's round, unless an earlier one failed, and
// recycles the batch.
func (u *uploader) flush() error {
	if u.err == nil && len(u.pending) > 0 {
		u.err = u.round()
	}
	u.recycle()
	return u.err
}

// recycle returns the batch's buffers to the pool unsent.
func (u *uploader) recycle() {
	for i := range u.pending {
		u.pool.Put(u.pending[i].Data)
	}
	u.fps, u.pending, u.bytes = u.fps[:0], u.pending[:0], 0
}

// round runs one query/upload round: ask the server which pending
// fingerprints this user already holds there, then upload only the rest
// (§3.3 intra-user deduplication), streamed from the pooled share
// buffers. A share of the user's whose bytes a scrub pass quarantined is
// not held, so it is uploaded again.
func (u *uploader) round() error {
	owned, err := u.cc.owned(u.fps)
	if err != nil {
		return err
	}
	u.uploads = u.uploads[:0]
	var sentBytes int64
	for i := range u.pending {
		if !owned[i] {
			u.uploads = append(u.uploads, u.pending[i])
			sentBytes += int64(len(u.pending[i].Data))
		}
	}
	if len(u.uploads) > 0 {
		if err := u.cc.putShares(u.uploads); err != nil {
			return err
		}
	}
	u.counters.sharesSent.Add(int64(len(u.uploads)))
	u.counters.sharesSkipped.Add(int64(len(u.pending) - len(u.uploads)))
	u.counters.transferredShareBytes.Add(sentBytes)
	return nil
}
