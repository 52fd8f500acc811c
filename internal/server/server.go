// Package server implements the CDStore server (Figure 4b): the per-cloud
// daemon that receives shares from CDStore clients, performs inter-user
// deduplication against its share index, packs globally unique shares
// into containers on the cloud storage backend, and serves restores.
//
// Security note (§3.3): the server never trusts a client-supplied
// fingerprint for storage decisions. It recomputes the SHA-256 of every
// received share ("inter-user deduplication ... generates a fingerprint
// from each share (instead of using the one generated by the CDStore
// client)"), which defeats the ownership-by-fingerprint side-channel
// attack.
//
// Maintenance (§4.7) is the server's own job too, and one pass does all
// of it (RunScrubPass, or the ScrubInterval loop): it re-verifies every
// persisted container against its CRC and its entries against their
// §3.3 fingerprints at a bounded I/O budget (storage.Limiter, the token
// bucket that also shapes the emulated links), quarantines damage (drop the
// bad bytes, keep the good ones, flag the affected share index entries),
// and reclaims what the index no longer places — the shares and recipes
// of deleted or replaced backups, §4.7's garbage collection — with the
// same container rewrite. A heal round (client.Client.Heal) re-disperses
// the damaged stripes through the client's streaming engine with zero
// end-user involvement. Detection therefore does not depend on a user
// asking for their data back (the §3.2 read-triggered subset retry); the
// model is cubeFS's BlobStore Scheduler-style background inspection and
// deletion tasks.
//
// Serve runs a session goroutine per accepted connection (§4.6) through
// protocol.Acceptor, the one accept loop the gateway serves through too:
// a full descriptor table is waited out, not fatal.
package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cdstore/internal/container"
	"cdstore/internal/index"
	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/storage"
)

// Config configures a Server.
type Config struct {
	// CloudIndex is this server's cloud label i in 0..n-1; clients send
	// share i of every secret here (§3.2 deterministic placement).
	CloudIndex int
	// N and K are the dispersal parameters the deployment uses; served to
	// clients at Hello time so misconfigured clients fail fast.
	N, K int
	// IndexDir is the directory for the lsmkv-backed indices.
	IndexDir string
	// Backend is the cloud storage backend for containers.
	Backend storage.Backend
	// ContainerCapacity caps container size (default 4MB).
	ContainerCapacity int
	// ScrubInterval enables the background scrub pass — integrity check,
	// quarantine and the reclaim of deleted backups: the idle time between
	// full container-store passes. 0 leaves the loop off (passes can still
	// be driven via MsgScrubControl or RunScrubPass).
	ScrubInterval time.Duration
	// ScrubBudgetBytesPerSec caps the scrub pass's backend read bandwidth
	// so scans never crowd out client traffic; <= 0 means unthrottled.
	ScrubBudgetBytesPerSec int64
}

// Stats are cumulative counters exposed for the evaluation harness.
type Stats struct {
	// SharesReceived counts shares arriving after intra-user dedup.
	SharesReceived uint64
	// SharesStored counts shares that survived inter-user dedup.
	SharesStored uint64
	// BytesReceived counts share payload bytes received.
	BytesReceived uint64
	// BytesStored counts share payload bytes physically stored.
	BytesStored uint64
	// IntraQueries counts fingerprints queried for intra-user dedup.
	IntraQueries uint64
	// IntraHits counts queries answered "already owned".
	IntraHits uint64
	// SharesServed counts shares sent to restoring clients; with a
	// dedup-aware client each distinct fingerprint of a recipe is served
	// once, however many times the recipe references it.
	SharesServed uint64
	// BytesServed counts share payload bytes sent to restoring clients —
	// the per-byte egress the paper's cost analysis bills.
	BytesServed uint64

	// The maintenance pass's lifetime counters. They are the cloud's, so
	// no reply carries them (a reply depends only on the asker); an
	// operator reads them on the debug listener's /debug/vars.
	ScrubPasses       uint64
	ContainersScanned uint64
	BytesScanned      uint64
	EntriesVerified   uint64
	DamagedContainers uint64
	DamagedEntries    uint64
	QuarantinedShares uint64
	LostRecipes       uint64
	// RepairedShares counts damaged index entries healed by a fresh
	// upload of their bytes (index.Index.RepairedShares).
	RepairedShares uint64
}

// maxInflightBytes bounds the total put/get payload bytes admitted into
// handlers across all sessions (the flow-control budget; grants are FIFO,
// so sessions take round-robin turns at batch granularity): 32 full
// upload batches' worth of payload.
const maxInflightBytes = 32 * protocol.BatchBytes

// Server is one per-cloud CDStore server.
type Server struct {
	cfg   Config
	ix    *index.Index
	store *container.Store

	// ioTimeout bounds every client connection (protocol.Conn.Bound): a
	// peer that stalls inside a message, or never reads a reply, is
	// dropped, and the flow-limiter bytes its request holds are released.
	// protocol.IOTimeout; a field so tests can shorten it.
	ioTimeout time.Duration

	// hashers is the shared fingerprint-verification pool (§3.3
	// re-hashing fans across it), one worker per GOMAXPROCS.
	hashers *hashPool
	// flow is the in-flight byte admission limiter.
	flow *flowLimiter
	// scrubMu serializes maintenance passes; scrubBudget meters their
	// backend reads (nil = unthrottled).
	scrubMu     sync.Mutex
	scrubBudget *storage.Limiter

	// gcMu excludes container rewrites from the handlers that must not
	// interleave with one: uploads (a share appended but not yet committed
	// looks like garbage), recipe settlement and deletion (they read the
	// recipe being replaced) and the scrub report hold the read side, and
	// so run concurrently with each other; the scrub pass takes the write
	// side while it rewrites or drops one container. Reads take the read
	// side only to retry a miss.
	gcMu sync.RWMutex

	stats struct {
		sharesReceived atomic.Uint64
		sharesStored   atomic.Uint64
		bytesReceived  atomic.Uint64
		bytesStored    atomic.Uint64
		intraQueries   atomic.Uint64
		intraHits      atomic.Uint64
		sharesServed   atomic.Uint64
		bytesServed    atomic.Uint64

		// The maintenance pass's lifetime counters.
		scrubPasses       atomic.Uint64
		containersScanned atomic.Uint64
		bytesScanned      atomic.Uint64
		entriesVerified   atomic.Uint64
		damagedContainers atomic.Uint64
		damagedEntries    atomic.Uint64
		quarantinedShares atomic.Uint64
		lostRecipes       atomic.Uint64
	}

	// acceptor runs Serve's session goroutines.
	acceptor protocol.Acceptor
	// mu guards the closing of done.
	mu sync.Mutex
	// wg counts the maintenance loop.
	wg sync.WaitGroup
	// done is closed by Close: it wakes the maintenance loop and stops
	// a running pass between two containers.
	done chan struct{}
}

// New opens a server over its index directory and storage backend.
func New(cfg Config) (*Server, error) {
	if cfg.K <= 0 || cfg.N <= cfg.K {
		return nil, fmt.Errorf("server: invalid (n,k)=(%d,%d)", cfg.N, cfg.K)
	}
	if cfg.CloudIndex < 0 || cfg.CloudIndex >= cfg.N {
		return nil, fmt.Errorf("server: cloud index %d out of range", cfg.CloudIndex)
	}
	if cfg.Backend == nil {
		return nil, errors.New("server: nil backend")
	}
	ix, err := index.Open(cfg.IndexDir)
	if err != nil {
		return nil, err
	}
	st, err := container.NewStore(cfg.Backend, &container.StoreOptions{Capacity: cfg.ContainerCapacity})
	if err != nil {
		ix.Close()
		return nil, err
	}
	s := &Server{
		cfg:         cfg,
		ix:          ix,
		store:       st,
		ioTimeout:   protocol.IOTimeout,
		hashers:     newHashPool(runtime.GOMAXPROCS(0)),
		flow:        newFlowLimiter(maxInflightBytes),
		scrubBudget: storage.NewLimiter(float64(cfg.ScrubBudgetBytesPerSec)),
		done:        make(chan struct{}),
	}
	if cfg.ScrubInterval > 0 {
		s.wg.Add(1)
		go s.scrubLoop()
	}
	return s, nil
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	return Stats{
		SharesReceived: s.stats.sharesReceived.Load(),
		SharesStored:   s.stats.sharesStored.Load(),
		BytesReceived:  s.stats.bytesReceived.Load(),
		BytesStored:    s.stats.bytesStored.Load(),
		IntraQueries:   s.stats.intraQueries.Load(),
		IntraHits:      s.stats.intraHits.Load(),
		SharesServed:   s.stats.sharesServed.Load(),
		BytesServed:    s.stats.bytesServed.Load(),

		ScrubPasses:       s.stats.scrubPasses.Load(),
		ContainersScanned: s.stats.containersScanned.Load(),
		BytesScanned:      s.stats.bytesScanned.Load(),
		EntriesVerified:   s.stats.entriesVerified.Load(),
		DamagedContainers: s.stats.damagedContainers.Load(),
		DamagedEntries:    s.stats.damagedEntries.Load(),
		QuarantinedShares: s.stats.quarantinedShares.Load(),
		LostRecipes:       s.stats.lostRecipes.Load(),
		RepairedShares:    s.ix.RepairedShares(),
	}
}

// CountShares returns the number of unique shares the server's dedup
// index holds (stats/test helper).
func (s *Server) CountShares() (int, error) { return s.ix.CountShares() }

// checkpoint is what a connection's Bye costs: open container buffers go
// to the backend and the index's two WAL buffers (shares, files) to the
// operating system, so all the session was acknowledged survives the
// process dying (reopening replays them). It builds no SSTable — Flush
// and Close do that, at most one per store.
func (s *Server) checkpoint() error {
	if err := s.store.Flush(); err != nil {
		return err
	}
	return s.ix.Sync()
}

// Flush persists open container buffers and index state.
func (s *Server) Flush() error {
	if err := s.store.Flush(); err != nil {
		return err
	}
	return s.ix.Flush()
}

// DropCaches empties the container read cache so subsequent reads hit
// the storage backend (cold-read experiments and corruption tests).
func (s *Server) DropCaches() { s.store.DropCache() }

// isClosed reports whether Close has begun.
func (s *Server) isClosed() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// Close shuts the server down and flushes: the listener and every
// active session connection are closed (a killed cloud does not wait
// for its clients), then in-flight session goroutines, the maintenance
// loop and any running pass drain before the index and store close.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.isClosed() {
		s.mu.Unlock()
		return nil
	}
	close(s.done)
	s.mu.Unlock()
	s.acceptor.Close()
	s.wg.Wait()
	// A pass run by a direct RunScrubPass caller stops at its next
	// container; wait for it before tearing down what it scans.
	s.scrubMu.Lock()
	s.scrubMu.Unlock()
	s.hashers.close()
	if err := s.Flush(); err != nil {
		s.ix.Close()
		return err
	}
	return s.ix.Close()
}

// Serve accepts connections from ln until Close. Each connection runs a
// session goroutine (the multi-threaded server communication module of
// §4.6); a full descriptor table is waited out (protocol.Acceptor).
func (s *Server) Serve(ln net.Listener) error {
	return s.acceptor.Serve(ln, s.ServeConn)
}

// ServeConn runs one client connection over a byte stream until MsgBye
// or EOF. Exported so tests and the in-process cluster can serve pipes.
// A connection carries either one legacy session (plain messages) or
// many multiplexed virtual sessions (MsgMuxData frames, one virtual
// session per stream id) — or any mix; the two address disjoint session
// state. A stream with deadlines (a net.Conn) is bounded by ioTimeout.
func (s *Server) ServeConn(rw io.ReadWriter) error {
	sc := &serverConn{srv: s, conn: protocol.NewConn(rw).Bound(s.ioTimeout)}
	return sc.run()
}

// serverConn demultiplexes one accepted connection into its sessions.
// Mux frames are processed INLINE in the read loop, in arrival order:
// per-stream FIFO comes for free, replies leave in request order (the
// reply-order invariant stated in internal/protocol/pipe.go, which every
// client and gateway pipe relies on), and a handler blocked on the flow
// limiter stops this connection's reads — TCP backpressure then pushes
// the byte budget upstream to whoever is aggregating sessions onto this
// connection.
type serverConn struct {
	srv    *Server
	conn   *protocol.Conn
	legacy *session            // plain-message session; lazily created
	mux    map[uint32]*session // virtual sessions by stream id
}

// session is one authenticated client session: a whole connection
// (legacy) or one virtual stream of a mux connection. Authentication
// (hello), flow-limiter accounting, and fingerprint batching are all
// keyed here — per virtual session, never per connection. The put/get
// scratch slices are reused across messages: they grow to the session's
// working set once and then every batch runs allocation-light. Frame
// buffers are NOT per-session — they come from the shared protocol pool
// per message, so idle sessions pin no batch-sized memory.
type session struct {
	srv    *Server
	sc     *serverConn
	userID uint64
	hello  bool
	// stream is the mux stream id replies are addressed to; muxed
	// distinguishes stream 0 from the legacy session.
	stream uint32
	muxed  bool

	// put-path scratch
	batch     []protocol.ShareUpload
	fps       []metadata.Fingerprint
	seen      map[metadata.Fingerprint]struct{}
	fresh     []container.Entry
	contested []container.Entry
	commitFPs []metadata.Fingerprint
	// get-path and query scratch: asked holds the fingerprints a request
	// names
	asked []metadata.Fingerprint
	locs  []index.ShareLocation
	out   []protocol.ShareDownload
}

// send writes one reply to this session's client, mux-framed for
// virtual sessions.
func (ss *session) send(typ byte, payload []byte) error {
	if ss.muxed {
		return ss.sc.sendMux(ss.stream, typ, payload)
	}
	return ss.sc.conn.WriteMsg(typ, payload)
}

// sendMux writes one reply to a virtual session.
func (sc *serverConn) sendMux(stream uint32, typ byte, payload []byte) error {
	return sc.conn.WriteMuxMsg(stream, typ, payload)
}

func (sc *serverConn) run() error {
	for {
		frame := protocol.GetFrame()
		typ, payload, err := sc.conn.ReadMsgInto(frame)
		if err != nil {
			protocol.PutFrame(frame)
			if err == io.EOF {
				return nil
			}
			return err
		}
		if typ == protocol.MsgBye {
			// Connection-level Bye: the whole transport (and every virtual
			// session on it) is done; checkpoint what it acknowledged.
			protocol.PutFrame(frame)
			return sc.srv.checkpoint()
		}
		if typ == protocol.MsgMuxData {
			err = sc.dispatchMux(payload)
		} else {
			err = sc.dispatchLegacy(typ, payload)
		}
		// The handler is done with the payload (container appends copy
		// share bytes), so the frame can serve the next session's read.
		protocol.PutFrame(frame)
		if err != nil {
			return err
		}
	}
}

// dispatchLegacy routes one plain message to the connection's single
// legacy session.
func (sc *serverConn) dispatchLegacy(typ byte, payload []byte) error {
	if sc.legacy == nil {
		sc.legacy = &session{srv: sc.srv, sc: sc}
	}
	return sc.legacy.serve(typ, payload)
}

// dispatchMux routes one mux frame to its virtual session, creating it
// on first use. An inner Bye retires the stream without flushing — the
// whole point of session multiplexing is that thousands of short
// logical sessions share one transport's lifecycle, so durability work
// happens per batch (WAL group commit) and at connection end, not per
// stream. Per-stream errors are reported on the stream and the
// connection continues serving its other sessions.
func (sc *serverConn) dispatchMux(payload []byte) error {
	stream, ityp, inner, err := protocol.DecodeMuxHeader(payload)
	if err != nil {
		// No stream to address the error to: the connection is broken.
		return err
	}
	ss, ok := sc.mux[stream]
	if !ok {
		if ityp == protocol.MsgBye {
			return nil // closing an unknown stream is idempotent
		}
		if len(sc.mux) >= protocol.MaxMuxStreams {
			return sc.sendMux(stream, protocol.MsgError,
				protocol.EncodeError(protocol.CodeBadRequest, "too many live streams on connection"))
		}
		if sc.mux == nil {
			sc.mux = make(map[uint32]*session)
		}
		ss = &session{srv: sc.srv, sc: sc, stream: stream, muxed: true}
		sc.mux[stream] = ss
	}
	if ityp == protocol.MsgBye {
		delete(sc.mux, stream)
		return nil
	}
	return ss.serve(ityp, inner)
}

// serve runs one message through the session's handler. A protocol-level
// failure (RemoteError) is reported to the session's client in-band and
// the connection continues; anything else is reported as CodeInternal
// and returned, which aborts the connection.
func (ss *session) serve(typ byte, payload []byte) error {
	err := ss.dispatch(typ, payload)
	if err == nil {
		return nil
	}
	var re *protocol.RemoteError
	if errors.As(err, &re) {
		return ss.send(protocol.MsgError, protocol.EncodeError(re.Code, re.Msg))
	}
	// The connection is going down with err; a failed send adds nothing.
	_ = ss.send(protocol.MsgError, protocol.EncodeError(protocol.CodeInternal, err.Error()))
	return err
}

func badRequest(format string, args ...interface{}) error {
	return &protocol.RemoteError{Code: protocol.CodeBadRequest, Msg: fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...interface{}) error {
	return &protocol.RemoteError{Code: protocol.CodeNotFound, Msg: fmt.Sprintf(format, args...)}
}

// inBand answers a failure of the store, not of the connection, in-band,
// so the connection — through a gateway, the upstream other users'
// sessions share — serves on.
func inBand(err error) error {
	return &protocol.RemoteError{Code: protocol.CodeInternal, Msg: err.Error()}
}

func (ss *session) dispatch(typ byte, payload []byte) error {
	if typ != protocol.MsgHello && !ss.hello {
		return badRequest("session not authenticated (missing Hello)")
	}
	switch typ {
	case protocol.MsgHello:
		uid, err := protocol.DecodeHello(payload)
		if err != nil {
			return badRequest("bad hello")
		}
		ss.userID = uid
		ss.hello = true
		return ss.send(protocol.MsgHelloOK,
			protocol.EncodeHelloOK(ss.srv.cfg.CloudIndex, ss.srv.cfg.N, ss.srv.cfg.K))
	case protocol.MsgQuery:
		return ss.handleQuery(payload)
	case protocol.MsgPutShares:
		return ss.handlePutShares(payload)
	case protocol.MsgPutRecipe:
		return ss.handlePutRecipe(payload)
	case protocol.MsgGetRecipe:
		return ss.handleGetRecipe(payload)
	case protocol.MsgGetShares:
		return ss.handleGetShares(payload)
	case protocol.MsgListFiles:
		return ss.handleListFiles()
	case protocol.MsgDeleteFile:
		return ss.handleDeleteFile(payload)
	case protocol.MsgScrubStatus:
		return ss.handleScrubStatus()
	case protocol.MsgScrubControl:
		return ss.handleScrubControl(payload)
	default:
		return badRequest("unknown message type %d", typ)
	}
}

// handleQuery answers the one ownership question (SharesOwnedBy): which
// of these fingerprints does THIS user hold here, bytes present? Backup
// asks it for intra-user deduplication and repair to learn what a target
// still holds. The reply is computed solely from the querying user's
// ownership records (§3.3). The batch takes each touched index shard's
// lock once, not once per fingerprint.
func (ss *session) handleQuery(payload []byte) error {
	var err error
	ss.asked, err = protocol.DecodeFingerprintsInto(ss.asked, payload)
	if err != nil {
		return badRequest("bad query")
	}
	fps := ss.asked
	owned, err := ss.srv.ix.SharesOwnedBy(fps, ss.userID)
	if err != nil {
		return err
	}
	hits := uint64(0)
	for _, o := range owned {
		if o {
			hits++
		}
	}
	ss.srv.stats.intraQueries.Add(uint64(len(fps)))
	ss.srv.stats.intraHits.Add(hits)
	return ss.send(protocol.MsgQueryResult, protocol.EncodeBitmap(owned))
}

// handlePutShares performs inter-user deduplication on a batch of shares
// and stores the globally unique ones.
//
// The batch runs in four passes so no index shard lock is ever held
// across container I/O and no session waits while holding reservations:
//
//  1. Reserve: recompute each share's fingerprint and classify it under
//     its shard lock only — duplicates record ownership and are done;
//     unknown fingerprints become reservations this session must fill;
//     fingerprints mid-commit in another session are deferred.
//  2. Append: write all reserved shares' bytes into the user's container
//     buffers in one batched call (per-user stripe lock; backend I/O
//     happens here, outside every index critical section).
//  3. Commit: persist each reservation with its container name.
//  4. Contested: with nothing held, optimistically re-classify the
//     deferred fingerprints in rounds — the racing reservations have
//     usually resolved during this batch's own container I/O — batching
//     any wins through the same append+commit path, and block on a
//     pending fingerprint only when a full round makes no progress.
func (ss *session) handlePutShares(payload []byte) error {
	var err error
	// Zero-copy decode: shares alias the pooled frame. Safe because the
	// container layer copies bytes on append and nothing below retains
	// the aliases past this handler.
	ss.batch, err = protocol.DecodeShareBatchInto(ss.batch, payload)
	if err != nil {
		return badRequest("bad share batch")
	}
	batch := ss.batch
	srv := ss.srv

	// Admission control before any lock: the batch's payload bytes count
	// against the server-wide in-flight budget until the handler is done.
	srv.flow.acquire(int64(len(payload)))
	defer srv.flow.release(int64(len(payload)))
	srv.gcMu.RLock()
	defer srv.gcMu.RUnlock()

	// Server-side re-fingerprinting: never trust the client's hash. The
	// batch fans across the shared worker pool so one session's upload
	// uses all cores (§3.3 hashing is the put path's biggest CPU cost).
	if cap(ss.fps) < len(batch) {
		ss.fps = make([]metadata.Fingerprint, len(batch))
	}
	fps := ss.fps[:len(batch)]
	srv.fingerprintBatch(fps, batch)
	var recvBytes uint64
	for i := range batch {
		recvBytes += uint64(len(batch[i].Data))
	}
	srv.stats.sharesReceived.Add(uint64(len(batch)))
	srv.stats.bytesReceived.Add(recvBytes)

	// Pass 1: classify under shard locks with the NON-blocking try;
	// reserve the globally new ones, defer fingerprints another session
	// is mid-commit on (waiting here, with our own reservations held,
	// could deadlock against a batch waiting on ours). The batch is
	// also deduplicated locally: it may repeat content (the client
	// dedupes before sending, but the server never trusts that).
	fresh := ss.fresh[:0]
	contested := ss.contested[:0]
	if ss.seen == nil {
		ss.seen = make(map[metadata.Fingerprint]struct{}, len(batch))
	}
	clear(ss.seen)
	for i := range batch {
		if _, dup := ss.seen[fps[i]]; dup {
			continue
		}
		ss.seen[fps[i]] = struct{}{}
		st, rerr := srv.ix.TryReserveShare(fps[i], ss.userID, uint32(len(batch[i].Data)))
		if rerr != nil {
			ss.abortShares(fresh)
			return rerr
		}
		switch st {
		case index.StatusReserved:
			fresh = append(fresh, container.Entry{Key: fps[i], Data: batch[i].Data})
		case index.StatusPending:
			contested = append(contested, container.Entry{Key: fps[i], Data: batch[i].Data})
		}
	}
	ss.fresh, ss.contested = fresh, contested

	// Passes 2–3: place and commit everything unique.
	if err := ss.placeAndCommit(fresh); err != nil {
		return err
	}

	// Pass 4: resolve fingerprints that were mid-commit elsewhere,
	// optimistically. Each round re-runs the non-blocking classification
	// over everything still contested — the racing reservations have
	// usually resolved (commit or abort) while this batch was doing its
	// own container I/O, so most entries settle as duplicates or wins
	// without queueing on a waiter channel. Wins go through the same
	// placeAndCommit as the fresh set. Only when a full round makes no
	// progress — every remaining fingerprint still pending — does the
	// session block, and at that point it holds no reservations, so
	// waiting is deadlock-free.
	for len(contested) > 0 {
		var wins, still []container.Entry
		for i := range contested {
			st, rerr := srv.ix.TryReserveShare(contested[i].Key, ss.userID, uint32(len(contested[i].Data)))
			if rerr != nil {
				ss.abortShares(wins)
				return rerr
			}
			switch st {
			case index.StatusReserved:
				wins = append(wins, contested[i])
			case index.StatusPending:
				still = append(still, contested[i])
			}
		}
		if len(wins) > 0 {
			if err := ss.placeAndCommit(wins); err != nil {
				return err
			}
		} else if len(still) > 0 {
			srv.ix.WaitShare(still[0].Key)
		}
		contested = still
	}
	return ss.send(protocol.MsgPutOK, nil)
}

// abortShares releases the reservations this session holds on entries,
// waking any session waiting on them. Aborting a key whose reservation
// is already committed is a no-op.
func (ss *session) abortShares(entries []container.Entry) {
	for i := range entries {
		ss.srv.ix.AbortShare(entries[i].Key)
	}
}

// placeAndCommit stores a set of reserved shares: one batched container
// append, then the index's group commit now that the bytes are placed —
// one shard lock and one WAL append per touched shard for the whole set,
// the same durability point as per-share commits — and settles the
// stored-share counters. If either step fails every reservation is
// aborted: CommitShares leaves the uncommitted ones pending, and aborting
// a committed key is a no-op.
func (ss *session) placeAndCommit(entries []container.Entry) error {
	if len(entries) == 0 {
		return nil
	}
	srv := ss.srv
	names, err := srv.store.AddShares(ss.userID, entries)
	if err != nil {
		ss.abortShares(entries)
		return err
	}
	ss.commitFPs = ss.commitFPs[:0]
	var bytes uint64
	for i := range entries {
		ss.commitFPs = append(ss.commitFPs, entries[i].Key)
		bytes += uint64(len(entries[i].Data))
	}
	if err := srv.ix.CommitShares(ss.commitFPs, names); err != nil {
		ss.abortShares(entries)
		return err
	}
	srv.stats.sharesStored.Add(uint64(len(entries)))
	srv.stats.bytesStored.Add(bytes)
	return nil
}

// handlePutRecipe stores a file recipe, updates the file index, and
// settles reference counts (one per recipe entry).
func (ss *session) handlePutRecipe(payload []byte) error {
	recipe, err := metadata.UnmarshalRecipe(payload)
	if err != nil {
		return badRequest("bad recipe: %v", err)
	}
	ss.srv.gcMu.RLock()
	defer ss.srv.gcMu.RUnlock()
	// Every referenced share must be held here by this user, bytes present
	// (the one ownership question, SharesOwnedBy): a recipe naming an
	// unknown fingerprint is either a client bug or an ownership probe,
	// and one naming a quarantined share would describe bytes that are
	// gone. Validated as one batched pass per touched shard.
	fps := make([]metadata.Fingerprint, len(recipe.Entries))
	for i := range recipe.Entries {
		fps[i] = recipe.Entries[i].ShareFP
	}
	owned, err := ss.srv.ix.SharesOwnedBy(fps, ss.userID)
	if err != nil {
		return err
	}
	for i := range owned {
		if !owned[i] {
			return badRequest("recipe references share %s, which this user does not hold here", fps[i])
		}
	}
	// Capture any file entry being replaced; its references are released
	// only AFTER the new recipe's references are added, so a share used
	// by both versions never transits through a zero reference count
	// (which would delete its index entry out from under the new recipe).
	var old *index.FileEntry
	if fe, err := ss.srv.ix.LookupFile(ss.userID, recipe.Path); err == nil {
		old = fe
	} else if err != index.ErrNotFound {
		return err
	}
	// Settle the new recipe's reference counts, one shard lock per
	// touched shard rather than one lock per entry.
	if err := ss.srv.ix.AddShareRefs(fps, ss.userID); err != nil {
		return err
	}
	if old != nil {
		// An old recipe whose bytes are gone (gone — the scrub-repair
		// re-upload path) has no refs we can release; keeping the counts
		// inflated is the safe failure mode, and blocking the replacing
		// upload would leave the file dead.
		if err := ss.releaseRecipeRefs(old); err != nil && !gone(err) {
			return err
		}
	}
	fileKey := metadata.FileKey(ss.userID, recipe.Path)
	cname, err := ss.srv.store.AddRecipe(ss.userID, fileKey, payload)
	if err != nil {
		return err
	}
	fe := &index.FileEntry{
		UserID:          ss.userID,
		Path:            recipe.Path,
		FileSize:        recipe.FileSize,
		NumSecrets:      recipe.NumSecrets,
		RecipeContainer: cname,
	}
	if err := ss.srv.ix.PutFile(fe); err != nil {
		return err
	}
	return ss.send(protocol.MsgPutOK, nil)
}

// releaseRecipeRefs drops this user's references on every share of a
// recipe being replaced or deleted. Caller holds gcMu's read side (both
// call sites are request handlers).
func (ss *session) releaseRecipeRefs(fe *index.FileEntry) error {
	fileKey := metadata.FileKey(ss.userID, fe.Path)
	raw, err := ss.srv.store.GetEntry(fe.RecipeContainer, fileKey)
	if err != nil {
		return err
	}
	recipe, err := metadata.UnmarshalRecipe(raw)
	if err != nil {
		return err
	}
	fps := make([]metadata.Fingerprint, len(recipe.Entries))
	for i := range recipe.Entries {
		fps[i] = recipe.Entries[i].ShareFP
	}
	return ss.srv.ix.ReleaseShareRefs(fps, ss.userID)
}

// missed reports whether a read found no container, or no entry, under
// the name the index gave: what a scrub pass that rewrote the container
// after the index was asked leaves the reader.
func missed(err error) bool {
	return errors.Is(err, storage.ErrNotFound) || errors.Is(err, container.ErrNoEntry)
}

// gone reports whether reading a recipe or a share failed because its
// bytes are gone — its container lost, its entry quarantined, or the
// container unreadable — rather than because the backend is failing. A
// read that finds its bytes gone is answered NotFound in-band, so the
// session, and every session beside it on a gateway's pooled connection,
// survives it.
func gone(err error) bool {
	return missed(err) || errors.Is(err, container.ErrCorrupt)
}

// handleGetRecipe answers a file's recipe. A recipe whose bytes are gone
// is answered NotFound in-band like an unknown file, and one of a format
// this server refuses (metadata.ErrOldFormat) by an in-band error naming
// it; any other backend error aborts the connection as usual.
func (ss *session) handleGetRecipe(payload []byte) error {
	path, err := protocol.DecodeString(payload)
	if err != nil {
		return badRequest("bad path")
	}
	raw, err := ss.readRecipe(path)
	if missed(err) {
		// A pass may have rewritten the container after the lookup; none
		// runs under the read side, so a second miss is a real loss.
		ss.srv.gcMu.RLock()
		raw, err = ss.readRecipe(path)
		ss.srv.gcMu.RUnlock()
	}
	switch {
	case err == index.ErrNotFound:
		return notFound("no file %q for user %d", path, ss.userID)
	case gone(err):
		return notFound("recipe of %q lost on this cloud", path)
	case err != nil:
		return err
	}
	if ferr := metadata.CheckRecipeFormat(raw); ferr != nil {
		return inBand(fmt.Errorf("recipe of %q: %w", path, ferr))
	}
	return ss.send(protocol.MsgRecipe, raw)
}

// readRecipe looks up the session user's file and reads its recipe.
func (ss *session) readRecipe(path string) ([]byte, error) {
	fe, err := ss.srv.ix.LookupFile(ss.userID, path)
	if err != nil {
		return nil, err
	}
	return ss.srv.store.GetEntry(fe.RecipeContainer, metadata.FileKey(ss.userID, path))
}

// handleGetShares answers shares by fingerprint. A share the asker does
// not own gets the same NotFound as an unknown one, so the answer never
// tells whether another user holds it. A share of the asker's whose bytes
// are gone (see gone) — quarantined by a scrub pass, or in a container
// lost or corrupt — is answered NotFound in-band too, as lost: only an
// owner reaches that answer.
func (ss *session) handleGetShares(payload []byte) error {
	var err error
	ss.asked, err = protocol.DecodeFingerprintsInto(ss.asked, payload)
	if err != nil {
		return badRequest("bad share request")
	}
	fps := ss.asked
	// Batched index pass first (one lock per touched shard), then the
	// container reads with no index lock in sight.
	ss.locs, err = ss.srv.ix.LocateShares(ss.locs, fps, ss.userID)
	if err != nil {
		return err
	}
	locs := ss.locs
	// Admission control on the bytes about to be read and buffered: the
	// index already knows every share's size, so the budget is claimed
	// before the container reads, and restores share the same server-wide
	// byte budget as uploads.
	var respBytes int64
	for i, fp := range fps {
		// Ownership check: only users holding a reference may read.
		if !locs[i].Owned {
			return notFound("share %s not found", fp)
		}
		if locs[i].Container == "" {
			return notFound("share %s lost on this cloud", fp) // quarantined
		}
		respBytes += int64(locs[i].Size)
	}
	ss.srv.flow.acquire(respBytes)
	defer ss.srv.flow.release(respBytes)
	out := ss.out[:0]
	var served uint64
	relocated := false
	for i, fp := range fps {
		data, err := ss.srv.store.GetEntry(locs[i].Container, fp)
		if missed(err) && !relocated {
			// A pass may have rewritten the container since the index was
			// asked. None runs under gcMu's read side, taken after the flow
			// grant as a put takes it: locate again, and a second miss is
			// a real loss.
			relocated = true
			ss.srv.gcMu.RLock()
			defer ss.srv.gcMu.RUnlock()
			if locs, err = ss.srv.ix.LocateShares(locs, fps, ss.userID); err == nil {
				data, err = ss.srv.store.GetEntry(locs[i].Container, fp)
			}
		}
		if err != nil {
			ss.out = out
			if gone(err) {
				return notFound("share %s lost on this cloud", fp)
			}
			return err
		}
		served += uint64(len(data))
		out = append(out, protocol.ShareDownload{Fingerprint: fp, Data: data})
	}
	ss.srv.stats.sharesServed.Add(uint64(len(out)))
	ss.srv.stats.bytesServed.Add(served)
	// The reply streams from the container cache's own slices through the
	// connection's write buffer: no payload is built, and the steady-state
	// get path allocates nothing for framing. The aliases are dropped
	// afterwards so the scratch slice does not pin old container blocks in
	// memory between requests.
	err = ss.sc.conn.WriteShares(ss.muxed, ss.stream, out)
	for i := range out {
		out[i].Data = nil
	}
	ss.out = out
	return err
}

func (ss *session) handleListFiles() error {
	files, err := ss.srv.ix.ListFiles(ss.userID)
	if err != nil {
		return err
	}
	infos := make([]protocol.FileInfo, len(files))
	for i, f := range files {
		infos[i] = protocol.FileInfo{Path: f.Path, FileSize: f.FileSize, NumSecrets: f.NumSecrets}
	}
	return ss.send(protocol.MsgFileList, protocol.EncodeFileList(infos))
}

func (ss *session) handleDeleteFile(payload []byte) error {
	path, err := protocol.DecodeString(payload)
	if err != nil {
		return badRequest("bad path")
	}
	ss.srv.gcMu.RLock()
	defer ss.srv.gcMu.RUnlock()
	fe, err := ss.srv.ix.LookupFile(ss.userID, path)
	if err == index.ErrNotFound {
		return notFound("no file %q", path)
	}
	if err != nil {
		return err
	}
	if err := ss.releaseRecipeRefs(fe); err != nil {
		return err
	}
	if err := ss.srv.ix.DeleteFile(ss.userID, path); err != nil {
		return err
	}
	return ss.send(protocol.MsgPutOK, nil)
}
