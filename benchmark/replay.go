package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cdstore/internal/aont"
	"cdstore/internal/chunker"
	"cdstore/internal/container"
	"cdstore/internal/core"
	"cdstore/internal/gateway"
	"cdstore/internal/index"
	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/reedsolomon"
	"cdstore/internal/secretshare"
	"cdstore/internal/server"
	"cdstore/internal/storage"
	"cdstore/internal/workload"
)

// Layer replay: the same generated inputs pushed single-threaded
// through each layer's public entry points, one layer at a time, so a
// layer's busy time is measured with nothing else on the CPU. The
// codec layers replay a capped sample of round 0's inputs; the server
// replays the request stream the recorded cloud actually received in a
// traced round, so the dedup mix (owned fingerprints, inter-user
// duplicates) is the workload's own.

// replayResult carries the raw per-layer values and the totals the
// budget table needs.
type replayResult struct {
	m map[string]float64
	// serverBackupS and serverRestoreS are the recorded cloud's replayed
	// busy seconds over the backup sessions and the restore sessions of
	// one round.
	serverBackupS, serverRestoreS float64
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func gib(n int64) float64 { return float64(n) / (1 << 30) }

// sampleSecrets cuts the first replayBytes of round 0's inputs into
// secrets the way the workload does: through the chunker the client
// would use, or at the trace's boundaries. chunkS is the chunker's busy
// time over the sample (0 when the workload bypasses it).
func sampleSecrets(spec workloadSpec, sz sizing, seed int64) (secrets [][]byte, total int64, chunkS float64, err error) {
	p := spec.plan(seed, 0, sz)
	for _, b := range p.all() {
		if total >= sz.replayBytes {
			break
		}
		if b.trace != nil {
			for _, c := range b.trace.Chunks {
				if total >= sz.replayBytes {
					break
				}
				secrets = append(secrets, workload.ChunkContent(c.ID, c.Size))
				total += int64(c.Size)
			}
			continue
		}
		var want int64
		for _, s := range b.segs {
			want += s.n
		}
		if rest := sz.replayBytes - total; want > rest {
			want = rest
		}
		buf := make([]byte, want)
		if _, err := io.ReadFull(newSegReader(b.segs), buf); err != nil {
			return nil, 0, 0, err
		}
		var ck chunker.Chunker
		if spec.chunking == "fastcdc" {
			ck = chunker.NewFastCDC(bytes.NewReader(buf))
		} else {
			ck = chunker.NewRabin(bytes.NewReader(buf))
		}
		t := time.Now()
		for {
			c, err := ck.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, 0, 0, err
			}
			secrets = append(secrets, c.Data)
		}
		chunkS += time.Since(t).Seconds()
		total += want
	}
	if len(secrets) == 0 {
		return nil, 0, 0, errors.New("replay: empty sample")
	}
	return secrets, total, chunkS, nil
}

// cloudSample is the recorded cloud's part of the replay sample: its
// share of every secret, with fingerprints, and the sample's logical
// size.
type cloudSample struct {
	shares [][]byte
	fps    []metadata.Fingerprint
	total  int64
}

// replayCodec pushes the sample through chunker, core, aont,
// reedsolomon, metadata and protocol, and returns the recorded cloud's
// shares for the index and container replays.
func replayCodec(spec workloadSpec, sz sizing, seed int64, out *replayResult) (*cloudSample, error) {
	secrets, total, chunkS, err := sampleSecrets(spec, sz, seed)
	if err != nil {
		return nil, err
	}
	g := gib(total)
	nSecrets := float64(len(secrets))
	m := out.m
	m["chunker.busy_s_per_gib"] = chunkS / g
	if chunkS > 0 {
		m["chunker.avg_chunk_bytes"] = float64(total) / nSecrets
	}

	scheme, err := core.NewCAONTRS(cloudsN, cloudsK)
	if err != nil {
		return nil, err
	}
	var pool secretshare.SharePool
	arena := secretshare.NewArenaWithPool(&pool)

	// core.split: arena + pool, shares recycled at once, as the client's
	// uploaders do — the steady state.
	a0 := mallocs()
	t := time.Now()
	for _, s := range secrets {
		shares, err := scheme.SplitInto(s, arena)
		if err != nil {
			return nil, err
		}
		for _, sh := range shares {
			pool.Put(sh)
		}
	}
	m["core.split_s_per_gib"] = time.Since(t).Seconds() / g
	m["core.split_allocs_per_secret"] = float64(mallocs()-a0) / nSecrets

	// Keep every share of the sample for the stages below (untimed).
	all := make([][][]byte, len(secrets))
	for i, s := range secrets {
		if all[i], err = scheme.Split(s); err != nil {
			return nil, err
		}
	}

	// metadata: all n shares of every secret, as the client's encode
	// workers compute them (the server computes them again).
	fps := make([]metadata.Fingerprint, len(secrets))
	t = time.Now()
	for i := range all {
		for c, sh := range all[i] {
			fp := metadata.FingerprintOf(sh)
			if c == recordCloud {
				fps[i] = fp
			}
		}
	}
	m["metadata.fingerprint_s_per_gib"] = time.Since(t).Seconds() / g

	// core.combine: the k data shards (systematic), then with share 0
	// missing, which needs parity.
	combine := func(idx []int) (float64, float64, error) {
		have := make(map[int][]byte, cloudsK)
		a0 := mallocs()
		t := time.Now()
		for i, s := range secrets {
			for _, c := range idx {
				have[c] = all[i][c]
			}
			got, err := scheme.CombineInto(have, len(s), arena)
			if err != nil {
				return 0, 0, err
			}
			if len(got) != len(s) || got[0] != s[0] || got[len(s)-1] != s[len(s)-1] {
				return 0, 0, errors.New("replay: combine returned other bytes")
			}
			arena.Recycle(got)
		}
		return time.Since(t).Seconds() / g, float64(mallocs()-a0) / nSecrets, nil
	}
	var allocs float64
	if m["core.combine_s_per_gib"], allocs, err = combine([]int{0, 1, 2}); err != nil {
		return nil, err
	}
	m["core.combine_allocs_per_secret"] = allocs
	if m["core.combine_degraded_s_per_gib"], _, err = combine([]int{1, 2, 3}); err != nil {
		return nil, err
	}

	// aont and reedsolomon on their own, with the package geometry
	// CAONT-RS uses: secret zero-padded so that package = k shares.
	codec, err := reedsolomon.New(cloudsN, cloudsK)
	if err != nil {
		return nil, err
	}
	var pkgS, unpackS, encS, recS float64
	var pkg, plain []byte
	var key [aont.KeySize]byte
	shards := make([][]byte, cloudsN)
	outs := make([][]byte, cloudsK)
	have := make(map[int][]byte, cloudsK)
	for _, s := range secrets {
		shareSize := (len(s) + aont.HashSize + cloudsK - 1) / cloudsK
		p := shareSize*cloudsK - aont.HashSize
		if cap(pkg) < p+aont.HashSize {
			pkg = make([]byte, p+aont.HashSize)
			plain = make([]byte, p)
			for i := range shards {
				shards[i] = make([]byte, shareSize)
			}
		}
		pkg = pkg[:p+aont.HashSize]
		n := copy(pkg, s)
		for i := n; i < p; i++ {
			pkg[i] = 0
		}
		h := sha256.Sum256(pkg[:p])
		t := time.Now()
		if err := aont.PackageOAEPInto(pkg, p, h[:]); err != nil {
			return nil, err
		}
		pkgS += time.Since(t).Seconds()

		for i := range shards {
			shards[i] = shards[i][:shareSize]
		}
		t = time.Now()
		if err := codec.SplitInto(pkg, shards); err != nil {
			return nil, err
		}
		if err := codec.Encode(shards); err != nil {
			return nil, err
		}
		encS += time.Since(t).Seconds()

		for i := range outs {
			outs[i] = pkg[i*shareSize : (i+1)*shareSize]
		}
		have[1], have[2], have[3] = shards[1], shards[2], shards[3]
		t = time.Now()
		if err := codec.ReconstructDataInto(have, outs); err != nil {
			return nil, err
		}
		recS += time.Since(t).Seconds()

		t = time.Now()
		if err := aont.UnpackOAEPInto(pkg, plain[:p], &key); err != nil {
			return nil, err
		}
		unpackS += time.Since(t).Seconds()
	}
	m["aont.package_s_per_gib"] = pkgS / g
	m["aont.unpack_s_per_gib"] = unpackS / g
	m["reedsolomon.encode_s_per_gib"] = encS / g
	m["reedsolomon.reconstruct_s_per_gib"] = recS / g

	// protocol: the recorded cloud's shares in uploader-sized batches,
	// encode + WriteMsg -> ReadMsgInto + DecodeShareBatchInto over an
	// in-memory conn.
	mine := make([][]byte, len(secrets))
	for i := range all {
		mine[i] = all[i][recordCloud]
	}
	var wire bytes.Buffer
	pc := protocol.NewConn(&wire)
	frame := protocol.GetFrame()
	var batch, decoded []protocol.ShareUpload
	var batchBytes, msgs int
	var frameS float64
	var frameAllocs uint64
	flush := func() error {
		a0 := mallocs()
		t := time.Now()
		if err := pc.WriteMsg(protocol.MsgPutShares, protocol.EncodeShareBatch(batch)); err != nil {
			return err
		}
		_, payload, err := pc.ReadMsgInto(frame)
		if err != nil {
			return err
		}
		if decoded, err = protocol.DecodeShareBatchInto(decoded[:0], payload); err != nil {
			return err
		}
		frameS += time.Since(t).Seconds()
		frameAllocs += mallocs() - a0
		if len(decoded) != len(batch) {
			return errors.New("replay: share batch lost entries on the wire")
		}
		msgs++
		batch, batchBytes = batch[:0], 0
		return nil
	}
	for i, sh := range mine {
		batch = append(batch, protocol.ShareUpload{SecretSeq: uint64(i), SecretSize: uint32(len(secrets[i])), Data: sh})
		batchBytes += len(sh)
		if batchBytes >= protocol.BatchBytes || len(batch) >= 1024 {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if len(batch) > 0 {
		if err := flush(); err != nil {
			return nil, err
		}
	}
	protocol.PutFrame(frame)
	// One cloud's frames carry 1/n of the share bytes; scale to all n.
	m["protocol.put_frame_s_per_gib"] = frameS * cloudsN / g
	m["protocol.allocs_per_msg"] = float64(frameAllocs) / float64(msgs)
	return &cloudSample{shares: mine, fps: fps, total: total}, nil
}

// replayIndex drives a fresh index in 1024-share batches: reserve +
// group commit, then batched lookup and ownership queries.
func replayIndex(dir string, cs *cloudSample, m map[string]float64) error {
	fps, shares := cs.fps, cs.shares
	ix, err := index.Open(filepath.Join(dir, "index"))
	if err != nil {
		return err
	}
	defer ix.Close()
	const user, batch = 1, 1024
	var commitS, lookupS, ownedS float64
	var committed int
	for lo := 0; lo < len(fps); lo += batch {
		hi := lo + batch
		if hi > len(fps) {
			hi = len(fps)
		}
		var won []metadata.Fingerprint
		t := time.Now()
		for i := lo; i < hi; i++ {
			st, err := ix.TryReserveShare(fps[i], user, uint32(len(shares[i])))
			if err != nil {
				return err
			}
			if st == index.StatusReserved {
				won = append(won, fps[i])
			}
		}
		names := make([]string, len(won))
		for i := range names {
			names[i] = "replay-container"
		}
		if err := ix.CommitShares(won, names); err != nil {
			return err
		}
		commitS += time.Since(t).Seconds()
		committed += hi - lo

		t = time.Now()
		if _, err := ix.LookupShares(fps[lo:hi]); err != nil {
			return err
		}
		lookupS += time.Since(t).Seconds()

		t = time.Now()
		owned, err := ix.SharesOwnedBy(fps[lo:hi], user)
		if err != nil {
			return err
		}
		ownedS += time.Since(t).Seconds()
		for _, o := range owned {
			if !o {
				return errors.New("replay: committed share not owned")
			}
		}
	}
	n := float64(committed)
	m["index.reserve_commit_us_per_share"] = commitS * 1e6 / n
	m["index.lookup_us_per_share"] = lookupS * 1e6 / n
	m["index.owned_us_per_fp"] = ownedS * 1e6 / n
	m["index.wal_syncs_per_kshare"] = float64(ix.WALSyncs()) / n * 1000
	return nil
}

// replayContainer appends the recorded cloud's distinct shares to a
// fresh container.Store on disk, flushes, and reads each back in order.
// The backend's own time is taken out, so the row is the container
// module's self time.
func replayContainer(dir string, cs *cloudSample, m map[string]float64) error {
	fps, shares := cs.fps, cs.shares
	ld, err := storage.NewLocalDir(filepath.Join(dir, "containers"))
	if err != nil {
		return err
	}
	var bc backendCounters
	be := &tracedBackend{Backend: ld, c: &bc, parent: func() *openSpan { return nil }, sizes: make(map[string]int64)}
	st, err := container.NewStore(be, nil)
	if err != nil {
		return err
	}
	const user, batch = 1, 1024
	seen := make(map[metadata.Fingerprint]bool, len(fps))
	var entries []container.Entry
	var keys []metadata.Fingerprint
	var names []string
	add := func() error {
		got, err := st.AddShares(user, entries)
		if err != nil {
			return err
		}
		for j := range entries {
			keys = append(keys, entries[j].Key)
		}
		names = append(names, got...)
		entries = entries[:0]
		return nil
	}
	t := time.Now()
	for i := range fps {
		if seen[fps[i]] {
			continue
		}
		seen[fps[i]] = true
		entries = append(entries, container.Entry{Key: fps[i], Data: shares[i]})
		if len(entries) == batch {
			if err := add(); err != nil {
				return err
			}
		}
	}
	if len(entries) > 0 {
		if err := add(); err != nil {
			return err
		}
	}
	if err := st.Flush(); err != nil {
		return err
	}
	addS := time.Since(t).Seconds() - float64(bc.putNs.Load())/1e9

	t = time.Now()
	for i := range keys {
		if _, err := st.GetEntry(names[i], keys[i]); err != nil {
			return err
		}
	}
	getS := time.Since(t).Seconds() - float64(bc.getNs.Load())/1e9
	hits, misses := st.CacheStats()
	m["container.add_s_per_gib"] = addS / gib(cs.total)
	m["container.get_us_per_entry"] = getS * 1e6 / float64(len(keys))
	m["container.cache_hit_frac"] = div(float64(hits), float64(hits+misses))
	return nil
}

// frame is one request of a recorded session.
type frame struct {
	typ     byte
	payload []byte
}

// parseFrames splits a recorded client->cloud byte stream into its
// [type:1][len:4][payload] frames.
func parseFrames(data []byte) ([]frame, error) {
	var out []frame
	for len(data) > 0 {
		if len(data) < 5 {
			return nil, errors.New("replay: truncated frame header")
		}
		n := int(binary.BigEndian.Uint32(data[1:5]))
		if len(data) < 5+n {
			return nil, errors.New("replay: truncated frame payload")
		}
		out = append(out, frame{typ: data[0], payload: data[5 : 5+n]})
		data = data[5+n:]
	}
	return out, nil
}

// memConn is one end of an in-memory duplex byte stream with unbounded
// buffering: the replay client writes a whole request before it reads
// the reply, which net.Pipe's rendezvous would turn into one goroutine
// hand-off per buffer.
type memConn struct {
	r, w *memBuf
}

type memBuf struct {
	mu     sync.Mutex
	cond   *sync.Cond
	chunks [][]byte // one per Write, consumed from the front
	closed bool
}

func newMemPair() (*memConn, *memConn) {
	a, b := &memBuf{}, &memBuf{}
	a.cond, b.cond = sync.NewCond(&a.mu), sync.NewCond(&b.mu)
	return &memConn{r: a, w: b}, &memConn{r: b, w: a}
}

func (c *memConn) Read(p []byte) (int, error) {
	b := c.r
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.chunks) == 0 {
		if b.closed {
			return 0, io.EOF
		}
		b.cond.Wait()
	}
	n := copy(p, b.chunks[0])
	if b.chunks[0] = b.chunks[0][n:]; len(b.chunks[0]) == 0 {
		b.chunks = b.chunks[1:]
	}
	return n, nil
}

func (c *memConn) Write(p []byte) (int, error) {
	b := c.w
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0, io.ErrClosedPipe
	}
	b.chunks = append(b.chunks, append([]byte(nil), p...))
	b.cond.Signal()
	return len(p), nil
}

// The rest of net.Conn, which gateway.Config.Dial asks for; nothing on
// the replay path sets deadlines or reads addresses.
func (c *memConn) LocalAddr() net.Addr              { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return memAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

// Close ends both directions.
func (c *memConn) Close() error {
	for _, b := range []*memBuf{c.r, c.w} {
		b.mu.Lock()
		b.closed = true
		b.cond.Broadcast()
		b.mu.Unlock()
	}
	return nil
}

// replayServerOn starts a fresh server on dir, like one cloud of the
// live cluster.
func replayServerOn(dir string) (*server.Server, error) {
	ld, err := storage.NewLocalDir(filepath.Join(dir, "backend"))
	if err != nil {
		return nil, err
	}
	return server.New(server.Config{
		CloudIndex: recordCloud, N: cloudsN, K: cloudsK,
		IndexDir: filepath.Join(dir, "index"), Backend: ld,
	})
}

// msgTimes totals the replayed request/reply times by kind.
type msgTimes struct {
	queryS, putS, getS, otherS float64
	queryFPs, putShares        int
	getShares                  int
	putAllocs                  uint64
	msgs                       int
}

// replaySession feeds one recorded session's requests to the server
// behind pc, one at a time, waiting for each reply. mux carries the
// session as stream id `stream` of a shared connection, the way a
// gateway would; otherwise pc is the session's own connection.
func replaySession(pc *protocol.Conn, frames []frame, mux bool, stream uint32, reply *[]byte, mt *msgTimes) error {
	for _, f := range frames {
		var shares int
		if f.typ == protocol.MsgPutShares {
			batch, err := protocol.DecodeShareBatch(f.payload)
			if err != nil {
				return err
			}
			shares = len(batch)
		}
		a0 := mallocs()
		t := time.Now()
		var err error
		if mux {
			err = pc.WriteMuxMsg(stream, f.typ, f.payload)
		} else {
			err = pc.WriteMsg(f.typ, f.payload)
		}
		if err != nil {
			return err
		}
		if f.typ == protocol.MsgBye {
			// No reply: a stream Bye retires the virtual session, a
			// connection Bye makes ServeConn flush and return.
			mt.otherS += time.Since(t).Seconds()
			continue
		}
		typ, payload, err := pc.ReadMsgInto(reply)
		if err != nil {
			return err
		}
		if mux {
			if typ != protocol.MsgMuxData {
				return fmt.Errorf("replay: reply type %d on a mux connection", typ)
			}
			if _, typ, payload, err = protocol.DecodeMuxHeader(payload); err != nil {
				return err
			}
		}
		d := time.Since(t).Seconds()
		if typ == protocol.MsgError {
			re, _ := protocol.DecodeError(payload)
			return fmt.Errorf("replay: server refused message type %d: %v", f.typ, re)
		}
		mt.msgs++
		switch f.typ {
		case protocol.MsgQuery:
			mt.queryS += d
			mt.queryFPs += (len(f.payload) - 4) / metadata.FingerprintSize
		case protocol.MsgPutShares:
			mt.putS += d
			mt.putShares += shares
			mt.putAllocs += mallocs() - a0
		case protocol.MsgGetShares:
			mt.getS += d
			mt.getShares += (len(f.payload) - 4) / metadata.FingerprintSize
		default:
			mt.otherS += d
		}
	}
	return nil
}

// replayServer feeds the recorded cloud's sessions, in the order they
// started, to one fresh server through ServeConn.
func replayServer(dir string, spec workloadSpec, recorded []*recordedSession, out *replayResult) ([][]frame, error) {
	srv, err := replayServerOn(dir)
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	var sessions [][]frame
	for _, rs := range recorded {
		frames, err := parseFrames(rs.data)
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, frames)
	}

	serve := func() (*protocol.Conn, func()) {
		a, b := newMemPair()
		done := make(chan struct{})
		go func() {
			_ = srv.ServeConn(a)
			close(done)
		}()
		return protocol.NewConn(b), func() { b.Close(); <-done }
	}

	// By the phase the session ran in: backup, restore, repair.
	times := make(map[string]*msgTimes)
	reply := protocol.GetFrame()
	defer protocol.PutFrame(reply)
	var shared *protocol.Conn
	if spec.gateway {
		var stop func()
		shared, stop = serve()
		defer stop()
	}
	for i, frames := range sessions {
		mt := times[recorded[i].phase]
		if mt == nil {
			mt = &msgTimes{}
			times[recorded[i].phase] = mt
		}
		// The live backup phase ends with Server.Flush; without it the
		// restores below would read from open container buffers.
		if i > 0 && recorded[i-1].phase == "backup" && recorded[i].phase != "backup" {
			t := time.Now()
			if err := srv.Flush(); err != nil {
				return nil, err
			}
			times["backup"].otherS += time.Since(t).Seconds()
		}
		if spec.gateway {
			if err := replaySession(shared, frames, true, uint32(i+1), reply, mt); err != nil {
				return nil, err
			}
			continue
		}
		pc, stop := serve()
		err := replaySession(pc, frames, false, 0, reply, mt)
		// A connection Bye makes ServeConn flush every index shard and
		// return; that is part of what the session cost the server.
		t := time.Now()
		stop()
		mt.otherS += time.Since(t).Seconds()
		if err != nil {
			return nil, err
		}
	}
	backup, restore, repair := times["backup"], times["restore"], times["repair"]
	if backup == nil || restore == nil || repair == nil {
		return nil, errors.New("replay: the recorded round lacks a backup, restore or repair session")
	}
	m := out.m
	m["server.query_us_per_fp"] = div(backup.queryS*1e6, float64(backup.queryFPs))
	m["server.put_us_per_share"] = div(backup.putS*1e6, float64(backup.putShares))
	m["server.put_allocs_per_share"] = div(float64(backup.putAllocs), float64(backup.putShares))
	m["server.get_us_per_share"] = div((restore.getS+repair.getS)*1e6, float64(restore.getShares+repair.getShares))
	out.serverBackupS = backup.queryS + backup.putS + backup.otherS
	out.serverRestoreS = restore.getS + restore.otherS
	return sessions, nil
}

// replayGateway measures what the gateway adds to a relayed message. One
// recorded backup session is stored on a fresh server, then replayed
// again and again, alternately direct and through a gateway's
// ServeDownstream: after the first pass every put is a dedup hit, so
// both legs ask the server for the same cheap, repeatable work and the
// difference of their medians is the relay.
func replayGateway(dir string, frames []frame, m map[string]float64) error {
	// Drop the trailing Bye: direct, it triggers a flush the gateway
	// path does not pay, which is not relay cost.
	if n := len(frames); frames[n-1].typ == protocol.MsgBye {
		frames = frames[:n-1]
	}
	srv, err := replayServerOn(filepath.Join(dir, "gateway"))
	if err != nil {
		return err
	}
	defer srv.Close()
	dialServer := func() (net.Conn, error) {
		a, b := newMemPair()
		go func() { _ = srv.ServeConn(a) }()
		return b, nil
	}
	gw, err := gateway.New(gateway.Config{Dial: dialServer, UpstreamConns: gatewayConns})
	if err != nil {
		return err
	}
	defer gw.Close()
	reply := protocol.GetFrame()
	defer protocol.PutFrame(reply)
	msgs := 0
	run := func(viaGateway bool) (float64, error) {
		client, _ := dialServer()
		if viaGateway {
			a, b := newMemPair()
			go func() { _ = gw.ServeDownstream(a); a.Close() }()
			client = b
		}
		defer client.Close()
		var mt msgTimes
		t := time.Now()
		err := replaySession(protocol.NewConn(client), frames, false, 0, reply, &mt)
		msgs = mt.msgs
		return time.Since(t).Seconds(), err
	}
	if _, err := run(false); err != nil { // stores the shares
		return err
	}
	const passes = 7
	var direct, relayed []float64
	for i := 0; i < passes; i++ {
		d, err := run(false)
		if err != nil {
			return err
		}
		r, err := run(true)
		if err != nil {
			return err
		}
		direct, relayed = append(direct, d), append(relayed, r)
	}
	m["gateway.relay_us_per_msg"] = (median(relayed) - median(direct)) * 1e6 / float64(msgs)
	return nil
}

// replay runs every layer replay of one workload.
func replay(spec workloadSpec, sz sizing, seed int64, recorded []*recordedSession) (*replayResult, error) {
	out := &replayResult{m: make(map[string]float64)}
	dir, err := os.MkdirTemp("", "cdstore-benchmark-replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	cs, err := replayCodec(spec, sz, seed, out)
	if err != nil {
		return nil, err
	}
	if err := replayIndex(dir, cs, out.m); err != nil {
		return nil, err
	}
	if err := replayContainer(dir, cs, out.m); err != nil {
		return nil, err
	}
	sessions, err := replayServer(filepath.Join(dir, "server"), spec, recorded, out)
	if err != nil {
		return nil, err
	}
	if spec.gateway {
		// The first recorded session is a backup of the first wave.
		if err := replayGateway(dir, sessions[0], out.m); err != nil {
			return nil, err
		}
	}
	return out, nil
}
