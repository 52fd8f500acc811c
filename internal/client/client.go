// Package client implements the CDStore client (Figure 4a): chunking,
// convergent dispersal encoding on a worker pool (§4.6), intra-user
// deduplication queries, batched parallel uploads to n clouds, and
// k-of-n restores with brute-force subset retry on corruption (§3.2).
package client

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"cdstore/internal/cache"
	"cdstore/internal/core"
	"cdstore/internal/protocol"
	"cdstore/internal/secretshare"
)

// Dialer opens a connection to one cloud's CDStore server.
type Dialer func() (net.Conn, error)

// Options configures a Client.
type Options struct {
	// UserID identifies this user to the servers.
	UserID uint64
	// N and K are the dispersal parameters; must match the servers'.
	N, K int
	// Scheme overrides the secret-sharing scheme (default: CAONT-RS with
	// Salt). Only the Reed-Solomon-based schemes, whose lost shares Repair
	// can rebuild, are ArenaSchemes.
	Scheme secretshare.ArenaScheme
	// Salt is the optional organization salt for the convergent hash.
	Salt []byte
	// EncodeThreads sizes the encoding worker pool (§4.6; default 2, the
	// configuration the paper's Figure 5(a) highlights).
	EncodeThreads int
	// EncodePaths disperses file pathnames via secret sharing so servers
	// never see them in plaintext (§4.3's sensitive-metadata handling).
	EncodePaths bool
	// FixedChunkSize switches Backup from content-defined chunking to
	// fixed-size chunks of this many bytes (§4.2 implements both; the
	// paper's VM dataset uses 4KB fixed chunks). Zero keeps the default.
	// Takes precedence over Chunking.
	FixedChunkSize int
	// Chunking selects the content-defined chunker Backup uses when
	// FixedChunkSize is zero: "rabin" (§4.2's default) or "fastcdc" (the
	// Gear-hash chunker, ~an order of magnitude faster boundary
	// detection at equal dedup ratio). Empty means "rabin". Chunking
	// choice drives the dedup ratio that the cost analysis bills, which
	// is why it is a first-class benchmarked axis (cdbench chunkers).
	Chunking string
	// RestoreWindow is the number of secrets per pipeline window of the
	// streaming restore engine: window N+1 is prefetched while the decode
	// workers drain window N, and memory held by a restore/repair is
	// O(window), never O(file). Default 512. A window also closes at
	// restoreWindowBytes of secrets, whichever comes first.
	RestoreWindow int
}

// Client is a CDStore client bound to n cloud connections.
type Client struct {
	opts   Options
	scheme secretshare.ArenaScheme
	conns  []*cloudConn // index = cloud index; nil if unavailable
	// sharePool recycles share buffers between the encode workers that
	// fill them and the uploaders that retire them after each flush, so
	// steady-state backups allocate no share memory.
	sharePool secretshare.SharePool
	// secretPool recycles decoded-secret buffers: decode worker → restore
	// writer → secrets memo → (eviction) → decode worker.
	secretPool secretshare.SharePool
	// secrets is the session memo of decoded, integrity-verified secrets
	// Restore fills and reads (see secretMemo); Close drops it.
	secrets *secretMemo
	// repairMemo remembers, for the rest of the session, the rows Repair
	// has rebuilt on a target cloud: rowKey -> the metadata.RecipeEntry of
	// the rebuilt share. Bounded by repairMemoRows; the LRU's own lock
	// serves concurrent repairs.
	repairMemo *cache.LRU
}

// cloudConn serializes request/response exchanges on one cloud session.
type cloudConn struct {
	index int
	pc    *protocol.Conn
	mu    sync.Mutex
}

// call sends one request and reads one reply, decoding MsgError replies
// into *protocol.RemoteError.
func (cc *cloudConn) call(reqType byte, payload []byte, wantType byte) ([]byte, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if err := cc.pc.WriteMsg(reqType, payload); err != nil {
		return nil, err
	}
	return cc.readReply(wantType)
}

// putShares is call for a MsgPutShares batch, streamed from the shares'
// own buffers instead of through an encoded payload.
func (cc *cloudConn) putShares(batch []protocol.ShareUpload) error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if err := cc.pc.WriteShareBatch(batch); err != nil {
		return err
	}
	_, err := cc.readReply(protocol.MsgPutOK)
	return err
}

// readReply reads the reply to the request just written. Caller holds mu.
func (cc *cloudConn) readReply(wantType byte) ([]byte, error) {
	typ, reply, err := cc.pc.ReadMsg()
	if err != nil {
		return nil, err
	}
	if typ == protocol.MsgError {
		re, derr := protocol.DecodeError(reply)
		if derr != nil {
			return nil, derr
		}
		return nil, re
	}
	if typ != wantType {
		return nil, fmt.Errorf("client: unexpected reply type %d (want %d)", typ, wantType)
	}
	return reply, nil
}

// Connect dials all n clouds and performs the Hello handshake. dialers[i]
// must reach the server for cloud i. A nil dialer (or dial failure) marks
// that cloud unavailable; Connect succeeds while at least K clouds are up,
// since restores need only K (uploads require all N — see Backup).
func Connect(opts Options, dialers []Dialer) (*Client, error) {
	if opts.K <= 0 || opts.N <= opts.K {
		return nil, fmt.Errorf("client: invalid (n,k)=(%d,%d)", opts.N, opts.K)
	}
	if len(dialers) != opts.N {
		return nil, fmt.Errorf("client: need %d dialers, got %d", opts.N, len(dialers))
	}
	if opts.EncodeThreads <= 0 {
		opts.EncodeThreads = 2
	}
	if opts.RestoreWindow <= 0 {
		opts.RestoreWindow = defaultRestoreWindow
	}
	switch opts.Chunking {
	case "", "rabin", "fastcdc":
	default:
		return nil, fmt.Errorf("client: unknown chunking %q (want rabin or fastcdc)", opts.Chunking)
	}
	scheme := opts.Scheme
	if scheme == nil {
		var err error
		scheme, err = core.NewCAONTRSWithSalt(opts.N, opts.K, opts.Salt)
		if err != nil {
			return nil, err
		}
	}
	c := &Client{
		opts: opts, scheme: scheme, conns: make([]*cloudConn, opts.N),
		repairMemo: cache.NewLRU(repairMemoRows),
	}
	c.secrets = newSecretMemo(restoreMemoBytes, &c.secretPool)
	up := 0
	for i, dial := range dialers {
		if dial == nil {
			continue
		}
		conn, err := dial()
		if err != nil {
			continue
		}
		pc := protocol.NewConn(conn)
		cc := &cloudConn{index: i, pc: pc}
		reply, err := cc.call(protocol.MsgHello, protocol.EncodeHello(opts.UserID), protocol.MsgHelloOK)
		if err != nil {
			pc.Close()
			continue
		}
		ci, n, k, err := protocol.DecodeHelloOK(reply)
		if err != nil || ci != i || n != opts.N || k != opts.K {
			pc.Close()
			return nil, fmt.Errorf("client: cloud %d handshake mismatch (ci=%d n=%d k=%d err=%v)", i, ci, n, k, err)
		}
		c.conns[i] = cc
		up++
	}
	if up < opts.K {
		c.Close()
		return nil, fmt.Errorf("client: only %d of %d clouds reachable (< k=%d)", up, opts.N, opts.K)
	}
	return c, nil
}

// AvailableClouds returns the indices of connected clouds.
func (c *Client) AvailableClouds() []int {
	var out []int
	for i, cc := range c.conns {
		if cc != nil {
			out = append(out, i)
		}
	}
	return out
}

// Scheme returns the dispersal scheme in use.
func (c *Client) Scheme() secretshare.ArenaScheme { return c.scheme }

// UserID returns the user this client authenticates as.
func (c *Client) UserID() uint64 { return c.opts.UserID }

// ScrubStatus fetches one cloud's scrub report: scrubber counters, the
// outstanding damage inventory, and the files it affects.
func (c *Client) ScrubStatus(cloud int) (*protocol.ScrubReport, error) {
	cc, err := c.cloudConnAt(cloud)
	if err != nil {
		return nil, err
	}
	reply, err := cc.call(protocol.MsgScrubStatus, nil, protocol.MsgScrubReport)
	if err != nil {
		return nil, err
	}
	return protocol.DecodeScrubReport(reply)
}

// ScrubControl drives one cloud's scrubber (protocol.ScrubOp*); the
// RunPass op returns after the pass — including any quarantine and the
// reclaim of deleted backups — has completed on the server.
func (c *Client) ScrubControl(cloud int, op byte) error {
	cc, err := c.cloudConnAt(cloud)
	if err != nil {
		return err
	}
	_, err = cc.call(protocol.MsgScrubControl, protocol.EncodeScrubControl(op), protocol.MsgPutOK)
	return err
}

func (c *Client) cloudConnAt(cloud int) (*cloudConn, error) {
	if cloud < 0 || cloud >= len(c.conns) {
		return nil, fmt.Errorf("client: cloud index %d out of range", cloud)
	}
	if c.conns[cloud] == nil {
		return nil, fmt.Errorf("client: cloud %d not connected", cloud)
	}
	return c.conns[cloud], nil
}

// Close sends Bye on every session, closes the connections and drops the
// memo of decoded secrets and the buffer pools: plaintext a restore
// decoded stays in memory for at most one session.
func (c *Client) Close() error {
	c.secrets.drop()
	c.secretPool.Drop()
	c.sharePool.Drop()
	var firstErr error
	for _, cc := range c.conns {
		if cc == nil {
			continue
		}
		cc.mu.Lock()
		_ = cc.pc.WriteMsg(protocol.MsgBye, nil)
		err := cc.pc.Close()
		cc.mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ListFiles returns the user's files. With plaintext paths one cloud's
// listing suffices (metadata is replicated to every cloud at upload
// time); with EncodePaths, listings from k clouds are combined to recover
// the plaintext names.
func (c *Client) ListFiles() ([]protocol.FileInfo, error) {
	if !c.encodePaths() {
		for _, cc := range c.conns {
			if cc == nil {
				continue
			}
			reply, err := cc.call(protocol.MsgListFiles, nil, protocol.MsgFileList)
			if err != nil {
				continue
			}
			return protocol.DecodeFileList(reply)
		}
		return nil, errors.New("client: no cloud available for listing")
	}
	listings := make([][]protocol.FileInfo, c.opts.N)
	got := 0
	for i, cc := range c.conns {
		if cc == nil {
			continue
		}
		reply, err := cc.call(protocol.MsgListFiles, nil, protocol.MsgFileList)
		if err != nil {
			continue
		}
		infos, err := protocol.DecodeFileList(reply)
		if err != nil {
			continue
		}
		listings[i] = infos
		got++
		if got >= c.opts.K {
			break
		}
	}
	if got < c.opts.K {
		return nil, fmt.Errorf("client: only %d clouds listed (< k=%d) for path decoding", got, c.opts.K)
	}
	return c.decodeListedPaths(listings)
}

// Delete removes a backup from every available cloud, releasing share
// references server-side.
func (c *Client) Delete(path string) error {
	var firstErr error
	deleted := 0
	for i, cc := range c.conns {
		if cc == nil {
			continue
		}
		cloudPath, err := c.pathForCloud(i, path)
		if err != nil {
			return err
		}
		_, err = cc.call(protocol.MsgDeleteFile, protocol.EncodeString(cloudPath), protocol.MsgPutOK)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		deleted++
	}
	if deleted == 0 && firstErr != nil {
		return firstErr
	}
	return nil
}
