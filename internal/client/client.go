// Package client implements the CDStore client (Figure 4a): chunking,
// convergent dispersal encoding on a worker pool (§4.6), intra-user
// deduplication queries, batched parallel uploads to n clouds, and
// k-of-n restores that recover a corrupted secret from the shares matching
// their recipe fingerprints, by brute-force subset retry over them (§3.2).
package client

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"cdstore/internal/core"
	"cdstore/internal/metadata"
	"cdstore/internal/protocol"
	"cdstore/internal/secretshare"
)

// Dialer opens a connection to one cloud's CDStore server.
type Dialer func() (net.Conn, error)

// Options configures a Client.
type Options struct {
	// UserID identifies this user to the servers.
	UserID uint64
	// N and K are the dispersal parameters; must match the servers'. The
	// client disperses with CAONT-RS (§3.2) at (N, K).
	N, K int
	// Salt is the optional organization salt for the convergent hash.
	Salt []byte
	// EncodeThreads sizes the encoding worker pool (§4.6; default 2, the
	// configuration the paper's Figure 5(a) highlights).
	EncodeThreads int
	// EncodePaths disperses file pathnames via secret sharing so servers
	// never see them in plaintext (§4.3's sensitive-metadata handling).
	EncodePaths bool
	// Chunking selects the content-defined chunker Backup uses: "rabin"
	// (§4.2's default) or "fastcdc" (the Gear-hash chunker, ~an order of
	// magnitude faster boundary detection at equal dedup ratio). Empty
	// means "rabin". Chunking choice drives the dedup ratio that the cost
	// analysis bills, which is why it is a first-class benchmarked axis
	// (cdbench chunkers).
	Chunking string
}

// Client is a CDStore client bound to n cloud connections.
type Client struct {
	opts  Options
	codec *core.CAONTRS
	// restoreWindow is the restore engine's secrets per pipeline window,
	// defaultRestoreWindow outside tests.
	restoreWindow int
	conns         []*cloudConn // index = cloud index; nil if unavailable
	// sharePool recycles share buffers between the encode workers that
	// fill them and the uploaders that retire them after each flush, so
	// steady-state backups allocate no share memory.
	sharePool secretshare.SharePool
	// secretPool recycles the memo's buffers: decode worker (or Repair) →
	// session memo → (eviction) → decode worker.
	secretPool secretshare.SharePool
	// memo is the session memo of rows (see rowMemo); Close drops it.
	memo *rowMemo
	// lastVersion is the ordering counter of the last recipe version a
	// backup of this client took (nextVersion).
	lastVersion atomic.Uint64
}

// nextVersion returns the version of a backup starting now: the clock in
// nanoseconds, raised past the last one this client took so its own
// backups stay ordered however the clock steps, then 8 random bytes so
// that two clients' backups in the same nanosecond still differ.
func (c *Client) nextVersion() (metadata.Version, error) {
	var v metadata.Version
	now := uint64(time.Now().UnixNano())
	for {
		last := c.lastVersion.Load()
		next := max(now, last+1)
		if c.lastVersion.CompareAndSwap(last, next) {
			binary.BigEndian.PutUint64(v[:8], next)
			break
		}
	}
	if _, err := rand.Read(v[8:]); err != nil {
		return v, fmt.Errorf("client: recipe version: %w", err)
	}
	return v, nil
}

// cloudConn is one cloud's session; every exchange with the cloud goes
// through its pipe, which bounds each wait for a reply (protocol.IOTimeout).
type cloudConn struct{ *protocol.Pipe }

// call sends one request and reads one reply, decoding MsgError replies
// into *protocol.RemoteError.
func (cc *cloudConn) call(reqType byte, payload []byte, wantType byte) ([]byte, error) {
	return cc.callInto(reqType, payload, wantType, new([]byte))
}

// callInto is call with the reply read into *frame, grown if it is too
// small (protocol.Conn.ReadMsgInto): the reply is a view of it.
func (cc *cloudConn) callInto(reqType byte, payload []byte, wantType byte, frame *[]byte) ([]byte, error) {
	return cc.exchange(reqType, func(pc *protocol.Conn) error { return pc.WriteMsg(reqType, payload) }, wantType, frame)
}

// putShares is call for a MsgPutShares batch, streamed from the shares'
// own buffers instead of through an encoded payload.
func (cc *cloudConn) putShares(batch []protocol.ShareUpload) error {
	_, err := cc.exchange(protocol.MsgPutShares, func(pc *protocol.Conn) error { return pc.WriteShareBatch(batch) }, protocol.MsgPutOK, new([]byte))
	return err
}

// owned asks the cloud the one ownership question (MsgQuery): which of
// fps does this user hold there, bytes present? Backup asks it before
// uploading a batch, and repair before trusting a target's shares. The
// fingerprints are cut into queries by protocol.CutBatch.
func (cc *cloudConn) owned(fps []metadata.Fingerprint) ([]bool, error) {
	var owned []bool
	for lo := 0; lo < len(fps); {
		hi := lo
		for hi < len(fps) && !protocol.CutBatch(hi-lo, (hi-lo)*metadata.FingerprintSize, metadata.FingerprintSize) {
			hi++
		}
		reply, err := cc.call(protocol.MsgQuery, protocol.EncodeFingerprints(fps[lo:hi]), protocol.MsgQueryResult)
		if err != nil {
			return nil, err
		}
		bits, err := protocol.DecodeBitmap(reply)
		if err != nil {
			return nil, err
		}
		if len(bits) != hi-lo {
			return nil, fmt.Errorf("client: query reply length %d != %d", len(bits), hi-lo)
		}
		owned = append(owned, bits...)
		lo = hi
	}
	return owned, nil
}

// exchange writes one request of type reqType and returns its reply, read
// into *frame: a payload of the caller's own when the frame is.
func (cc *cloudConn) exchange(reqType byte, write func(*protocol.Conn) error, wantType byte, frame *[]byte) ([]byte, error) {
	typ, reply, err := cc.Call(reqType, write, frame)
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
// since restores need only K (uploads require all N — see Backup). A
// cloud that takes no request, or sends no reply, within
// protocol.IOTimeout fails its session (see protocol.Pipe): a cloud that
// goes silent during Connect counts as unavailable.
func Connect(opts Options, dialers []Dialer) (*Client, error) {
	return connect(opts, dialers, protocol.IOTimeout)
}

// connect is Connect with every cloud session bounded by ioTimeout; tests
// shorten it.
func connect(opts Options, dialers []Dialer, ioTimeout time.Duration) (*Client, error) {
	if opts.K <= 0 || opts.N <= opts.K {
		return nil, fmt.Errorf("client: invalid (n,k)=(%d,%d)", opts.N, opts.K)
	}
	if len(dialers) != opts.N {
		return nil, fmt.Errorf("client: need %d dialers, got %d", opts.N, len(dialers))
	}
	if opts.EncodeThreads <= 0 {
		opts.EncodeThreads = 2
	}
	switch opts.Chunking {
	case "", "rabin", "fastcdc":
	default:
		return nil, fmt.Errorf("client: unknown chunking %q (want rabin or fastcdc)", opts.Chunking)
	}
	codec, err := core.NewCAONTRSWithSalt(opts.N, opts.K, opts.Salt)
	if err != nil {
		return nil, err
	}
	c := &Client{
		opts: opts, codec: codec, restoreWindow: defaultRestoreWindow,
		conns: make([]*cloudConn, opts.N),
	}
	c.memo = newRowMemo(restoreMemoBytes, &c.secretPool)
	up := 0
	for i, dial := range dialers {
		if dial == nil {
			continue
		}
		conn, err := dial()
		if err != nil {
			continue
		}
		cc := &cloudConn{protocol.NewPipe(protocol.NewConn(conn).Bound(ioTimeout), fmt.Sprintf("cloud %d", i))}
		reply, err := cc.call(protocol.MsgHello, protocol.EncodeHello(opts.UserID), protocol.MsgHelloOK)
		if err != nil {
			cc.Fail(net.ErrClosed)
			continue
		}
		c.conns[i] = cc
		ci, n, k, err := protocol.DecodeHelloOK(reply)
		if err != nil || ci != i || n != opts.N || k != opts.K {
			c.Close()
			return nil, fmt.Errorf("client: cloud %d handshake mismatch (ci=%d n=%d k=%d err=%v)", i, ci, n, k, err)
		}
		up++
	}
	if up < opts.K {
		c.Close()
		return nil, fmt.Errorf("client: only %d of %d clouds reachable (< k=%d)", up, opts.N, opts.K)
	}
	return c, nil
}

// ScrubStatus fetches one cloud's scrub report: this user's files the
// cloud's damage affects, and the cloud's in-flight bytes.
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

// RunScrubPass runs one scrub pass on a cloud and returns after the pass
// — including any quarantine and the reclaim of deleted backups — has
// completed on the server.
func (c *Client) RunScrubPass(cloud int) error {
	cc, err := c.cloudConnAt(cloud)
	if err != nil {
		return err
	}
	_, err = cc.call(protocol.MsgScrubControl, nil, protocol.MsgPutOK)
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
// session memo and the buffer pools: plaintext a restore decoded stays in
// memory for at most one session.
func (c *Client) Close() error {
	c.memo.drop()
	c.secretPool.Drop()
	c.sharePool.Drop()
	var firstErr error
	for _, cc := range c.conns {
		if cc == nil {
			continue
		}
		_ = cc.Send(func(pc *protocol.Conn) error { return pc.WriteMsg(protocol.MsgBye, nil) })
		if err := cc.Fail(net.ErrClosed); firstErr == nil {
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

// Delete removes a backup from every connected cloud, releasing share
// references server-side. A cloud that does not hold the path counts as
// deleted, so Delete is idempotent. Any other failure fails the call with
// an error naming every cloud whose delete failed: the backup keeps its
// share references, storage and bill there.
func (c *Client) Delete(path string) error {
	var failed []error
	for i, cc := range c.conns {
		if cc == nil {
			continue
		}
		cloudPath, err := c.pathForCloud(i, path)
		if err != nil {
			return err
		}
		_, err = cc.call(protocol.MsgDeleteFile, protocol.EncodeString(cloudPath), protocol.MsgPutOK)
		var re *protocol.RemoteError
		if err != nil && !(errors.As(err, &re) && re.Code == protocol.CodeNotFound) {
			failed = append(failed, fmt.Errorf("cloud %d: %w", i, err))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("client: delete %q: %w", path, errors.Join(failed...))
	}
	return nil
}
