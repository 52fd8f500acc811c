// Package protocol defines the binary wire protocol between CDStore
// clients and CDStore servers (the "Comm" modules of Figure 4).
//
// Framing: every message is [type:1][length:4][payload:length]. Shares
// travel in batches bounded by BatchBytes (§4.1: "we first batch the
// shares to be uploaded to each cloud in a 4MB buffer and upload the
// buffer when it is full") to amortize WAN round trips.
package protocol

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"cdstore/internal/metadata"
)

// BatchBytes is the share upload batch cap (4MB, §4.1).
const BatchBytes = 4 << 20

// batchShares caps the shares in one batch, beside BatchBytes on their
// bytes: the fingerprints of one MsgQuery or MsgGetShares, the shares of
// one MsgPutShares.
const batchShares = 1024

// CutBatch is the one rule that cuts shares into batches: a batch
// holding count shares of bytes bytes in all must be sent before a share
// of next bytes joins it when it holds batchShares shares already, or
// when that share would take it past BatchBytes. An empty batch admits
// any share, so a share larger than BatchBytes travels alone. Asked with
// next = 1, it says whether the batch is full, to be sent at once.
func CutBatch(count, bytes, next int) bool {
	return count > 0 && (count >= batchShares || bytes+next > BatchBytes)
}

// Message types.
const (
	MsgHello       = byte(1)  // client -> server: {userID:8}
	MsgHelloOK     = byte(2)  // server -> client: {cloudIndex:4, n:4, k:4}
	MsgQuery       = byte(3)  // client -> server: {count:4, fp*count} intra-user dedup query
	MsgQueryResult = byte(4)  // server -> client: {count:4, bitmap} 1 = already owned, skip upload
	MsgPutShares   = byte(5)  // client -> server: batch of shares
	MsgPutOK       = byte(6)  // server -> client: ack {} (empty: the reply says nothing of what was stored)
	MsgPutRecipe   = byte(7)  // client -> server: file recipe
	MsgGetRecipe   = byte(8)  // client -> server: {pathLen:4, path}
	MsgRecipe      = byte(9)  // server -> client: {recipeBytes}
	MsgGetShares   = byte(10) // client -> server: {count:4, fp*count}
	MsgShares      = byte(11) // server -> client: {count:4, [fp][len:4][data]*}
	MsgListFiles   = byte(12) // client -> server: {}
	MsgFileList    = byte(13) // server -> client: {count:4, [pathLen:4 path size:8 nsec:8]*}
	MsgDeleteFile  = byte(14) // client -> server: {pathLen:4, path}
	MsgError       = byte(15) // server -> client: {code:4, msgLen:4, msg}
	MsgBye         = byte(16) // client -> server: close session
)

// Error codes carried by MsgError.
const (
	CodeInternal   = uint32(1)
	CodeNotFound   = uint32(2)
	CodeBadRequest = uint32(3)
)

// MaxMessage bounds a single frame (a batch plus slack).
const MaxMessage = BatchBytes + (1 << 20)

// MaxShareBytes is the largest share one message carries, through a
// gateway too: a one-share MsgShares reply, whose {count:4, fp, len:4}
// outweighs a one-share MsgPutShares' framing, inside a mux frame.
const MaxShareBytes = MaxMessage - MuxHeaderSize - 4 - metadata.FingerprintSize - 4

// Protocol errors.
var (
	ErrTooLarge  = errors.New("protocol: message exceeds MaxMessage")
	ErrMalformed = errors.New("protocol: malformed payload")
)

// RemoteError is a server-reported failure.
type RemoteError struct {
	Code uint32
	Msg  string
}

func (e *RemoteError) Error() string { return fmt.Sprintf("remote error %d: %s", e.Code, e.Msg) }

// IOTimeout bounds how long a served client may take to deliver the rest
// of a message once its first byte has arrived, and to take one reply
// (Conn.Bound). A MaxMessage frame takes about 1.2 s on Table 2's
// slowest link (4.45 MB/s). A connection idle between messages has no
// deadline, so pooled gateway upstreams and idle clients stay open.
//
// It bounds the asking side too, by one rule keyed by request type: a
// Pipe.Call on a bound connection waits at most IOTimeout for its reply,
// from the moment the reply is next on the wire. MsgScrubControl is the
// one exception, because its reply comes once a whole scrub pass has
// run: only the rest of that reply, after its first byte, is bounded.
const IOTimeout = time.Minute

// Conn frames messages over a byte stream.
type Conn struct {
	br *bufio.Reader
	r  io.Reader // the stream br buffers (see readFull)
	bw *bufio.Writer
	c  io.Closer
	// dl is the stream's deadlines, nil if it has none; timeout is
	// non-zero once Bound has applied the serving side's rule to them.
	dl      deadliner
	timeout time.Duration
}

// deadliner is the part of net.Conn that bounds a stalled read or write.
type deadliner interface {
	SetReadDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
}

// NewConn wraps a stream. If rw implements io.Closer, Close closes it.
func NewConn(rw io.ReadWriter) *Conn {
	return NewConnSize(rw, 256*1024)
}

// NewConnSize wraps a stream with bufSize-byte read and write buffers.
// The buffer size caps syscall batching, not message size — a 4MB batch
// still flows through an 8KB buffer. Connection-dense tiers (the
// gateway's downstream side, benchmark harnesses simulating thousands
// of clients) use small buffers so per-connection memory tracks the
// connection's role instead of the default server sizing.
func NewConnSize(rw io.ReadWriter, bufSize int) *Conn {
	conn := &Conn{
		br: bufio.NewReaderSize(rw, bufSize),
		r:  rw,
		bw: bufio.NewWriterSize(rw, bufSize),
	}
	if c, ok := rw.(io.Closer); ok {
		conn.c = c
	}
	conn.dl, _ = rw.(deadliner)
	return conn
}

// Bound applies the serving side's deadline rule to c and returns c: no
// deadline while waiting for a message's first byte, timeout for the
// rest of the message, and timeout for every message written. A peer
// that stalls inside a message, or never reads a reply, fails that read
// or write, and the caller drops it along with what its request holds.
// A stream without deadlines stays unbounded. Clients and the gateway's
// upstreams bound their connections as well, and a Pipe over a bound
// connection also bounds the wait for each reply's first byte, except
// for a MsgScrubControl, whose reply takes a whole scrub pass (see
// IOTimeout).
func (c *Conn) Bound(timeout time.Duration) *Conn {
	if c.dl != nil {
		c.timeout = timeout
	}
	return c
}

// armWrite gives the message about to be written the bound's timeout to
// leave. A stream that refuses a deadline is closed, which the write
// reports.
func (c *Conn) armWrite() {
	if c.timeout != 0 {
		_ = c.dl.SetWriteDeadline(time.Now().Add(c.timeout))
	}
}

// Close closes the underlying stream if it is closable.
func (c *Conn) Close() error {
	if c.c != nil {
		return c.c.Close()
	}
	return nil
}

// WriteMsg sends one framed message and flushes.
func (c *Conn) WriteMsg(typ byte, payload []byte) error {
	if len(payload) > MaxMessage {
		return ErrTooLarge
	}
	c.armWrite()
	// The header goes into the write buffer's free space: a stack array
	// handed to bufio.Writer.Write escapes, an allocation per message.
	b := append(c.headerSpace(5), typ)
	c.bw.Write(binary.BigEndian.AppendUint32(b, uint32(len(payload))))
	c.bw.Write(payload)
	return c.bw.Flush()
}

// shareHeaderSize is the fixed part of one share inside a MsgPutShares
// payload: {secretSeq:8, secretSize:4, dataLen:4}.
const shareHeaderSize = 8 + 4 + 4

// WriteShareBatch sends shares as one MsgPutShares message and flushes:
// the bytes WriteMsg(MsgPutShares, EncodeShareBatch(shares)) puts on the
// wire, written from the shares' own buffers through the connection's
// write buffer, with no payload built in between.
func (c *Conn) WriteShareBatch(shares []ShareUpload) error {
	size := 4
	for i := range shares {
		size += shareHeaderSize + len(shares[i].Data)
	}
	if size > MaxMessage {
		return ErrTooLarge
	}
	c.armWrite()
	// Headers are composed in the write buffer's own free space, so
	// nothing is allocated per share. A bufio.Writer keeps its first
	// error and refuses everything after it; Flush reports it.
	b := c.headerSpace(5 + 4)
	b = append(b, MsgPutShares)
	b = binary.BigEndian.AppendUint32(b, uint32(size))
	b = binary.BigEndian.AppendUint32(b, uint32(len(shares)))
	c.bw.Write(b)
	for i := range shares {
		s := &shares[i]
		b = c.headerSpace(shareHeaderSize)
		b = binary.BigEndian.AppendUint64(b, s.SecretSeq)
		b = binary.BigEndian.AppendUint32(b, s.SecretSize)
		b = binary.BigEndian.AppendUint32(b, uint32(len(s.Data)))
		c.bw.Write(b)
		c.bw.Write(s.Data)
	}
	return c.bw.Flush()
}

// WriteShares sends shares as one MsgShares message and flushes: the
// bytes WriteMsg(MsgShares, EncodeShares(shares)) puts on the wire, or
// with muxed set WriteMuxMsg(stream, MsgShares, EncodeShares(shares)),
// written from the shares' own buffers through the connection's write
// buffer, with no payload built in between. A reply past MaxMessage is
// refused with ErrTooLarge before any byte is written.
func (c *Conn) WriteShares(muxed bool, stream uint32, shares []ShareDownload) error {
	size := 4
	for i := range shares {
		size += metadata.FingerprintSize + 4 + len(shares[i].Data)
	}
	frame := size
	if muxed {
		frame += MuxHeaderSize
	}
	if frame > MaxMessage {
		return ErrTooLarge
	}
	c.armWrite()
	// As in WriteShareBatch: headers go into the write buffer's free
	// space, and Flush reports the first error.
	b := c.headerSpace(5 + MuxHeaderSize + 4)
	if muxed {
		b = append(b, MsgMuxData)
		b = binary.BigEndian.AppendUint32(b, uint32(frame))
		b = binary.BigEndian.AppendUint32(b, stream)
		b = append(b, MsgShares)
	} else {
		b = append(b, MsgShares)
		b = binary.BigEndian.AppendUint32(b, uint32(size))
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(shares)))
	c.bw.Write(b)
	for i := range shares {
		s := &shares[i]
		b = c.headerSpace(metadata.FingerprintSize + 4)
		b = append(b, s.Fingerprint[:]...)
		b = binary.BigEndian.AppendUint32(b, uint32(len(s.Data)))
		c.bw.Write(b)
		c.bw.Write(s.Data)
	}
	return c.bw.Flush()
}

// headerSpace returns an empty slice over the write buffer's free space,
// flushed first if fewer than n bytes of it are left (a buffer smaller
// than n altogether makes the caller's append allocate instead).
func (c *Conn) headerSpace(n int) []byte {
	if c.bw.Available() < n {
		c.bw.Flush()
	}
	return c.bw.AvailableBuffer()
}

// --- payload codecs ---

// ShareUpload is one share inside a MsgPutShares batch. The client's
// fingerprint is intentionally NOT trusted by the server; it recomputes
// its own (§3.3 inter-user deduplication).
type ShareUpload struct {
	SecretSeq  uint64
	SecretSize uint32
	Data       []byte
}

// EncodeHello builds a MsgHello payload.
func EncodeHello(userID uint64) []byte {
	return binary.BigEndian.AppendUint64(nil, userID)
}

// DecodeHello parses a MsgHello payload.
func DecodeHello(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, ErrMalformed
	}
	return binary.BigEndian.Uint64(p), nil
}

// EncodeHelloOK builds a MsgHelloOK payload.
func EncodeHelloOK(cloudIndex, n, k int) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(cloudIndex))
	out = binary.BigEndian.AppendUint32(out, uint32(n))
	out = binary.BigEndian.AppendUint32(out, uint32(k))
	return out
}

// DecodeHelloOK parses a MsgHelloOK payload.
func DecodeHelloOK(p []byte) (cloudIndex, n, k int, err error) {
	if len(p) != 12 {
		return 0, 0, 0, ErrMalformed
	}
	return int(binary.BigEndian.Uint32(p)), int(binary.BigEndian.Uint32(p[4:])), int(binary.BigEndian.Uint32(p[8:])), nil
}

// EncodeFingerprints builds a MsgQuery / MsgGetShares payload.
func EncodeFingerprints(fps []metadata.Fingerprint) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(fps)))
	for i := range fps {
		out = append(out, fps[i][:]...)
	}
	return out
}

// EncodeBitmap builds a MsgQueryResult payload: bit i set means the
// client already owns share i of the query and can skip the upload.
func EncodeBitmap(owned []bool) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(owned)))
	bits := make([]byte, (len(owned)+7)/8)
	for i, o := range owned {
		if o {
			bits[i/8] |= 1 << (i % 8)
		}
	}
	return append(out, bits...)
}

// DecodeBitmap parses a MsgQueryResult payload.
func DecodeBitmap(p []byte) ([]bool, error) {
	if len(p) < 4 {
		return nil, ErrMalformed
	}
	count := int(binary.BigEndian.Uint32(p))
	bits := p[4:]
	if count < 0 || len(bits) != (count+7)/8 {
		return nil, ErrMalformed
	}
	out := make([]bool, count)
	for i := range out {
		out[i] = bits[i/8]&(1<<(i%8)) != 0
	}
	return out, nil
}

// EncodeShareBatch builds a MsgPutShares payload. It is the reference
// encoder of the format; a sender that already holds the shares in
// buffers of their own streams them with Conn.WriteShareBatch instead of
// copying them into a payload first.
func EncodeShareBatch(shares []ShareUpload) []byte {
	size := 4
	for i := range shares {
		size += 8 + 4 + 4 + len(shares[i].Data)
	}
	out := make([]byte, 0, size)
	out = binary.BigEndian.AppendUint32(out, uint32(len(shares)))
	for i := range shares {
		s := &shares[i]
		out = binary.BigEndian.AppendUint64(out, s.SecretSeq)
		out = binary.BigEndian.AppendUint32(out, s.SecretSize)
		out = binary.BigEndian.AppendUint32(out, uint32(len(s.Data)))
		out = append(out, s.Data...)
	}
	return out
}

// DecodeShareBatch parses a MsgPutShares payload. Unlike
// DecodeShareBatchInto, each share's Data is an independent copy.
func DecodeShareBatch(p []byte) ([]ShareUpload, error) {
	out, err := DecodeShareBatchInto(nil, p)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i].Data = append([]byte(nil), out[i].Data...)
	}
	return out, nil
}

// ShareDownload is one share inside a MsgShares payload.
type ShareDownload struct {
	Fingerprint metadata.Fingerprint
	// Data, as DecodeShares returns it, is a view into the payload it
	// parsed: it stays valid only while that payload is neither reused
	// nor written to, and keeps the whole payload reachable.
	Data []byte
}

// EncodeShares builds a MsgShares payload. It is the reference encoder
// of the format; the server streams its replies with Conn.WriteShares
// from the container cache's buffers instead.
func EncodeShares(shares []ShareDownload) []byte {
	size := 4
	for i := range shares {
		size += metadata.FingerprintSize + 4 + len(shares[i].Data)
	}
	out := make([]byte, 0, size)
	out = binary.BigEndian.AppendUint32(out, uint32(len(shares)))
	for i := range shares {
		out = append(out, shares[i].Fingerprint[:]...)
		out = binary.BigEndian.AppendUint32(out, uint32(len(shares[i].Data)))
		out = append(out, shares[i].Data...)
	}
	return out
}

// DecodeShares parses a MsgShares payload. The shares' Data alias p.
func DecodeShares(p []byte) ([]ShareDownload, error) {
	if len(p) < 4 {
		return nil, ErrMalformed
	}
	count := int(binary.BigEndian.Uint32(p))
	p = p[4:]
	if count < 0 || count > 1<<22 {
		return nil, ErrMalformed
	}
	out := make([]ShareDownload, 0, count)
	for i := 0; i < count; i++ {
		if len(p) < metadata.FingerprintSize+4 {
			return nil, ErrMalformed
		}
		var s ShareDownload
		copy(s.Fingerprint[:], p)
		dlen := int(binary.BigEndian.Uint32(p[metadata.FingerprintSize:]))
		p = p[metadata.FingerprintSize+4:]
		if dlen < 0 || len(p) < dlen {
			return nil, ErrMalformed
		}
		s.Data = p[:dlen:dlen]
		p = p[dlen:]
		out = append(out, s)
	}
	if len(p) != 0 {
		return nil, ErrMalformed
	}
	return out, nil
}

// EncodeString builds a single-string payload (MsgGetRecipe, MsgDeleteFile).
func EncodeString(s string) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(s)))
	return append(out, s...)
}

// DecodeString parses a single-string payload.
func DecodeString(p []byte) (string, error) {
	if len(p) < 4 {
		return "", ErrMalformed
	}
	n := int(binary.BigEndian.Uint32(p))
	if n < 0 || len(p) != 4+n {
		return "", ErrMalformed
	}
	return string(p[4:]), nil
}

// FileInfo is one entry of a MsgFileList payload.
type FileInfo struct {
	Path       string
	FileSize   uint64
	NumSecrets uint64
}

// EncodeFileList builds a MsgFileList payload.
func EncodeFileList(files []FileInfo) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(files)))
	for i := range files {
		out = binary.BigEndian.AppendUint32(out, uint32(len(files[i].Path)))
		out = append(out, files[i].Path...)
		out = binary.BigEndian.AppendUint64(out, files[i].FileSize)
		out = binary.BigEndian.AppendUint64(out, files[i].NumSecrets)
	}
	return out
}

// DecodeFileList parses a MsgFileList payload.
func DecodeFileList(p []byte) ([]FileInfo, error) {
	if len(p) < 4 {
		return nil, ErrMalformed
	}
	count := int(binary.BigEndian.Uint32(p))
	p = p[4:]
	if count < 0 || count > 1<<24 {
		return nil, ErrMalformed
	}
	out := make([]FileInfo, 0, count)
	for i := 0; i < count; i++ {
		if len(p) < 4 {
			return nil, ErrMalformed
		}
		plen := int(binary.BigEndian.Uint32(p))
		p = p[4:]
		if plen < 0 || len(p) < plen+16 {
			return nil, ErrMalformed
		}
		var f FileInfo
		f.Path = string(p[:plen])
		f.FileSize = binary.BigEndian.Uint64(p[plen:])
		f.NumSecrets = binary.BigEndian.Uint64(p[plen+8:])
		p = p[plen+16:]
		out = append(out, f)
	}
	if len(p) != 0 {
		return nil, ErrMalformed
	}
	return out, nil
}

// EncodeError builds a MsgError payload.
func EncodeError(code uint32, msg string) []byte {
	out := binary.BigEndian.AppendUint32(nil, code)
	out = binary.BigEndian.AppendUint32(out, uint32(len(msg)))
	return append(out, msg...)
}

// DecodeError parses a MsgError payload into a RemoteError.
func DecodeError(p []byte) (*RemoteError, error) {
	if len(p) < 8 {
		return nil, ErrMalformed
	}
	code := binary.BigEndian.Uint32(p)
	n := int(binary.BigEndian.Uint32(p[4:]))
	if n < 0 || len(p) != 8+n {
		return nil, ErrMalformed
	}
	return &RemoteError{Code: code, Msg: string(p[8:])}, nil
}
