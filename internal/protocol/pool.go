// Pooled, zero-copy variants of the hot-path framing and codecs. The
// server's put/get loop is the intended caller: per PR-4 measurement the
// cluster is server-bound, and a 4MB upload batch was costing a fresh
// frame allocation per read, a per-share payload copy (DecodeShareBatch)
// and a fresh response buffer (EncodeShares) per message. These variants
// mirror the client's SharePool discipline: buffers come from a pool,
// decoded shares alias the frame, and the frame returns to the pool once
// the handler is done with the batch.
package protocol

import (
	"encoding/binary"
	"io"
	"sync"
	"time"

	"cdstore/internal/metadata"
)

// framePool recycles message-sized buffers. Pooling (rather than one
// buffer per session) matters at high session counts: idle sessions hold
// nothing, so 1000 mostly-idle connections don't pin 1000 batch-sized
// buffers — the pool's working set tracks the number of *concurrently
// decoding* handlers, and the GC trims it under pressure.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// GetFrame fetches a reusable buffer from the frame pool. The pointer
// form avoids boxing the slice header on every Put.
func GetFrame() *[]byte { return framePool.Get().(*[]byte) }

// PutFrame returns a buffer to the frame pool. The caller must no longer
// hold any slice aliasing it (shares decoded with DecodeShareBatchInto
// alias their frame — release them first).
func PutFrame(b *[]byte) { framePool.Put(b) }

// ReadMsgInto receives one framed message into *frame, growing it if
// needed. The returned payload aliases *frame and is valid until the
// frame's next use. On a Bound connection it waits for the message's
// first byte without a deadline and reads the rest within the bound.
func (c *Conn) ReadMsgInto(frame *[]byte) (byte, []byte, error) {
	if c.timeout == 0 {
		return c.readMsgInto(frame)
	}
	if _, err := c.br.Peek(1); err != nil {
		return 0, nil, err
	}
	_ = c.dl.SetReadDeadline(time.Now().Add(c.timeout)) // as in armWrite
	typ, payload, err := c.readMsgInto(frame)
	_ = c.dl.SetReadDeadline(time.Time{})
	return typ, payload, err
}

// readMsgInto is ReadMsgInto without the bound. Steady state it
// allocates nothing: the frame grows to the session's largest message
// and is reused, and the header is read byte-wise — passing a stack
// buffer into bufio.Read would leak it to the underlying reader
// interface and heap-allocate it on every frame.
func (c *Conn) readMsgInto(frame *[]byte) (byte, []byte, error) {
	var hdr [5]byte
	for i := range hdr {
		b, err := c.br.ReadByte()
		if err != nil {
			if err == io.EOF && i > 0 {
				return 0, nil, io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
		hdr[i] = b
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxMessage {
		return 0, nil, ErrTooLarge
	}
	if cap(*frame) < int(n) {
		*frame = make([]byte, n)
	}
	payload := (*frame)[:n]
	if err := c.readFull(payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// readFull is io.ReadFull against the concrete buffered reader, with the
// same EOF semantics: io.EOF before any byte, ErrUnexpectedEOF after.
func (c *Conn) readFull(p []byte) error {
	read := 0
	for read < len(p) {
		n, err := c.br.Read(p[read:])
		read += n
		if err != nil {
			if err == io.EOF && read > 0 {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// DecodeShareBatchInto parses a MsgPutShares payload into dst (grown as
// needed, returned re-sliced). Each share's Data ALIASES p — zero copy —
// so the result is valid only while the caller retains p (the frame).
// This is safe for the server put path because the container layer copies
// share bytes on append; nothing downstream retains the aliases.
func DecodeShareBatchInto(dst []ShareUpload, p []byte) ([]ShareUpload, error) {
	if len(p) < 4 {
		return nil, ErrMalformed
	}
	count := int(binary.BigEndian.Uint32(p))
	p = p[4:]
	if count < 0 || count > 1<<22 {
		return nil, ErrMalformed
	}
	dst = dst[:0]
	for i := 0; i < count; i++ {
		if len(p) < 16 {
			return nil, ErrMalformed
		}
		var s ShareUpload
		s.SecretSeq = binary.BigEndian.Uint64(p)
		s.SecretSize = binary.BigEndian.Uint32(p[8:])
		dlen := int(binary.BigEndian.Uint32(p[12:]))
		p = p[16:]
		if dlen < 0 || len(p) < dlen {
			return nil, ErrMalformed
		}
		s.Data = p[:dlen:dlen]
		p = p[dlen:]
		dst = append(dst, s)
	}
	if len(p) != 0 {
		return nil, ErrMalformed
	}
	return dst, nil
}

// DecodeFingerprintsInto parses a fingerprint list payload into dst
// (grown as needed, returned re-sliced). Fingerprints are values, so
// unlike share data nothing aliases p afterwards.
func DecodeFingerprintsInto(dst []metadata.Fingerprint, p []byte) ([]metadata.Fingerprint, error) {
	if len(p) < 4 {
		return nil, ErrMalformed
	}
	count := int(binary.BigEndian.Uint32(p))
	p = p[4:]
	if count < 0 || len(p) != count*metadata.FingerprintSize {
		return nil, ErrMalformed
	}
	dst = dst[:0]
	for i := 0; i < count; i++ {
		var fp metadata.Fingerprint
		copy(fp[:], p[i*metadata.FingerprintSize:])
		dst = append(dst, fp)
	}
	return dst, nil
}

// EncodeSharesInto appends a MsgShares payload to buf (typically a
// pooled frame re-sliced to buf[:0]) and returns it. Share data is
// copied into buf, so the sources — container cache sub-slices on the
// server get path — are not retained by the wire write.
func EncodeSharesInto(buf []byte, shares []ShareDownload) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(shares)))
	for i := range shares {
		buf = append(buf, shares[i].Fingerprint[:]...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(shares[i].Data)))
		buf = append(buf, shares[i].Data...)
	}
	return buf
}
