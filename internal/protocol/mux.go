// Stream multiplexing: many logical client sessions over one byte
// stream. A mux frame is an ordinary outer frame of type MsgMuxData
// whose payload carries a virtual-stream header in front of a normal
// message:
//
//	[MsgMuxData:1][length:4] [streamID:4][innerType:1][innerPayload]
//
// The outer framing is unchanged, so the pooled zero-copy read path
// (ReadMsgInto) applies as-is and DecodeMuxHeader is pure re-slicing:
// steady-state demux stays 0 allocs/message. Streams are implicit —
// the first message on an unknown stream id creates the virtual
// session (which must authenticate with its own Hello; authentication
// is per stream, never per connection) and an inner MsgBye retires it.
//
// This is the wire format the gateway tier rides on: thousands of
// downstream client sessions share a handful of persistent upstream
// connections per cloud, paying one TCP+bufio setup per connection
// instead of per session, with each reply's stream id checked against
// the stream that asked. Ordering is inherited from the carrier: the
// server demuxes and processes mux frames inline in arrival order, so
// replies come back in request order (the invariant Pipe states, in
// pipe.go), per-stream FIFO holds, and a blocked handler (flow-limiter
// backpressure) stops the whole connection's reads — TCP then pushes
// the stall back to the gateway, which is exactly the byte-budget
// propagation the many-user path wants.
package protocol

import (
	"encoding/binary"
	"errors"
)

// MsgMuxData is the outer frame type carrying one multiplexed message.
const MsgMuxData = byte(22)

// MuxHeaderSize is the per-message mux overhead: stream id + inner type.
const MuxHeaderSize = 5

// MaxMuxStreams bounds the live virtual sessions one connection may
// hold open, so a single mux connection cannot grow server-side session
// state without bound. Retired (Bye'd) streams do not count.
const MaxMuxStreams = 1 << 16

// ErrMuxHeader marks a MsgMuxData payload too short to carry the
// stream header.
var ErrMuxHeader = errors.New("protocol: short mux header")

// WriteMuxMsg sends one inner message on a stream, framed as MsgMuxData,
// and flushes. The inner payload may be MuxHeaderSize smaller than a
// top-level message's limit.
func (c *Conn) WriteMuxMsg(stream uint32, typ byte, payload []byte) error {
	if len(payload)+MuxHeaderSize > MaxMessage {
		return ErrTooLarge
	}
	c.armWrite()
	var hdr [5 + MuxHeaderSize]byte
	hdr[0] = MsgMuxData
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)+MuxHeaderSize))
	binary.BigEndian.PutUint32(hdr[5:], stream)
	hdr[9] = typ
	if _, err := c.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := c.bw.Write(payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

// DecodeMuxHeader splits a MsgMuxData payload into its stream id, inner
// message type, and inner payload. The inner payload ALIASES p (full
// capacity capped so appends cannot scribble past it) — zero copy, so
// it is valid exactly as long as p's frame.
func DecodeMuxHeader(p []byte) (stream uint32, typ byte, inner []byte, err error) {
	if len(p) < MuxHeaderSize {
		return 0, 0, nil, ErrMuxHeader
	}
	return binary.BigEndian.Uint32(p), p[4], p[MuxHeaderSize:len(p):len(p)], nil
}
