package protocol

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// Pipe carries request/reply exchanges over one Conn, for any number of
// concurrent callers, without a goroutine of its own.
//
// Reply order. A server answers each connection's requests inline, one
// reply per request, in the order the requests arrived — plain frames
// and mux frames of every stream alike (server.serverConn.run). Only
// Bye, of the connection or of a mux stream, gets no reply. So the n-th
// reply on a connection answers the n-th request written to it, and a
// Pipe matches them by order alone: a call writes its request under the
// write lock and takes the next place in line; when the call before it
// is done reading, it reads the next reply into its own frame and hands
// the read turn to the call after it, waking that call alone. The write
// lock is never held while reading or handing on the turn, so a caller
// blocked writing a large request never stops the reply ahead of it
// from being read.
//
// A read or write error fails the pipe: the connection is closed, and
// every queued call and every later one returns that first error. A
// request refused before any byte of it is written (ErrTooLarge) fails
// only its own call: it takes no place in line. On a bound connection
// (Conn.Bound) a peer that takes no request or sends no reply within the
// bound fails the pipe too, by the rule stated at IOTimeout, with an
// error naming the peer.
type Pipe struct {
	conn *Conn
	name string        // the peer, as errors name it
	wmu  sync.Mutex    // serialises writes and the places they take
	turn chan struct{} // the last place's turn; guarded by wmu
	err  atomic.Pointer[error]
}

// turns recycles the channels that pass the read turn. Each gets one
// token, from the call before the place it stands for, and that place's
// call takes it.
var turns = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// NewPipe makes conn's pipe to the peer called name. Every later use of
// conn goes through it.
func NewPipe(conn *Conn, name string) *Pipe {
	p := &Pipe{conn: conn, name: name, turn: make(chan struct{}, 1)}
	p.turn <- struct{}{}
	return p
}

// Call writes one request of type reqType with write and reads its reply
// into frame, growing it if needed. The returned payload aliases *frame.
func (p *Pipe) Call(reqType byte, write func(*Conn) error, frame *[]byte) (byte, []byte, error) {
	p.wmu.Lock()
	if err := p.write(write); err != nil {
		p.wmu.Unlock()
		return 0, nil, err
	}
	mine, next := p.turn, turns.Get().(chan struct{})
	p.turn = next
	p.wmu.Unlock()
	defer func() { next <- struct{}{} }()
	<-mine
	turns.Put(mine)
	if err := p.Err(); err != nil {
		return 0, nil, err
	}
	typ, payload, err := p.conn.readReply(reqType, frame)
	if err != nil {
		return 0, nil, p.fail(err)
	}
	return typ, payload, nil
}

// Send writes a message that gets no reply (a Bye).
func (p *Pipe) Send(write func(*Conn) error) error {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	return p.write(write)
}

// write runs write unless the pipe has failed. The caller holds wmu.
func (p *Pipe) write(write func(*Conn) error) error {
	if err := p.Err(); err != nil {
		return err
	}
	err := write(p.conn)
	if err != nil && !errors.Is(err, ErrTooLarge) {
		return p.fail(err)
	}
	return err
}

// fail fails the pipe with err, named after the peer when it is the
// bound's deadline, and returns the error the pipe failed with.
func (p *Pipe) fail(err error) error {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		err = fmt.Errorf("%s did not answer within %v: %w", p.name, p.conn.timeout, err)
	}
	p.Fail(err)
	return p.Err()
}

// Err returns the error the pipe failed with, nil while it works.
func (p *Pipe) Err() error {
	if err := p.err.Load(); err != nil {
		return *err
	}
	return nil
}

// Fail fails the pipe with err unless it has failed already, and closes
// the connection. It returns what closing returned, nil after the first
// failure.
func (p *Pipe) Fail(err error) error {
	if !p.err.CompareAndSwap(nil, &err) {
		return nil
	}
	return p.conn.Close()
}
