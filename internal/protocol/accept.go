package protocol

import (
	"io"
	"net"
	"sync"
	"time"
)

// Acceptor serves a net.Listener the one way the server and the gateway
// both do: a goroutine per accepted connection (the multi-threaded
// communication module of §4.6), each connection tracked until its
// handler returns so that Close can drop it. The zero value is ready to
// use; an Acceptor serves one listener.
type Acceptor struct {
	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	stop   chan struct{} // closed by Close: ends an accept backoff
	wg     sync.WaitGroup
}

// Serve accepts connections from ln until Close, running handle on each
// in its own goroutine and closing the connection when handle returns;
// handle's error is dropped. Serve returns nil once Close is called, or
// the first accept error that is not temporary. A temporary one — a full
// descriptor table (EMFILE, ENFILE) — is waited out: Serve backs off from
// 5 ms, doubling up to 1 s, as net/http's Server.Serve does, and tries
// again.
func (a *Acceptor) Serve(ln net.Listener, handle func(io.ReadWriter) error) error {
	a.mu.Lock()
	closed, stop := a.closed, a.stopLocked()
	a.ln = ln
	a.mu.Unlock()
	if closed {
		ln.Close()
		return nil
	}
	var delay time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if a.isClosed() {
				return nil
			}
			if ne, ok := err.(net.Error); !ok || !ne.Temporary() {
				return err
			}
			delay = min(max(2*delay, 5*time.Millisecond), time.Second)
			select {
			case <-stop:
			case <-time.After(delay):
			}
			continue
		}
		delay = 0
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			conn.Close()
			continue
		}
		if a.conns == nil {
			a.conns = make(map[net.Conn]struct{})
		}
		a.conns[conn] = struct{}{}
		a.wg.Add(1)
		a.mu.Unlock()
		go func() {
			defer a.wg.Done()
			defer func() {
				conn.Close()
				a.mu.Lock()
				delete(a.conns, conn)
				a.mu.Unlock()
			}()
			_ = handle(conn)
		}()
	}
}

// Close ends Serve: it closes the listener and every open connection,
// then waits for their handlers to return. Later calls do nothing.
func (a *Acceptor) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	close(a.stopLocked())
	ln := a.ln
	for c := range a.conns {
		c.Close()
	}
	a.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	a.wg.Wait()
}

func (a *Acceptor) isClosed() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.closed
}

// stopLocked returns the channel Close closes, made on first use.
func (a *Acceptor) stopLocked() chan struct{} {
	if a.stop == nil {
		a.stop = make(chan struct{})
	}
	return a.stop
}
