package cloud

import (
	"net"
	"sync"
	"time"
)

// Bandwidth and latency shaping for network connections, emulating the
// paper's testbeds: the 1Gb/s LAN (§5.1(ii)) and the four commercial
// clouds whose measured speeds Table 2 reports (§5.1(iii)). Shaping wraps
// real connections (or in-process pipes), so the full client/server
// protocol stack is exercised — only the link speed is synthetic.

// Limiter is a token-bucket rate limiter measured in bytes per second.
// A nil *Limiter imposes no limit.
type Limiter struct {
	mu     sync.Mutex
	rate   float64 // tokens (bytes) per second
	burst  float64
	tokens float64
	last   time.Time
	// now is the clock, replaceable for tests.
	now func() time.Time
	// sleep is the wait primitive, replaceable for tests.
	sleep func(time.Duration)
}

// NewLimiter creates a limiter with the given sustained rate in
// bytes/second. The burst defaults to max(rate/10, 64KB) so that small
// messages pass promptly while sustained transfers converge on the rate.
func NewLimiter(bytesPerSec float64) *Limiter {
	if bytesPerSec <= 0 {
		return nil
	}
	burst := bytesPerSec / 10
	if burst < 64*1024 {
		burst = 64 * 1024
	}
	return &Limiter{
		rate:   bytesPerSec,
		burst:  burst,
		tokens: burst,
		last:   time.Now(),
		now:    time.Now,
		sleep:  time.Sleep,
	}
}

// WaitN blocks until n bytes' worth of tokens are available and consumes
// them. Requests larger than the burst are split internally.
func (l *Limiter) WaitN(n int) {
	if l == nil || n <= 0 {
		return
	}
	for n > 0 {
		step := n
		if float64(step) > l.burst {
			step = int(l.burst)
		}
		l.waitStep(step)
		n -= step
	}
}

func (l *Limiter) waitStep(n int) {
	l.mu.Lock()
	now := l.now()
	l.tokens += now.Sub(l.last).Seconds() * l.rate
	l.last = now
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	l.tokens -= float64(n)
	var wait time.Duration
	if l.tokens < 0 {
		wait = time.Duration(-l.tokens / l.rate * float64(time.Second))
	}
	l.mu.Unlock()
	if wait > 0 {
		l.sleep(wait)
	}
}

// LinkProfile describes one shaped network link.
type LinkProfile struct {
	// Name labels the link (e.g. "Amazon").
	Name string
	// UploadBps is the client->server direction, bytes per second.
	UploadBps float64
	// DownloadBps is the server->client direction, bytes per second.
	DownloadBps float64
	// RTT is the round-trip latency; half is charged per request
	// message exchange.
	RTT time.Duration
}

// MBps converts megabytes/second to bytes/second.
func MBps(mb float64) float64 { return mb * 1000 * 1000 }

// LANProfile models the paper's 1Gb/s LAN testbed: the measured effective
// speed was ~110MB/s (§5.5).
func LANProfile() LinkProfile {
	return LinkProfile{Name: "LAN", UploadBps: MBps(110), DownloadBps: MBps(110), RTT: 200 * time.Microsecond}
}

// CloudProfiles returns the four commercial-cloud profiles of Table 2
// (mean measured MB/s; the client in Hong Kong, clouds in SG/HK).
func CloudProfiles() []LinkProfile {
	return []LinkProfile{
		{Name: "Amazon", UploadBps: MBps(5.87), DownloadBps: MBps(4.45), RTT: 35 * time.Millisecond},
		{Name: "Google", UploadBps: MBps(4.99), DownloadBps: MBps(4.45), RTT: 35 * time.Millisecond},
		{Name: "Azure", UploadBps: MBps(19.59), DownloadBps: MBps(13.78), RTT: 2 * time.Millisecond},
		{Name: "Rackspace", UploadBps: MBps(19.42), DownloadBps: MBps(12.93), RTT: 2 * time.Millisecond},
	}
}

// shapedConn wraps a net.Conn with directional rate limits. The write
// limiter shapes bytes written; the read limiter shapes bytes read. The
// same limiter may be shared by several connections to model a shared
// uplink.
type shapedConn struct {
	net.Conn
	writeLim *Limiter
	readLim  *Limiter
	latency  time.Duration
	latOnce  sync.Once
}

// Shape wraps conn with the given limiters and one-way latency, charged
// once at first use (connection establishment cost).
func Shape(conn net.Conn, writeLim, readLim *Limiter, latency time.Duration) net.Conn {
	return &shapedConn{Conn: conn, writeLim: writeLim, readLim: readLim, latency: latency}
}

func (c *shapedConn) chargeLatency() {
	c.latOnce.Do(func() {
		if c.latency > 0 {
			time.Sleep(c.latency)
		}
	})
}

// Write implements net.Conn with upload shaping.
func (c *shapedConn) Write(p []byte) (int, error) {
	c.chargeLatency()
	c.writeLim.WaitN(len(p))
	return c.Conn.Write(p)
}

// Read implements net.Conn with download shaping.
func (c *shapedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.readLim.WaitN(n)
	return n, err
}
