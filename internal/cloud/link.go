package cloud

import (
	"net"
	"sync"
	"time"

	"cdstore/internal/storage"
)

// Bandwidth and latency shaping for network connections, emulating the
// paper's testbeds: the 1Gb/s LAN (§5.1(ii)) and the four commercial
// clouds whose measured speeds Table 2 reports (§5.1(iii)). Shaping wraps
// real connections (or in-process pipes), so the full client/server
// protocol stack is exercised — only the link speed is synthetic. The
// bytes are metered with storage.Limiter.

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
	writeLim *storage.Limiter
	readLim  *storage.Limiter
	latency  time.Duration
	latOnce  sync.Once
}

// Shape wraps conn with the given limiters and one-way latency, charged
// once at first use (connection establishment cost).
func Shape(conn net.Conn, writeLim, readLim *storage.Limiter, latency time.Duration) net.Conn {
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
