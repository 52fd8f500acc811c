package storage

import (
	"sync"
	"time"
)

// Limiter is a token-bucket rate limiter measured in bytes per second,
// the one byte meter of the system: cloud.Shape meters an emulated
// link's bytes with it, and a server's scrub pass its backend reads. A
// nil *Limiter imposes no limit.
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
// bytes/second, or nil for an unlimited one (bytesPerSec <= 0). The
// burst defaults to max(rate/10, 64KB) so that small messages pass
// promptly while sustained transfers converge on the rate.
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
// them. Requests larger than the burst are split internally, so a
// 4 MB container read against a 1 MB/s budget waits about 4 seconds.
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
