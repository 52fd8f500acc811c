package server

import (
	"sync"
	"time"
)

// tokenBucket meters scrub reads to a byte/sec budget. Unlike
// cloud.Limiter (which shapes a single network pipe and spins), this
// bucket is built for a background job: take() sleeps, tolerates being
// asked for more than one second of budget at once (a container can be
// 4MB against a 1MB/s budget), and refills continuously so a server idle
// between passes does not bank an unbounded burst (the stored burst is
// capped at one second of budget).
type tokenBucket struct {
	mu          sync.Mutex
	bytesPerSec float64
	avail       float64 // may go negative: debt from an oversized take
	last        time.Time
}

// newTokenBucket returns a bucket refilling at bytesPerSec, or nil for
// an unlimited budget (bytesPerSec <= 0).
func newTokenBucket(bytesPerSec int64) *tokenBucket {
	if bytesPerSec <= 0 {
		return nil
	}
	return &tokenBucket{bytesPerSec: float64(bytesPerSec), last: time.Now()}
}

// take charges n bytes against the budget, sleeping until the charge is
// covered. A nil bucket is unlimited. Oversized charges (n larger than
// one second of budget) are allowed and paid off by sleeping past the
// refill horizon — the bucket goes into debt rather than deadlocking.
func (b *tokenBucket) take(n int64) {
	if b == nil || n <= 0 {
		return
	}
	b.mu.Lock()
	now := time.Now()
	b.avail += now.Sub(b.last).Seconds() * b.bytesPerSec
	b.last = now
	if b.avail > b.bytesPerSec {
		b.avail = b.bytesPerSec // burst cap: one second of budget
	}
	b.avail -= float64(n)
	var wait time.Duration
	if b.avail < 0 {
		wait = time.Duration(-b.avail / b.bytesPerSec * float64(time.Second))
	}
	b.mu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
}
