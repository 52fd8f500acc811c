package storage

import (
	"testing"
	"time"
)

func TestLimiterThrottlesToRate(t *testing.T) {
	// Virtual clock: track requested sleeps instead of real time.
	l := NewLimiter(1000 * 1000) // 1MB/s
	var slept time.Duration
	now := time.Now()
	l.now = func() time.Time { return now }
	l.sleep = func(d time.Duration) { slept += d; now = now.Add(d) }

	// Consume 2MB beyond the burst: must wait ~2 seconds.
	l.WaitN(2 * 1000 * 1000)
	if slept < 1500*time.Millisecond || slept > 2500*time.Millisecond {
		t.Fatalf("slept %v for 2MB at 1MB/s; want ~2s", slept)
	}
}

func TestLimiterBurstPassesImmediately(t *testing.T) {
	l := NewLimiter(10 * 1000 * 1000) // 10MB/s
	var slept time.Duration
	now := time.Now()
	l.now = func() time.Time { return now }
	l.sleep = func(d time.Duration) { slept += d; now = now.Add(d) }
	l.WaitN(1024) // well under burst
	if slept != 0 {
		t.Fatalf("small send slept %v; want 0", slept)
	}
}

func TestLimiterRefill(t *testing.T) {
	l := NewLimiter(1000)
	var slept time.Duration
	now := time.Now()
	l.now = func() time.Time { return now }
	l.sleep = func(d time.Duration) { slept += d; now = now.Add(d) }
	l.WaitN(66 * 1024) // burst floor is 64KB: depletes and waits
	first := slept
	if first == 0 {
		t.Fatal("expected a wait after burst depletion")
	}
	// A long idle period refills the bucket: next small send is free.
	now = now.Add(2 * time.Minute)
	slept = 0
	l.WaitN(1024)
	if slept != 0 {
		t.Fatalf("after refill slept %v; want 0", slept)
	}
}

func TestNilLimiterIsUnlimited(t *testing.T) {
	var l *Limiter
	done := make(chan struct{})
	go func() {
		l.WaitN(1 << 30)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("nil limiter blocked")
	}
	if NewLimiter(0) != nil {
		t.Fatal("rate 0 should produce nil limiter")
	}
}
