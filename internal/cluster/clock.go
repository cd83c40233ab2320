package cluster

import (
	"context"
	"sync"
	"time"
)

// Clock abstracts wall time for the cluster layer's state machines
// (backoff sleeps, replica cooldowns, health staleness), so retry and
// liveness behavior is unit-testable with a FakeClock and zero real
// sleeps. The production implementation is RealClock.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in
	// the latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

// RealClock is the production Clock over the time package.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (RealClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// FakeClock is a manually advanced Clock for tests: time moves only
// through Advance (or instantly, with auto-advance), so state-machine
// tests never really sleep and stay deterministic under -race.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	auto    bool
	waiters []*fakeWaiter
}

type fakeWaiter struct {
	deadline time.Time
	done     chan struct{}
}

// NewFakeClock starts a fake clock at start.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start}
}

// Now implements Clock.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// SetAutoAdvance makes Sleep return immediately after advancing the
// clock by the requested duration — the mode retry-loop tests use, so a
// backoff schedule runs in zero wall time while still moving Now().
func (c *FakeClock) SetAutoAdvance(on bool) {
	c.mu.Lock()
	c.auto = on
	c.mu.Unlock()
}

// Sleep implements Clock. Without auto-advance it blocks until Advance
// moves the clock past the deadline (or ctx is done).
func (c *FakeClock) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	c.mu.Lock()
	if c.auto {
		c.now = c.now.Add(d)
		c.mu.Unlock()
		return ctx.Err()
	}
	w := &fakeWaiter{deadline: c.now.Add(d), done: make(chan struct{})}
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()
	select {
	case <-w.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Advance moves the clock forward, waking every sleeper whose deadline
// has passed.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	kept := c.waiters[:0]
	for _, w := range c.waiters {
		if !w.deadline.After(c.now) {
			close(w.done)
		} else {
			kept = append(kept, w)
		}
	}
	c.waiters = kept
	c.mu.Unlock()
}

// Sleepers reports how many Sleep calls are currently blocked, so tests
// can synchronize an Advance with a sleeper's arrival.
func (c *FakeClock) Sleepers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}
