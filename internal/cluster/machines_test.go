package cluster

// Tests for the clock and the backoff schedule. Everything here runs
// on the FakeClock: no real sleeps, deterministic under -race.

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

func TestFakeClockSleepAndAdvance(t *testing.T) {
	fc := NewFakeClock(time.Unix(0, 0))
	done := make(chan error, 1)
	go func() {
		done <- fc.Sleep(context.Background(), 100*time.Millisecond)
	}()
	// Synchronize with the sleeper's arrival, then advance past its
	// deadline.
	for fc.Sleepers() == 0 {
		runtime.Gosched()
	}
	fc.Advance(50 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("sleep woke before its deadline")
	default:
	}
	fc.Advance(50 * time.Millisecond)
	if err := <-done; err != nil {
		t.Fatalf("sleep: %v", err)
	}
	if got := fc.Now(); got != time.Unix(0, 0).Add(100*time.Millisecond) {
		t.Fatalf("clock at %v", got)
	}
}

func TestFakeClockAutoAdvance(t *testing.T) {
	fc := NewFakeClock(time.Unix(0, 0))
	fc.SetAutoAdvance(true)
	if err := fc.Sleep(context.Background(), time.Hour); err != nil {
		t.Fatalf("auto-advance sleep: %v", err)
	}
	if got := fc.Now(); got != time.Unix(0, 0).Add(time.Hour) {
		t.Fatalf("clock at %v, want +1h", got)
	}
}

func TestFakeClockSleepHonorsContext(t *testing.T) {
	fc := NewFakeClock(time.Unix(0, 0))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- fc.Sleep(ctx, time.Hour) }()
	for fc.Sleepers() == 0 {
		runtime.Gosched()
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestBackoffBoundsAndCap(t *testing.T) {
	p := BackoffPolicy{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Multiplier: 2, Jitter: 0.25}
	rng := rand.New(rand.NewSource(1))
	for attempt := 0; attempt < 12; attempt++ {
		d := p.Delay(attempt, rng)
		lo := time.Duration(float64(p.Base) * 0.75)
		hi := time.Duration(float64(p.Max) * 1.25)
		if d < lo || d > hi {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, lo, hi)
		}
	}
	// Without jitter the schedule is the exact capped exponential.
	noJitter := BackoffPolicy{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Multiplier: 2, Jitter: 0}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		// Jitter 0 is replaced by the default (0 is the zero value), so
		// pass a nil rng to disable jitter explicitly.
		if got := noJitter.Delay(i, nil); got != w*time.Millisecond {
			t.Fatalf("attempt %d: %v, want %v", i, got, w*time.Millisecond)
		}
	}
}

func TestBackoffDeterministicUnderSeed(t *testing.T) {
	p := BackoffPolicy{}
	a, b := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
	for i := 0; i < 20; i++ {
		if da, db := p.Delay(i, a), p.Delay(i, b); da != db {
			t.Fatalf("attempt %d: %v != %v under the same seed", i, da, db)
		}
	}
}
