package httpserve

import (
	"context"
	"testing"
	"time"
)

// TestGate covers the one admission gate the Server and the cluster
// Router both hold.
func TestGate(t *testing.T) {
	ctx := context.Background()

	t.Run("fast path", func(t *testing.T) {
		g := NewGate(2, time.Hour)
		for i := 1; i <= 2; i++ {
			if err := g.Acquire(ctx); err != nil {
				t.Fatal(err)
			}
			if g.InFlight() != i {
				t.Fatalf("in flight = %d, want %d", g.InFlight(), i)
			}
		}
		g.Release()
		g.Release()
		if g.InFlight() != 0 || g.Shed() != 0 {
			t.Fatalf("in flight %d, shed %d after release, want 0, 0", g.InFlight(), g.Shed())
		}
	})

	t.Run("shed after the timeout counts once", func(t *testing.T) {
		const timeout = 20 * time.Millisecond
		g := NewGate(1, timeout)
		if err := g.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := g.Acquire(ctx); err != ErrOverloaded {
			t.Fatalf("second Acquire = %v, want ErrOverloaded", err)
		}
		if waited := time.Since(start); waited < timeout {
			t.Errorf("shed after %v, before the %v queue timeout", waited, timeout)
		}
		if g.Shed() != 1 || g.InFlight() != 1 {
			t.Fatalf("shed %d, in flight %d, want 1, 1", g.Shed(), g.InFlight())
		}
	})

	t.Run("a queued caller takes the slot that frees up", func(t *testing.T) {
		g := NewGate(1, time.Hour)
		if err := g.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
		got := make(chan error, 1)
		go func() { got <- g.Acquire(ctx) }()
		g.Release()
		if err := <-got; err != nil {
			t.Fatalf("queued Acquire = %v", err)
		}
		if g.Shed() != 0 || g.InFlight() != 1 {
			t.Fatalf("shed %d, in flight %d, want 0, 1", g.Shed(), g.InFlight())
		}
	})

	t.Run("cancelled context returns without counting", func(t *testing.T) {
		g := NewGate(1, time.Hour)
		if err := g.Acquire(ctx); err != nil {
			t.Fatal(err)
		}
		gone, cancel := context.WithCancel(ctx)
		cancel()
		if err := g.Acquire(gone); err != context.Canceled {
			t.Fatalf("Acquire under a cancelled context = %v, want context.Canceled", err)
		}
		if g.Shed() != 0 || g.InFlight() != 1 {
			t.Fatalf("shed %d, in flight %d, want 0, 1: giving up is not a shed", g.Shed(), g.InFlight())
		}
	})

	t.Run("slot released after a panic", func(t *testing.T) {
		g := NewGate(1, time.Hour)
		func() {
			defer func() { _ = recover() }()
			if err := g.Acquire(ctx); err != nil {
				t.Fatal(err)
			}
			defer g.Release()
			panic("guarded work blew up")
		}()
		if g.InFlight() != 0 {
			t.Fatalf("in flight = %d after the panic, want 0", g.InFlight())
		}
	})
}
