package httpserve

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// ErrOverloaded is returned (and mapped to 503) when admission control
// sheds a request: every in-flight slot stayed busy for the whole queue
// timeout.
var ErrOverloaded = errors.New("httpserve: server overloaded")

// Gate is the admission gate of both serving tiers: a bounded number of
// in-flight slots, a queue timeout for callers that find them all
// taken, and a count of the callers shed when it ran out. The Server
// holds one around kernel executions, the cluster Router one around
// forwards.
type Gate struct {
	sem     chan struct{}
	timeout time.Duration
	shed    atomic.Uint64
}

// NewGate builds a gate with maxInFlight slots whose queued callers
// wait at most queueTimeout.
func NewGate(maxInFlight int, queueTimeout time.Duration) *Gate {
	return &Gate{sem: make(chan struct{}, maxInFlight), timeout: queueTimeout}
}

// Acquire takes a slot, waiting at most the queue timeout. It fails
// with ErrOverloaded — and counts one shed request — when no slot
// frees up in time, or with ctx's error, uncounted, when the caller
// gives up first. Every successful Acquire needs one Release.
func (g *Gate) Acquire(ctx context.Context) error {
	select {
	case g.sem <- struct{}{}:
		return nil
	default:
	}
	timer := time.NewTimer(g.timeout)
	defer timer.Stop()
	select {
	case g.sem <- struct{}{}:
		return nil
	case <-timer.C:
		g.shed.Add(1)
		return ErrOverloaded
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release frees the slot a successful Acquire took; deferring it keeps
// the slot from leaking when the guarded work panics.
func (g *Gate) Release() { <-g.sem }

// InFlight is the number of slots currently held.
func (g *Gate) InFlight() int { return len(g.sem) }

// Shed is the number of callers turned away with ErrOverloaded.
func (g *Gate) Shed() uint64 { return g.shed.Load() }
