package cluster

import (
	"sync"
	"sync/atomic"
	"time"
)

// BreakerPolicy tunes when a failing replica is taken out of rotation
// and for how long.
type BreakerPolicy struct {
	// FailureThreshold is the number of consecutive failed observations
	// — forwarded requests and health probes alike — that takes a
	// replica down (default 5).
	FailureThreshold int
	// Cooldown is how long a down replica is skipped before one trial
	// request is let through (default 2s).
	Cooldown time.Duration
}

// nodeState is one node's identity and forwarding counters.
type nodeState struct {
	Node
	success atomic.Uint64
	failure atomic.Uint64
}

// replica is the router's one opinion of a dataset on a node: whether
// it may be sent a request now, and in which order. A health probe's
// result and a forwarded request's outcome are the same kind of
// observation and move the same counter. A replica is up until an
// observation fails, suspect (tried last) below FailureThreshold
// consecutive failures, and down (skipped) at it; any success below the
// threshold makes it up again. At the threshold only a request can: a
// passing healthz is not proof that answers work, so a passing probe
// just ends the cooldown early, and once the cooldown is over exactly
// one request is admitted as the trial — up if it succeeds, down for a
// fresh cooldown if not. Every failure at the threshold restarts the
// cooldown, so the sweeps over a dead node keep it down and no request
// pays to rediscover that. Safe for concurrent use; time comes from the
// injected Clock.
type replica struct {
	node    *nodeState
	dataset string
	policy  BreakerPolicy
	clock   Clock

	mu      sync.Mutex
	fails   int       // consecutive failed observations, capped at the threshold
	retryAt time.Time // end of the cooldown (meaningful at the threshold)
	trial   bool      // the one trial request is in flight
	swaps   uint64    // store generation from the last good probe
	lastErr error     // last observation's failure; nil after a success
	checked time.Time // last probe
}

// admissibleLocked reports whether an attempt may start now: always
// below the threshold; at it, only the one trial after the cooldown.
func (p *replica) admissibleLocked(now time.Time) bool {
	return p.fails < p.policy.FailureThreshold || (!p.trial && !now.Before(p.retryAt))
}

// standing is what candidates orders by: whether the replica may be
// tried at all, and whether its last observation succeeded — those
// share the rotation, the others are a last resort.
func (p *replica) standing(now time.Time) (admissible, preferred bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.admissibleLocked(now), p.lastErr == nil
}

// begin admits one attempt, taking the trial when the replica is at the
// threshold. Every admitted attempt must end in finish, with the trial
// flag begin returned.
func (p *replica) begin() (trial, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.admissibleLocked(p.clock.Now()) {
		return false, false
	}
	if p.fails < p.policy.FailureThreshold {
		return false, true
	}
	p.trial = true
	return true, true
}

// finish records how an admitted attempt ended and returns the store
// generation to tag its answer with. An abandoned attempt — the caller
// went away mid-flight, so the error is theirs — is no observation; it
// only gives the trial back.
func (p *replica) finish(trial bool, err error, abandoned bool) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if trial {
		p.trial = false
	}
	switch {
	case abandoned:
	case err != nil:
		p.node.failure.Add(1)
		p.failLocked(err)
	default:
		p.node.success.Add(1)
		p.fails, p.lastErr = 0, nil
	}
	return p.swaps
}

// probed records a health probe's verdict.
func (p *replica) probed(swaps uint64, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.clock.Now()
	p.checked = now
	if err != nil {
		p.failLocked(err)
		return
	}
	p.swaps, p.lastErr = swaps, nil
	if p.fails < p.policy.FailureThreshold {
		p.fails = 0
	} else if !p.trial {
		p.retryAt = now
	}
}

func (p *replica) failLocked(err error) {
	p.lastErr = err
	if p.fails < p.policy.FailureThreshold {
		p.fails++
	}
	if p.fails >= p.policy.FailureThreshold {
		p.retryAt = p.clock.Now().Add(p.policy.Cooldown)
	}
}

// ReplicaHealth is one replica's row in the router healthz payload.
type ReplicaHealth struct {
	Node    string `json:"node"`
	Dataset string `json:"dataset"`
	// State is "up", "suspect", "down", or "trial" (the cooldown is
	// over: one request is, or will be, the trial).
	State string `json:"state"`
	// Healthy reports State up; replicas start up so a router serves
	// traffic before its first sweep completes.
	Healthy bool `json:"healthy"`
	// Swaps is the dataset's store swap count from the last good probe
	// — the generation stale cache entries are tagged with.
	Swaps uint64 `json:"swaps"`
	// Error is the last failed observation ("" after a success).
	Error string `json:"error,omitempty"`
	// Checked is when the replica was last probed (zero before the
	// first sweep).
	Checked time.Time `json:"checked"`
}

func (p *replica) health() ReplicaHealth {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := ReplicaHealth{
		Node:    p.node.ID,
		Dataset: p.dataset,
		State:   "down",
		Healthy: p.fails == 0,
		Swaps:   p.swaps,
		Checked: p.checked,
	}
	switch {
	case p.fails == 0:
		h.State = "up"
	case p.fails < p.policy.FailureThreshold:
		h.State = "suspect"
	case p.trial || !p.clock.Now().Before(p.retryAt):
		h.State = "trial"
	}
	if p.lastErr != nil {
		h.Error = p.lastErr.Error()
	}
	return h
}
