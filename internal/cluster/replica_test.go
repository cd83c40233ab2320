package cluster

// State-machine tests for the one per-replica liveness state. The
// TestBreaker* transition tests predate the merge of the circuit
// breaker and the health checker into it and keep their names and
// their assertions: "closed" reads up or suspect, "open" reads down,
// "half-open" reads trial.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

var errSynthetic = errors.New("synthetic failure")

func newTestReplica(threshold int, cooldown time.Duration) (*replica, *FakeClock) {
	fc := NewFakeClock(time.Unix(0, 0))
	return &replica{
		node:    &nodeState{Node: Node{ID: "a"}},
		dataset: "flights",
		policy:  BreakerPolicy{FailureThreshold: threshold, Cooldown: cooldown},
		clock:   fc,
	}, fc
}

func (p *replica) state() string { return p.health().State }

// How an admitted attempt ends.
const (
	succeeded = iota
	failed
	abandoned // its caller went away
)

// attempt admits one request and, if admitted, ends it with outcome.
func (p *replica) attempt(outcome int) bool {
	trial, ok := p.begin()
	if ok {
		p.end(trial, outcome)
	}
	return ok
}

func (p *replica) end(trial bool, outcome int) {
	switch outcome {
	case succeeded:
		p.finish(trial, nil, false)
	case failed:
		p.finish(trial, errSynthetic, false)
	default:
		p.finish(trial, context.Canceled, true)
	}
}

// ranks a replica as candidates would: skipped, in the rotation, or a
// last resort.
func (p *replica) rank(now time.Time) string {
	switch ok, preferred := p.standing(now); {
	case !ok:
		return "skip"
	case preferred:
		return "first"
	default:
		return "last"
	}
}

func TestBreakerOpensAfterConsecutiveFailures(t *testing.T) {
	p, _ := newTestReplica(3, time.Second)
	for i := 0; i < 2; i++ {
		if !p.attempt(failed) {
			t.Fatalf("replica below the threshold rejected request %d", i)
		}
	}
	if got := p.state(); got != "suspect" {
		t.Fatalf("state %v after 2 failures, want suspect", got)
	}
	// A success resets the consecutive count.
	p.attempt(succeeded)
	if got := p.state(); got != "up" {
		t.Fatalf("state %v after a success, want up", got)
	}
	p.attempt(failed)
	p.attempt(failed)
	if got := p.state(); got != "suspect" {
		t.Fatalf("non-consecutive failures took the replica %v", got)
	}
	p.attempt(failed)
	if got := p.state(); got != "down" {
		t.Fatalf("state %v after 3 consecutive failures, want down", got)
	}
	if _, ok := p.begin(); ok {
		t.Fatal("down replica admitted a request inside the cooldown")
	}
}

func TestBreakerHalfOpenProbeSuccessCloses(t *testing.T) {
	p, fc := newTestReplica(1, time.Second)
	p.attempt(failed)
	if _, ok := p.begin(); ok {
		t.Fatal("down replica admitted a request")
	}
	fc.Advance(time.Second)
	if got := p.state(); got != "trial" {
		t.Fatalf("state %v after cooldown, want trial", got)
	}
	trial, ok := p.begin()
	if !ok || !trial {
		t.Fatalf("begin after the cooldown = (trial %v, ok %v), want the trial admitted", trial, ok)
	}
	if _, ok := p.begin(); ok {
		t.Fatal("a second concurrent trial was admitted")
	}
	if got := p.rank(fc.Now()); got != "skip" {
		t.Fatalf("rank %s while the trial is in flight, want skip", got)
	}
	p.end(trial, succeeded)
	if got := p.state(); got != "up" {
		t.Fatalf("state %v after trial success, want up", got)
	}
	if trial, ok := p.begin(); !ok || trial {
		t.Fatalf("begin on an up replica = (trial %v, ok %v), want a plain admission", trial, ok)
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	p, fc := newTestReplica(1, time.Second)
	p.attempt(failed)
	fc.Advance(time.Second)
	// The trial takes half a second to fail: the fresh cooldown counts
	// from the failure, not from the first one.
	trial, ok := p.begin()
	if !ok {
		t.Fatal("trial rejected after the cooldown")
	}
	fc.Advance(500 * time.Millisecond)
	p.end(trial, failed)
	if got := p.state(); got != "down" {
		t.Fatalf("state %v after trial failure, want down", got)
	}
	fc.Advance(999 * time.Millisecond)
	if _, ok := p.begin(); ok {
		t.Fatal("replica admitted a request before the fresh cooldown ended")
	}
	fc.Advance(time.Millisecond)
	if !p.attempt(succeeded) {
		t.Fatal("no trial after the second cooldown")
	}
	if got := p.state(); got != "up" {
		t.Fatalf("state %v, want up", got)
	}
}

func TestBreakerConcurrentUse(t *testing.T) {
	p, fc := newTestReplica(5, time.Second)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				switch (i + j) % 4 {
				case 0:
					p.attempt(failed)
				case 1:
					p.attempt(abandoned)
				case 2:
					p.probed(uint64(j), nil)
				default:
					p.attempt(succeeded)
				}
				if j%50 == 0 {
					fc.Advance(100 * time.Millisecond)
				}
				_ = p.rank(fc.Now())
				_ = p.state()
			}
		}(i)
	}
	wg.Wait()
	// Every admitted attempt was finished, so no trial can be left held:
	// once the cooldown is over the replica must admit again.
	fc.Advance(time.Second)
	if !p.attempt(succeeded) {
		t.Fatalf("replica stuck in %s with every attempt finished", p.state())
	}
}

// TestReplicaAbandonedAttemptIsNoObservation: an attempt whose caller
// went away says nothing about the replica — not a failure, not a
// success — but it does give the trial back.
func TestReplicaAbandonedAttemptIsNoObservation(t *testing.T) {
	p, fc := newTestReplica(2, time.Second)
	for i := 0; i < 5; i++ {
		p.attempt(abandoned)
	}
	if got := p.state(); got != "up" {
		t.Fatalf("state %v after abandoned attempts, want up", got)
	}
	if p.node.failure.Load() != 0 || p.node.success.Load() != 0 {
		t.Fatalf("abandoned attempts were counted: %d ok, %d failed", p.node.success.Load(), p.node.failure.Load())
	}
	p.attempt(failed)
	p.attempt(abandoned)
	if got := p.state(); got != "suspect" {
		t.Fatalf("an abandoned attempt changed %v, want suspect kept", got)
	}
	p.attempt(failed)
	fc.Advance(time.Second)
	if !p.attempt(abandoned) {
		t.Fatal("trial rejected after the cooldown")
	}
	if got := p.state(); got != "trial" {
		t.Fatalf("state %v after an abandoned trial, want trial (still owed)", got)
	}
	if !p.attempt(succeeded) {
		t.Fatal("an abandoned trial was never given back")
	}
}

// TestReplicaSweepsAloneTakeItDown is the first fact only the merge
// makes true: threshold failed probes take a replica down with no
// request sent, so no caller pays to discover a dead node — and they
// keep it down, because every further failed probe restarts the
// cooldown.
func TestReplicaSweepsAloneTakeItDown(t *testing.T) {
	p, fc := newTestReplica(3, 2*time.Second)
	for i := 0; i < 2; i++ {
		p.probed(0, errSynthetic)
		fc.Advance(time.Second)
	}
	if got := p.state(); got != "suspect" {
		t.Fatalf("state %v after 2 failed sweeps, want suspect", got)
	}
	if got := p.rank(fc.Now()); got != "last" {
		t.Fatalf("suspect replica ranked %s, want last resort", got)
	}
	p.probed(0, errSynthetic)
	if got := p.state(); got != "down" {
		t.Fatalf("state %v after 3 failed sweeps, want down", got)
	}
	for i := 0; i < 10; i++ {
		fc.Advance(time.Second)
		p.probed(0, errSynthetic)
		if _, ok := p.begin(); ok {
			t.Fatalf("sweep %d: a request was admitted to a replica every probe finds dead", i)
		}
	}
	if p.node.failure.Load() != 0 {
		t.Fatalf("%d request failures recorded, want 0: sweeps alone did this", p.node.failure.Load())
	}
	h := p.health()
	if h.Healthy || h.Error != errSynthetic.Error() || h.Checked != fc.Now() {
		t.Fatalf("health row %+v does not report the failing probe", h)
	}
}

// TestReplicaPassingProbeEndsCooldownWithOneTrial is the second: a
// passing probe on a down replica does not bring it up — a healthz that
// answers is not proof that answers work — but ends the cooldown early
// and puts the replica back in the rotation, where exactly one request
// is admitted as the trial.
func TestReplicaPassingProbeEndsCooldownWithOneTrial(t *testing.T) {
	p, fc := newTestReplica(2, time.Hour)
	p.attempt(failed)
	p.attempt(failed)
	fc.Advance(time.Minute)
	if got := p.rank(fc.Now()); got != "skip" {
		t.Fatalf("down replica ranked %s inside its cooldown, want skip", got)
	}
	p.probed(9, nil)
	h := p.health()
	if h.State != "trial" || h.Healthy || h.Swaps != 9 || h.Error != "" {
		t.Fatalf("after a passing probe %+v, want trial, not yet healthy, swaps 9, no error", h)
	}
	if got := p.rank(fc.Now()); got != "first" {
		t.Fatalf("probe-vouched replica ranked %s, want in the rotation", got)
	}
	trial, ok := p.begin()
	if !ok || !trial {
		t.Fatalf("begin = (trial %v, ok %v), want the trial admitted 59 minutes early", trial, ok)
	}
	if _, ok := p.begin(); ok {
		t.Fatal("a second request was admitted beside the trial")
	}
	// A probe that passes while the trial is in flight decides nothing.
	p.probed(9, nil)
	if _, ok := p.begin(); ok {
		t.Fatal("a passing probe admitted a second trial")
	}
	p.end(trial, failed)
	if got := p.state(); got != "down" {
		t.Fatalf("state %v after the trial failed, want down for a fresh cooldown", got)
	}
	fc.Advance(59 * time.Minute)
	if _, ok := p.begin(); ok {
		t.Fatal("the failed trial did not start a fresh cooldown")
	}
	// Below the threshold a passing probe is a success like any other.
	q, _ := newTestReplica(2, time.Hour)
	q.attempt(failed)
	q.probed(1, nil)
	if got := q.state(); got != "up" {
		t.Fatalf("suspect replica %v after a passing probe, want up", got)
	}
}
