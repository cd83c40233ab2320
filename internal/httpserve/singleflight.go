package httpserve

import (
	"context"
	"sync"
	"sync/atomic"

	"cicero/internal/engine"
	"cicero/internal/serve"
)

// Singleflight deduplication: when a burst of identical requests
// misses the cache simultaneously, only the first one (the leader)
// executes the kernel; the rest join the in-flight computation and
// share its result. Flights are keyed by (store identity, generation
// number, canonical text) so a request admitted after a publish can
// never join a flight still computing against a previous generation —
// not even one of the same store object, re-installed since.

// flightKey identifies one deduplicated computation.
type flightKey struct {
	store engine.StoreView
	gen   uint64
	key   string
}

// flightCall is one in-flight computation.
type flightCall struct {
	done chan struct{}
	ans  serve.Answer
	err  error
}

// flightGroup tracks in-flight computations by key.
type flightGroup struct {
	mu     sync.Mutex
	m      map[flightKey]*flightCall
	shared atomic.Uint64
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[flightKey]*flightCall)}
}

// do executes fn exactly once per key among concurrent callers. The
// returned shared flag reports whether this caller joined an existing
// flight rather than leading one. Joiners stop waiting when their ctx
// expires; the leader always runs fn to completion so the result can
// still serve other joiners and the cache.
func (g *flightGroup) do(ctx context.Context, k flightKey, fn func() (serve.Answer, error)) (ans serve.Answer, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.m[k]; ok {
		g.mu.Unlock()
		g.shared.Add(1)
		select {
		case <-c.done:
			return c.ans, true, c.err
		case <-ctx.Done():
			return serve.Answer{}, true, ctx.Err()
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[k] = c
	g.mu.Unlock()

	// The flight is dismantled in a defer so a panicking fn (a backend
	// bug) cannot leak the entry and brick the key: joiners are released
	// and the panic propagates to the leader's caller.
	defer func() {
		g.mu.Lock()
		delete(g.m, k)
		g.mu.Unlock()
		close(c.done)
	}()
	c.ans, c.err = fn()
	return c.ans, false, c.err
}
