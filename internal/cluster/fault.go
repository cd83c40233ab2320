package cluster

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// FaultRule describes the failures injected into one node's traffic.
// Probabilities are in [0, 1] and evaluated in the order blackhole →
// drop → fail → delay → corrupt; at most one of blackhole/drop/fail
// fires per request.
type FaultRule struct {
	// Blackhole hangs every request until its context is done — the
	// "node accepts connections but never answers" failure the
	// per-request timeout must catch.
	Blackhole bool
	// DropProb returns a transport error (connection reset) without
	// reaching the node.
	DropProb float64
	// FailProb returns a synthetic FailStatus (default 500) response
	// without reaching the node.
	FailProb   float64
	FailStatus int
	// DelayProb delays the request by Delay before forwarding.
	DelayProb float64
	Delay     time.Duration
	// CorruptProb forwards the request but replaces the response body
	// with garbage bytes — the "node returns nonsense" failure the
	// router's response validation must catch.
	CorruptProb float64
}

// errInjected is the transport error injected by DropProb rules.
type errInjected struct{ host string }

func (e errInjected) Error() string {
	return fmt.Sprintf("cluster: injected connection error to %s", e.host)
}

// FaultInjector is an http.RoundTripper that wraps a real transport
// and injects per-host failures: drops, delays, corruption, synthetic
// 5xx, and blackholes. Rules are keyed by the request's host:port, so
// one injector in front of a router's shared transport can fail
// exactly one node of a live cluster. The random stream is seeded, so
// a failure scenario replays deterministically. Safe for concurrent
// use.
type FaultInjector struct {
	base  http.RoundTripper
	clock Clock

	mu    sync.Mutex
	rng   *rand.Rand
	rules map[string]FaultRule
}

// NewFaultInjector wraps base (nil means http.DefaultTransport) with
// an empty rule set drawing randomness from seed.
func NewFaultInjector(base http.RoundTripper, seed int64) *FaultInjector {
	if base == nil {
		base = http.DefaultTransport
	}
	return &FaultInjector{
		base:  base,
		clock: RealClock{},
		rng:   rand.New(rand.NewSource(seed)),
		rules: make(map[string]FaultRule),
	}
}

// SetClock replaces the clock used for injected delays (tests).
func (f *FaultInjector) SetClock(c Clock) { f.clock = c }

// Set installs (or replaces) the rule for a host:port.
func (f *FaultInjector) Set(host string, rule FaultRule) {
	f.mu.Lock()
	f.rules[host] = rule
	f.mu.Unlock()
}

// Clear removes a host's rule; its traffic flows untouched again.
func (f *FaultInjector) Clear(host string) {
	f.mu.Lock()
	delete(f.rules, host)
	f.mu.Unlock()
}

// roll draws one uniform sample from the seeded stream.
func (f *FaultInjector) roll() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rng.Float64()
}

// RoundTrip implements http.RoundTripper.
func (f *FaultInjector) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	rule, ok := f.rules[req.URL.Host]
	f.mu.Unlock()
	if !ok {
		return f.base.RoundTrip(req)
	}
	if rule.Blackhole {
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	if rule.DropProb > 0 && f.roll() < rule.DropProb {
		return nil, errInjected{host: req.URL.Host}
	}
	if rule.FailProb > 0 && f.roll() < rule.FailProb {
		status := rule.FailStatus
		if status == 0 {
			status = http.StatusInternalServerError
		}
		body := fmt.Sprintf(`{"error":"injected %d from %s"}`, status, req.URL.Host)
		return &http.Response{
			StatusCode: status,
			Status:     http.StatusText(status),
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header:        http.Header{"Content-Type": []string{"application/json"}},
			Body:          io.NopCloser(bytes.NewReader([]byte(body))),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	if rule.DelayProb > 0 && rule.Delay > 0 && f.roll() < rule.DelayProb {
		if err := f.clock.Sleep(req.Context(), rule.Delay); err != nil {
			return nil, err
		}
	}
	resp, err := f.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if rule.CorruptProb > 0 && f.roll() < rule.CorruptProb {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		garbage := []byte("\x7f\x45\x4c\x46 not json at all \x00\x01\x02")
		resp.Body = io.NopCloser(bytes.NewReader(garbage))
		resp.ContentLength = int64(len(garbage))
		resp.Header.Del("Content-Length")
	}
	return resp, nil
}
