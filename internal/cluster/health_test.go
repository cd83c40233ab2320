package cluster

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"
)

// roundTripFunc adapts a function to the router's Transport option, so
// a test can hold chosen requests in flight.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// holdProbes builds a router over two fake nodes whose healthz probes
// for dataset are announced on probing and held until release closes
// (or the probe's context ends).
func holdProbes(t *testing.T, datasets []string, dataset string) (r *Router, probing chan struct{}, release chan struct{}) {
	t.Helper()
	nodes := []*fakeNode{newFakeNode(t, "a"), newFakeNode(t, "b")}
	for _, n := range nodes {
		n.swaps.Store(5)
	}
	probing = make(chan struct{}, 2) // one send per held replica
	release = make(chan struct{})
	rnodes := make([]Node, len(nodes))
	for i, n := range nodes {
		rnodes[i] = Node{ID: n.id, URL: n.srv.URL}
	}
	r, err := New(rnodes, datasets, Options{
		HealthInterval: time.Hour,
		Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
			if strings.HasSuffix(req.URL.Path, "/"+dataset+"/healthz") {
				probing <- struct{}{}
				select {
				case <-release:
				case <-req.Context().Done():
					return nil, req.Context().Err()
				}
			}
			return http.DefaultTransport.RoundTrip(req)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, probing, release
}

// TestHealthSweepInterruptedByShutdownRecordsNoVerdict: a probe that
// fails because the sweep's own context was cancelled — the router is
// shutting down — says nothing about the replica. Booking it as a
// failed observation would mark every replica suspect on the way out,
// and take them down in threshold interrupted sweeps.
func TestHealthSweepInterruptedByShutdownRecordsNoVerdict(t *testing.T) {
	r, probing, _ := holdProbes(t, []string{"flights"}, "flights")
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		swept := make(chan struct{})
		go func() {
			r.CheckHealth(ctx)
			close(swept)
		}()
		<-probing
		<-probing
		cancel()
		<-swept
	}
	for _, n := range r.HealthSnapshot().Nodes {
		for _, rep := range n.Replicas {
			if rep.State != "up" || rep.Error != "" || !rep.Checked.IsZero() {
				t.Errorf("%s on %s: %+v — a cancelled sweep left a verdict", rep.Dataset, n.ID, rep)
			}
		}
	}
}
