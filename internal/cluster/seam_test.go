package cluster

// Regression tests for the two defects that lived in the seam between
// the health checker and the circuit breaker, when "may I send to this
// replica?" had two owners. Both drive the router through its handler
// and assert through Stats, HealthSnapshot and the fake nodes' hit
// counts only.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// postAnswerCtx starts one answer request under ctx and returns the
// channel its response arrives on.
func postAnswerCtx(ctx context.Context, h http.Handler, dataset, text string) <-chan *httptest.ResponseRecorder {
	done := make(chan *httptest.ResponseRecorder, 1)
	req := httptest.NewRequest(http.MethodPost, "/v1/"+dataset+"/answer",
		strings.NewReader(fmt.Sprintf(`{"text":%q}`, text))).WithContext(ctx)
	go func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		done <- w
	}()
	return done
}

// TestRouterCancelDuringBackoffLeaksNoTrial: the one trial a down
// replica admits used to be claimed before the backoff sleep in front
// of the attempt, so a caller that hung up during that sleep left with
// it — no outcome was ever reported, the slot was never given back, and
// the healed replica was refused every request for the life of the
// process. The trial is now claimed after the sleep.
func TestRouterCancelDuringBackoffLeaksNoTrial(t *testing.T) {
	nodes := []*fakeNode{newFakeNode(t, "a"), newFakeNode(t, "b")}
	r, inj, fc := newTestRouter(t, nodes, []string{"flights"}, Options{
		Breaker: BreakerPolicy{FailureThreshold: 2, Cooldown: time.Minute},
	})
	// With both replicas failing they are tried in placement order: call
	// the first a and the second b.
	order := r.HealthSnapshot().Datasets["flights"].Nodes
	a, b := nodes[0], nodes[1]
	if order[0] != a.id {
		a, b = b, a
	}

	// One request tries a, b, a, b: both replicas go down.
	inj.Set(a.host(), FaultRule{DropProb: 1})
	inj.Set(b.host(), FaultRule{DropProb: 1})
	if w := postAnswer(t, r.Handler(), "flights", "takes both down"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("request against two dropping replicas: status %d, want 503", w.Code)
	}
	for id, ns := range r.Stats().Nodes {
		if got := ns.Replicas["flights"]; got != "down" {
			t.Fatalf("replica on %s is %q after 2 failures at threshold 2, want down", id, got)
		}
	}

	// b heals unnoticed and both cooldowns run out. The next request's
	// trial on a fails, and it sleeps in backoff before b's trial; its
	// caller hangs up right there.
	fc.SetAutoAdvance(false)
	inj.Clear(b.host())
	fc.Advance(time.Minute)
	bHits := b.hits.Load()
	ctx, cancel := context.WithCancel(context.Background())
	done := postAnswerCtx(ctx, r.Handler(), "flights", "hangs up in backoff")
	for fc.Sleepers() == 0 {
		runtime.Gosched()
	}
	cancel()
	<-done
	if got := b.hits.Load(); got != bHits {
		t.Fatalf("b saw %d requests from a caller that hung up before its attempt", got-bHits)
	}

	// a heals too; much later one sweep finds both replicas answering.
	inj.Clear(a.host())
	fc.Advance(time.Hour)
	r.CheckHealth(context.Background())
	for i := 0; i < 20; i++ {
		if w := postAnswer(t, r.Handler(), "flights", fmt.Sprintf("after healing %d", i)); w.Code != http.StatusOK {
			t.Fatalf("request %d after both replicas healed: status %d: %s", i, w.Code, w.Body.String())
		}
	}
	if got := b.hits.Load() - bHits; got == 0 {
		t.Fatalf("healed replica b served 0 of 20 requests (a %d): its trial was never given back", a.hits.Load())
	}
	snap := r.HealthSnapshot()
	for _, n := range snap.Nodes {
		if !n.Healthy || n.Replicas[0].State != "up" {
			t.Fatalf("node %s: healthy %v, replica %q after serving again — want up", n.ID, n.Healthy, n.Replicas[0].State)
		}
	}
	if snap.Status != "ok" {
		t.Fatalf("cluster status %q, want ok", snap.Status)
	}
}

// TestRouterCallerCancelIsNotANodeFailure: an attempt that ends because
// the caller's own context was cancelled used to be booked as the
// node's failure, so threshold client disconnects took a healthy node
// out of rotation and the next caller got a 503.
func TestRouterCallerCancelIsNotANodeFailure(t *testing.T) {
	a := newFakeNode(t, "a")
	r, _, _ := newTestRouter(t, []*fakeNode{a}, []string{"flights"}, Options{
		Breaker: BreakerPolicy{FailureThreshold: 2, Cooldown: time.Hour},
	})
	a.gated.Store(true)
	// The node never learns its two callers left; let go of them before
	// its server is closed.
	t.Cleanup(func() { close(a.gate) })
	for i := int64(1); i <= 2; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := postAnswerCtx(ctx, r.Handler(), "flights", "hangs up mid-flight")
		waitFor(t, func() bool { return a.hits.Load() == i })
		cancel()
		if w := <-done; w.Code == http.StatusOK {
			t.Fatalf("cancelled request %d answered 200", i)
		}
	}
	st := r.Stats()
	if got := st.Nodes["a"].Failure; got != 0 {
		t.Fatalf("node a charged %d failures for its callers' disconnects", got)
	}
	if got := st.Nodes["a"].Replicas["flights"]; got != "up" {
		t.Fatalf("replica is %q after two client disconnects, want up", got)
	}
	if !r.HealthSnapshot().Nodes[0].Healthy {
		t.Fatal("node a reported unhealthy after two client disconnects")
	}

	a.gated.Store(false)
	w := postAnswer(t, r.Handler(), "flights", "the next caller")
	if w.Code != http.StatusOK || w.Header().Get("X-Cicero-Node") != "a" {
		t.Fatalf("next request: status %d from %q: %s", w.Code, w.Header().Get("X-Cicero-Node"), w.Body.String())
	}
}
