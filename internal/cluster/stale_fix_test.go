package cluster

// Regression tests for stale-cache lifecycle bugs: a last-good answer
// must not be served once the replica's store generation moved past the
// one it was captured at (delta publishes, node reboots), and must
// never be a dialogue turn (its answer belongs to one session's
// context).

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRouterRejectsSupersededStaleAnswer pins the generation check on
// the stale read path: an answer captured at store generation G must
// not be served as "last known good" after the replicas published
// generation G+1 — the cluster already replaced that answer, and a
// reboot onto a fresh base (swap counter reset) is the same situation
// with a smaller number.
func TestRouterRejectsSupersededStaleAnswer(t *testing.T) {
	nodes := []*fakeNode{newFakeNode(t, "a"), newFakeNode(t, "b")}
	nodes[0].swaps.Store(3)
	nodes[1].swaps.Store(3)
	r, inj, _ := newTestRouter(t, nodes, []string{"flights"}, Options{})

	const text = "cancellation probability please"
	if w := postAnswer(t, r.Handler(), "flights", text); w.Code != http.StatusOK {
		t.Fatalf("warm-up failed: %d", w.Code)
	}
	if r.Stats().StaleSize != 1 {
		t.Fatalf("stale entries = %d, want 1", r.Stats().StaleSize)
	}

	// A delta publish bumps both replicas' store generation; the health
	// sweep observes it. The cached answer is now superseded.
	nodes[0].swaps.Store(4)
	nodes[1].swaps.Store(4)
	r.CheckHealth(context.Background())

	inj.Set(nodes[0].host(), FaultRule{DropProb: 1})
	inj.Set(nodes[1].host(), FaultRule{DropProb: 1})

	w := postAnswer(t, r.Handler(), "flights", text)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("superseded stale answer served: status %d body %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "superseded") {
		t.Fatalf("503 body does not explain the superseded cache entry: %s", w.Body.String())
	}
	if got := r.Stats().StaleServed; got != 0 {
		t.Fatalf("stale_served = %d, want 0", got)
	}
	// The dead entry was evicted, not left at the front of the LRU.
	if got := r.Stats().StaleSize; got != 0 {
		t.Fatalf("stale entries after rejection = %d, want 0", got)
	}
}

// TestRouterStaleServedWhileGenerationCurrent is the positive control:
// with no publish between capture and outage, the generation matches
// and the stale answer is served as before.
func TestRouterStaleServedWhileGenerationCurrent(t *testing.T) {
	nodes := []*fakeNode{newFakeNode(t, "a"), newFakeNode(t, "b")}
	nodes[0].swaps.Store(7)
	nodes[1].swaps.Store(7)
	r, inj, _ := newTestRouter(t, nodes, []string{"flights"}, Options{})

	const text = "cancellations in winter"
	if w := postAnswer(t, r.Handler(), "flights", text); w.Code != http.StatusOK {
		t.Fatalf("warm-up failed: %d", w.Code)
	}
	inj.Set(nodes[0].host(), FaultRule{DropProb: 1})
	inj.Set(nodes[1].host(), FaultRule{DropProb: 1})

	w := postAnswer(t, r.Handler(), "flights", text)
	if w.Code != http.StatusOK || w.Header().Get("X-Cicero-Stale") != "true" {
		t.Fatalf("current-generation stale answer not served: %d stale=%q",
			w.Code, w.Header().Get("X-Cicero-Stale"))
	}
}

// TestRouterKeepsSessionRepliesOutOfTheStaleCache: a dialogue turn's
// answer depends on its session's context, so the text-keyed stale
// cache must neither capture it nor answer a session request from what
// it holds — during an outage a session request fails honestly. The
// node tier bypasses its own answer cache for sessions for the same
// reason.
func TestRouterKeepsSessionRepliesOutOfTheStaleCache(t *testing.T) {
	nodes := []*fakeNode{newFakeNode(t, "a"), newFakeNode(t, "b")}
	r, inj, _ := newTestRouter(t, nodes, []string{"housing"}, Options{})
	post := func(body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/housing/answer", strings.NewReader(body))
		w := httptest.NewRecorder()
		r.Handler().ServeHTTP(w, req)
		return w
	}

	if w := post(`{"text":"what about Texas","session":"alice"}`); w.Code != http.StatusOK {
		t.Fatalf("alice's turn failed: %d %s", w.Code, w.Body.String())
	}
	if got := r.Stats().StaleSize; got != 0 {
		t.Fatalf("stale entries = %d after a session turn, want 0: a context-dependent reply was captured", got)
	}
	// The same text without a session is one answer for everybody and
	// is remembered as before.
	if w := post(`{"text":"what about Texas"}`); w.Code != http.StatusOK {
		t.Fatalf("sessionless warm-up failed: %d", w.Code)
	}
	if got := r.Stats().StaleSize; got != 1 {
		t.Fatalf("stale entries = %d, want 1", got)
	}

	inj.Set(nodes[0].host(), FaultRule{DropProb: 1})
	inj.Set(nodes[1].host(), FaultRule{DropProb: 1})

	w := post(`{"text":"what about Texas","session":"bob"}`)
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" ||
		w.Header().Get("X-Cicero-Stale") != "" {
		t.Fatalf("bob's session request under outage: status %d, stale=%q, body %s — want an honest 503",
			w.Code, w.Header().Get("X-Cicero-Stale"), w.Body.String())
	}
	if got := r.Stats().StaleServed; got != 0 {
		t.Fatalf("stale_served = %d, want 0", got)
	}
	if w := post(`{"text":"what about Texas"}`); w.Code != http.StatusOK || w.Header().Get("X-Cicero-Stale") != "true" {
		t.Fatalf("sessionless request lost its stale fallback: %d", w.Code)
	}
}
