package cluster

// End-to-end fault-injection suite for the router: every failure mode
// the tentpole promises — timeout, 5xx, connection error, corrupt
// body, all-replicas-down staleness, replicas going down and coming
// back through a trial, load shedding — reproduced deterministically
// through the FaultInjector transport hook against fake nodes.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cicero/internal/engine"
	"cicero/internal/httpserve"
	"cicero/internal/serve"
)

// fakeNode is a stand-in cmd/serve backend: answers every dataset,
// reports healthy, counts requests, and can hold answers on a gate.
type fakeNode struct {
	id     string
	srv    *httptest.Server
	hits   atomic.Int64
	swaps  atomic.Uint64
	gate   chan struct{} // nil = answer immediately
	gated  atomic.Bool
	status atomic.Int64 // 0 = 200
}

func newFakeNode(t *testing.T, id string) *fakeNode {
	t.Helper()
	n := &fakeNode{id: id, gate: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/{dataset}/answer", func(w http.ResponseWriter, r *http.Request) {
		n.hits.Add(1)
		if n.gated.Load() {
			select {
			case <-n.gate:
			case <-r.Context().Done():
				return
			}
		}
		if st := n.status.Load(); st != 0 {
			w.WriteHeader(int(st))
			fmt.Fprintf(w, `{"error":"synthetic %d"}`, st)
			return
		}
		var req httpserve.AnswerRequest
		json.NewDecoder(r.Body).Decode(&req)
		httpserve.WriteJSON(w, http.StatusOK, httpserve.AnswerResponse{
			Kind:     "summary",
			Request:  req.Text,
			Text:     "answer from " + n.id + " to " + req.Text,
			Answered: true,
		})
	})
	mux.HandleFunc("GET /v1/{dataset}/healthz", func(w http.ResponseWriter, r *http.Request) {
		httpserve.WriteJSON(w, http.StatusOK, httpserve.HealthResponse{Status: "ok", Speeches: 1, Swaps: n.swaps.Load()})
	})
	n.srv = httptest.NewServer(mux)
	t.Cleanup(n.srv.Close)
	return n
}

func (n *fakeNode) host() string { u, _ := url.Parse(n.srv.URL); return u.Host }

// newTestRouter wires fake nodes, a FaultInjector, and an auto-advance
// FakeClock into a router. Mutate opts before calling for special
// cases; Transport/Clock/Seed are always overridden.
func newTestRouter(t *testing.T, nodes []*fakeNode, datasets []string, opts Options) (*Router, *FaultInjector, *FakeClock) {
	t.Helper()
	fc := NewFakeClock(time.Unix(1_700_000_000, 0))
	fc.SetAutoAdvance(true)
	inj := NewFaultInjector(nil, 7)
	inj.SetClock(fc)
	opts.Transport = inj
	opts.Clock = fc
	opts.Seed = 7
	rnodes := make([]Node, len(nodes))
	for i, n := range nodes {
		rnodes[i] = Node{ID: n.id, URL: n.srv.URL}
	}
	r, err := New(rnodes, datasets, opts)
	if err != nil {
		t.Fatal(err)
	}
	r.CheckHealth(context.Background())
	return r, inj, fc
}

func postAnswer(t *testing.T, h http.Handler, dataset, text string) *httptest.ResponseRecorder {
	t.Helper()
	body := fmt.Sprintf(`{"text":%q}`, text)
	req := httptest.NewRequest(http.MethodPost, "/v1/"+dataset+"/answer", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestRouterForwardsAndAttributes(t *testing.T) {
	nodes := []*fakeNode{newFakeNode(t, "a"), newFakeNode(t, "b")}
	r, _, _ := newTestRouter(t, nodes, []string{"flights"}, Options{})
	w := postAnswer(t, r.Handler(), "flights", "how many flights were cancelled")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	node := w.Header().Get("X-Cicero-Node")
	if node != "a" && node != "b" {
		t.Fatalf("X-Cicero-Node = %q", node)
	}
	if got := w.Header().Get("X-Cicero-Attempts"); got != "1" {
		t.Fatalf("X-Cicero-Attempts = %q, want 1", got)
	}
	var resp httpserve.AnswerResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad answer body: %v", err)
	}
	if !strings.HasPrefix(resp.Text, "answer from "+node) {
		t.Fatalf("body attributed to %q, header to %q", resp.Text, node)
	}
}

// failoverCase proves one failure mode on one node triggers failover
// to the surviving replica.
func failoverCase(t *testing.T, inject func(inj *FaultInjector, victim *fakeNode), opts Options) {
	t.Helper()
	nodes := []*fakeNode{newFakeNode(t, "a"), newFakeNode(t, "b")}
	r, inj, _ := newTestRouter(t, nodes, []string{"flights"}, opts)
	victim, survivor := nodes[0], nodes[1]
	inject(inj, victim)
	for i := 0; i < 4; i++ {
		w := postAnswer(t, r.Handler(), "flights", fmt.Sprintf("query %d", i))
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, w.Code, w.Body.String())
		}
		if got := w.Header().Get("X-Cicero-Node"); got != survivor.id {
			t.Fatalf("request %d answered by %q, want survivor %q", i, got, survivor.id)
		}
	}
	st := r.Stats()
	if st.Failovers == 0 && st.Nodes[victim.id].Failure == 0 {
		// Round-robin may start every pass on the survivor; force the
		// victim first by checking at least one failure was recorded
		// somewhere across the run.
		t.Fatalf("no failover or failure recorded: %+v", st)
	}
}

func TestRouterFailoverOn5xx(t *testing.T) {
	failoverCase(t, func(inj *FaultInjector, v *fakeNode) {
		inj.Set(v.host(), FaultRule{FailProb: 1})
	}, Options{})
}

func TestRouterFailoverOnConnectionError(t *testing.T) {
	failoverCase(t, func(inj *FaultInjector, v *fakeNode) {
		inj.Set(v.host(), FaultRule{DropProb: 1})
	}, Options{})
}

func TestRouterFailoverOnCorruptResponse(t *testing.T) {
	failoverCase(t, func(inj *FaultInjector, v *fakeNode) {
		inj.Set(v.host(), FaultRule{CorruptProb: 1})
	}, Options{})
}

func TestRouterFailoverOnTimeout(t *testing.T) {
	// The blackhole holds the connection open until the per-attempt
	// deadline; keep it short so the test doesn't crawl. This is the one
	// case that burns real wall time (the attempt context is real).
	failoverCase(t, func(inj *FaultInjector, v *fakeNode) {
		inj.Set(v.host(), FaultRule{Blackhole: true})
	}, Options{RequestTimeout: 50 * time.Millisecond})
}

func TestRouterServesStaleWhenAllReplicasDown(t *testing.T) {
	nodes := []*fakeNode{newFakeNode(t, "a"), newFakeNode(t, "b")}
	nodes[0].swaps.Store(3)
	nodes[1].swaps.Store(3)
	r, inj, fc := newTestRouter(t, nodes, []string{"flights"}, Options{})

	const text = "cancellation probability please"
	if w := postAnswer(t, r.Handler(), "flights", text); w.Code != http.StatusOK {
		t.Fatalf("warm-up failed: %d", w.Code)
	}

	// Take the whole dataset down.
	inj.Set(nodes[0].host(), FaultRule{DropProb: 1})
	inj.Set(nodes[1].host(), FaultRule{DropProb: 1})

	w := postAnswer(t, r.Handler(), "flights", text)
	if w.Code != http.StatusOK {
		t.Fatalf("stale fallback: status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Cicero-Stale"); got != "true" {
		t.Fatalf("X-Cicero-Stale = %q, want true", got)
	}
	var m map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil {
		t.Fatalf("stale body not JSON: %v", err)
	}
	if m["stale"] != true {
		t.Fatalf("stale marker missing: %v", m)
	}
	if _, ok := m["stale_age_ns"]; !ok {
		t.Fatalf("stale_age_ns missing: %v", m)
	}
	if gen, ok := m["generation"].(float64); !ok || uint64(gen) != 3 {
		t.Fatalf("generation = %v, want 3 (the probed swap count)", m["generation"])
	}
	if got := r.Stats().StaleServed; got != 1 {
		t.Fatalf("stale_served = %d, want 1", got)
	}

	// A text never answered has nothing stale to fall back on: an
	// explicit 503 with Retry-After, not a silent empty answer.
	w = postAnswer(t, r.Handler(), "flights", "never seen before")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("unseen text: status %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// Recovery: clear the faults and the dataset serves fresh again.
	inj.Clear(nodes[0].host())
	inj.Clear(nodes[1].host())
	fc.Advance(r.opts.Breaker.Cooldown)
	w = postAnswer(t, r.Handler(), "flights", text)
	if w.Code != http.StatusOK || w.Header().Get("X-Cicero-Stale") != "" {
		t.Fatalf("post-recovery: status %d stale=%q", w.Code, w.Header().Get("X-Cicero-Stale"))
	}
}

func TestRouterBreakerOpensThenRecovers(t *testing.T) {
	nodes := []*fakeNode{newFakeNode(t, "a"), newFakeNode(t, "b")}
	r, inj, fc := newTestRouter(t, nodes, []string{"flights"}, Options{
		Breaker: BreakerPolicy{FailureThreshold: 2, Cooldown: time.Hour},
	})
	inj.Set(nodes[0].host(), FaultRule{DropProb: 1})
	inj.Set(nodes[1].host(), FaultRule{DropProb: 1})

	// Each request attempts both replicas; after enough failures every
	// replica is down.
	for i := 0; i < 3; i++ {
		postAnswer(t, r.Handler(), "flights", fmt.Sprintf("q%d", i))
	}
	st := r.Stats()
	if a, b := st.Nodes["a"].Replicas["flights"], st.Nodes["b"].Replicas["flights"]; a != "down" || b != "down" {
		t.Fatalf("replicas %q/%q, want down/down", a, b)
	}

	// Down replicas fast-fail: no node sees traffic.
	before := nodes[0].hits.Load() + nodes[1].hits.Load()
	w := postAnswer(t, r.Handler(), "flights", "while open")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("request while down: status %d, want 503", w.Code)
	}
	if got := nodes[0].hits.Load() + nodes[1].hits.Load(); got != before {
		t.Fatalf("down replicas let %d requests through", got-before)
	}

	// Heal the nodes, elapse the cooldown: the trial request succeeds
	// and its replica is up again.
	inj.Clear(nodes[0].host())
	inj.Clear(nodes[1].host())
	fc.Advance(time.Hour)
	w = postAnswer(t, r.Handler(), "flights", "after cooldown")
	if w.Code != http.StatusOK {
		t.Fatalf("post-cooldown request: status %d: %s", w.Code, w.Body.String())
	}
	st = r.Stats()
	if got := st.Nodes[w.Header().Get("X-Cicero-Node")].Replicas["flights"]; got != "up" {
		t.Fatalf("the replica that passed its trial is %q, want up", got)
	}
}

func TestRouterLoadShedsWithRetryAfter(t *testing.T) {
	nodes := []*fakeNode{newFakeNode(t, "a")}
	r, _, _ := newTestRouter(t, nodes, []string{"flights"}, Options{
		MaxInFlight:  1,
		QueueTimeout: 10 * time.Millisecond,
	})
	nodes[0].gated.Store(true)

	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- postAnswer(t, r.Handler(), "flights", "holds the slot") }()
	waitFor(t, func() bool { return r.Stats().InFlight == 1 })

	w := postAnswer(t, r.Handler(), "flights", "gets shed")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("shed request: status %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("shed 503 without Retry-After")
	}
	if got := r.Stats().Shed; got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	close(nodes[0].gate)
	if w := <-first; w.Code != http.StatusOK {
		t.Fatalf("gated request finished with %d", w.Code)
	}
}

func TestRouterBalancesAcrossHealthyReplicas(t *testing.T) {
	nodes := []*fakeNode{newFakeNode(t, "a"), newFakeNode(t, "b")}
	r, _, _ := newTestRouter(t, nodes, []string{"flights"}, Options{})
	for i := 0; i < 20; i++ {
		if w := postAnswer(t, r.Handler(), "flights", fmt.Sprintf("query %d", i)); w.Code != http.StatusOK {
			t.Fatalf("request %d: %d", i, w.Code)
		}
	}
	a, b := nodes[0].hits.Load(), nodes[1].hits.Load()
	if a == 0 || b == 0 {
		t.Fatalf("round-robin left a node idle: a=%d b=%d", a, b)
	}
}

func TestRouterRejectsUnknownDatasetAndMethod(t *testing.T) {
	nodes := []*fakeNode{newFakeNode(t, "a")}
	r, _, _ := newTestRouter(t, nodes, []string{"flights"}, Options{})
	if w := postAnswer(t, r.Handler(), "nope", "hi"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown dataset: %d, want 404", w.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/flights/answer", nil)
	w := httptest.NewRecorder()
	r.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET answer: %d, want 405", w.Code)
	}
}

func TestRouterRejectsOversizedBody(t *testing.T) {
	nodes := []*fakeNode{newFakeNode(t, "a")}
	r, _, _ := newTestRouter(t, nodes, []string{"flights"}, Options{})
	// Just over the 1 MiB bound once the JSON framing is added.
	big := `{"text":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	req := httptest.NewRequest(http.MethodPost, "/v1/flights/answer", strings.NewReader(big))
	w := httptest.NewRecorder()
	r.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d, want 413", w.Code)
	}
	if hits := nodes[0].hits.Load(); hits != 0 {
		t.Fatalf("oversized body reached the node %d times", hits)
	}
}

// echoBackend is the smallest httpserve.Backend: every text answers
// itself.
type echoBackend struct{ store *engine.Store }

func (b echoBackend) Answer(text string) serve.Answer {
	return serve.Answer{Text: text, Answered: true}
}
func (b echoBackend) Store() engine.StoreView              { return b.store }
func (b echoBackend) StoreGen() (engine.StoreView, uint64) { return b.store, 0 }

// newServingNode runs a real httpserve tier as a node, so its request
// validation is the production one; hits counts answer requests.
func newServingNode(t *testing.T, id string) *fakeNode {
	t.Helper()
	n := &fakeNode{id: id}
	h := httpserve.NewWithBackend(echoBackend{engine.NewStore()}, httpserve.Options{}).Handler()
	n.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.HasSuffix(req.URL.Path, "/answer") {
			n.hits.Add(1)
		}
		h.ServeHTTP(w, req)
	}))
	t.Cleanup(n.srv.Close)
	return n
}

// TestRouterRelaysBatchBodyRejection: a node answers one utterance per
// request, so a {"texts": [...]} body is a client error. The router
// relays the node's 400 from the first attempt: a client error is a
// coherent answer, not a replica failure, so nothing fails over or
// retries and both replicas stay up.
func TestRouterRelaysBatchBodyRejection(t *testing.T) {
	nodes := []*fakeNode{newServingNode(t, "a"), newServingNode(t, "b")}
	ds := httpserve.DefaultDataset
	r, _, _ := newTestRouter(t, nodes, []string{ds}, Options{})
	if w := postAnswer(t, r.Handler(), ds, "help"); w.Code != http.StatusOK {
		t.Fatalf("single text: status %d: %s", w.Code, w.Body.String())
	}
	sent := int64(1)
	for _, path := range []string{"/v1/answer", "/v1/" + ds + "/answer"} {
		for _, body := range []string{
			`{"texts":["help","cancellations on UA"]}`,
			`{"texts":["help","what about UA"],"session":"alice"}`,
		} {
			w := httptest.NewRecorder()
			r.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			sent++
			if w.Code != http.StatusBadRequest {
				t.Fatalf("%s %s: status %d, want 400", path, body, w.Code)
			}
			var m map[string]json.RawMessage
			if err := json.Unmarshal(w.Body.Bytes(), &m); err != nil || m["error"] == nil {
				t.Fatalf("%s %s: not the uniform error body: %s", path, body, w.Body.String())
			}
			if got := w.Header().Get("X-Cicero-Attempts"); got != "1" {
				t.Fatalf("%s %s: X-Cicero-Attempts = %q, want 1", path, body, got)
			}
		}
	}
	if hits := nodes[0].hits.Load() + nodes[1].hits.Load(); hits != sent {
		t.Fatalf("nodes saw %d answer requests for %d sent", hits, sent)
	}
	st := r.Stats()
	if st.Retries != 0 || st.Failovers != 0 || st.Failed != 0 {
		t.Fatalf("retries %d, failovers %d, failed %d; want none", st.Retries, st.Failovers, st.Failed)
	}
	for id, ns := range st.Nodes {
		if ns.Failure != 0 || ns.Replicas[ds] != "up" {
			t.Fatalf("node %s: %d failures, replica %q; want 0 and up", id, ns.Failure, ns.Replicas[ds])
		}
	}
}

func TestRouterHealthEndpointsReflectFailures(t *testing.T) {
	nodes := []*fakeNode{newFakeNode(t, "a"), newFakeNode(t, "b"), newFakeNode(t, "c")}
	r, inj, _ := newTestRouter(t, nodes, []string{"flights", "acs"}, Options{Replication: 2})

	snap := r.HealthSnapshot()
	if snap.Status != "ok" {
		t.Fatalf("all-up status %q, want ok", snap.Status)
	}
	for _, ds := range []string{"flights", "acs"} {
		if got := snap.Datasets[ds].Available; got != 2 {
			t.Fatalf("%s available %d, want 2", ds, got)
		}
	}

	// One replica of flights down → degraded.
	victim := snap.Datasets["flights"].Nodes[0]
	for _, n := range nodes {
		if n.id == victim {
			inj.Set(n.host(), FaultRule{DropProb: 1})
		}
	}
	r.CheckHealth(context.Background())
	snap = r.HealthSnapshot()
	if snap.Status != "degraded" {
		t.Fatalf("one-down status %q, want degraded", snap.Status)
	}
	var victimRow *NodeHealth
	for i := range snap.Nodes {
		if snap.Nodes[i].ID == victim {
			victimRow = &snap.Nodes[i]
		}
	}
	if victimRow == nil || victimRow.Healthy {
		t.Fatalf("victim %s still reported healthy: %+v", victim, victimRow)
	}

	// Every node down → down, and the wire healthz agrees.
	for _, n := range nodes {
		inj.Set(n.host(), FaultRule{DropProb: 1})
	}
	r.CheckHealth(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	w := httptest.NewRecorder()
	r.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz status %d", w.Code)
	}
	var wire HealthResponse
	if err := json.Unmarshal(w.Body.Bytes(), &wire); err != nil {
		t.Fatal(err)
	}
	if wire.Status != "down" {
		t.Fatalf("all-down status %q, want down", wire.Status)
	}
}

func TestRouterDatasetsEndpoint(t *testing.T) {
	nodes := []*fakeNode{newFakeNode(t, "a"), newFakeNode(t, "b"), newFakeNode(t, "c")}
	r, _, _ := newTestRouter(t, nodes, []string{"flights", "acs"}, Options{Replication: 2})
	req := httptest.NewRequest(http.MethodGet, "/v1/datasets", nil)
	w := httptest.NewRecorder()
	r.Handler().ServeHTTP(w, req)
	var out struct {
		Datasets []RoutedDataset `json:"datasets"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Datasets) != 2 {
		t.Fatalf("%d datasets, want 2", len(out.Datasets))
	}
	for _, ds := range out.Datasets {
		if len(ds.Replicas) != 2 {
			t.Fatalf("dataset %s has %d replicas, want 2", ds.Name, len(ds.Replicas))
		}
		if ds.Name == "flights" && !ds.Default {
			t.Fatal("first dataset not marked default")
		}
	}
}

// waitFor polls cond briefly; these waits are for real goroutine
// scheduling (an in-flight HTTP request), not simulated time.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 2s")
		}
		time.Sleep(time.Millisecond)
	}
}
