// Package cluster is the fault-tolerance tier over the HTTP serving
// layer: it turns N independent cmd/serve daemons into one
// continuously available cluster. A Router places datasets on the
// nodes by rendezvous hashing (Replicas) with a configurable
// replication factor and forwards answer traffic with per-attempt
// timeouts, capped exponential backoff with jitter (BackoffPolicy) and
// failover retries to the next replica on connection error / timeout /
// 5xx / corrupt response. Whether a replica may be tried is one state
// per replica, fed by two kinds of observation: the outcome of every
// forwarded request, and an active sweep of the nodes' existing
// per-dataset /v1/{dataset}/healthz endpoints. Consecutive failures of
// either kind take a replica out of rotation, and one trial request
// after a cooldown (or a passing probe) brings it back. When every
// replica of a dataset is down the router degrades gracefully: it
// serves the last known good answer from a generation-tagged stale
// cache with an explicit staleness marker instead of failing, and it
// load-sheds with 503 and a retry hint under overload. The
// FaultInjector transport hook reproduces each of those failure modes
// deterministically in tests.
//
// The router is built from the same parts as the node it fronts: the
// stale cache is an internal/lru Cache, admission is an httpserve.Gate,
// and every error leaves through httpserve's writers, so both tiers
// answer failures in one wire shape.
//
// Replicas bootstrap from the snapshot artifacts of internal/snapshot:
// NodeDatasets tells a cluster-mode cmd/serve which datasets its node
// must mount, and the node maps each one's snapshot at boot.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cicero/internal/httpserve"
	"cicero/internal/lru"
	"cicero/internal/stats"
)

// Node is one cmd/serve backend of the cluster.
type Node struct {
	// ID is the node's stable identity in placement; it must match the
	// -node flag the backend was started with in cluster mode.
	ID string `json:"id"`
	// URL is the node's base URL (e.g. http://10.0.0.3:8080).
	URL string `json:"url"`
}

// Options tunes the router tier. The zero value gives production
// defaults.
type Options struct {
	// Replication is the number of nodes hosting each dataset
	// (default 2, clamped to the node count).
	Replication int
	// RequestTimeout bounds each forwarding attempt (default 2s): a
	// hung node costs at most this before failover.
	RequestTimeout time.Duration
	// MaxAttempts bounds the total tries per request across replicas
	// (default 2 × replication).
	MaxAttempts int
	// Backoff shapes the delay between retries.
	Backoff BackoffPolicy
	// Breaker tunes when a failing replica leaves the rotation.
	Breaker BreakerPolicy
	// HealthInterval is the active health-check sweep period
	// (default 1s); each probe is bounded by half of it.
	HealthInterval time.Duration
	// MaxInFlight bounds concurrently forwarded requests (default 512);
	// beyond it requests queue up to QueueTimeout (default 100ms) and
	// are then shed with 503 and a retry hint.
	MaxInFlight  int
	QueueTimeout time.Duration
	// StaleEntries bounds the last-good-answer cache (default 4096);
	// negative disables stale serving.
	StaleEntries int
	// Transport overrides the forwarding transport — the FaultInjector
	// hook. Nil uses a connection-pooled clone of the default.
	Transport http.RoundTripper
	// Clock overrides wall time (tests). Nil uses the real clock.
	Clock Clock
	// Seed makes backoff jitter deterministic.
	Seed int64
}

func (o Options) withDefaults(nodes int) Options {
	if o.Replication <= 0 {
		o.Replication = 2
	}
	if o.Replication > nodes {
		o.Replication = nodes
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 2 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 2 * o.Replication
	}
	if o.Breaker.FailureThreshold <= 0 {
		o.Breaker.FailureThreshold = 5
	}
	if o.Breaker.Cooldown <= 0 {
		o.Breaker.Cooldown = 2 * time.Second
	}
	if o.HealthInterval <= 0 {
		o.HealthInterval = time.Second
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 512
	}
	if o.QueueTimeout <= 0 {
		o.QueueTimeout = 100 * time.Millisecond
	}
	if o.StaleEntries == 0 {
		o.StaleEntries = 4096
	}
	if o.Clock == nil {
		o.Clock = RealClock{}
	}
	return o
}

// maxBodyBytes bounds an answer request body, as a node does.
const maxBodyBytes = 1 << 20

// maxReplyBytes bounds a relayed node response; a response this large
// is treated like a corrupt one (failover, then 503).
const maxReplyBytes = 64 << 20

// Router is the health-checked, failover-retrying HTTP front of a
// snapshot-replicated cluster. Create with New, start the health loop
// with Run (or call CheckHealth yourself), and serve Handler.
type Router struct {
	nodes []*nodeState
	// replicas is fixed at New: each dataset's replicas in placement
	// order.
	replicas map[string][]*replica
	defName  string
	stale    *lru.Cache[staleEntry] // nil when disabled
	opts     Options
	clock    Clock
	client   *http.Client
	gate     *httpserve.Gate // admission: bounds concurrent forwards
	mux      *http.ServeMux
	started  time.Time

	rr          atomic.Uint64 // round-robin cursor over the rotation
	forwards    atomic.Uint64
	retries     atomic.Uint64
	failovers   atomic.Uint64
	staleServed atomic.Uint64
	failed      atomic.Uint64
	lat         *stats.LatencyRecorder

	rngMu sync.Mutex
	rng   *rand.Rand
}

// New builds a router over the nodes for the given datasets; the first
// dataset is the default the legacy /v1/answer route resolves to.
func New(nodes []Node, datasets []string, opts Options) (*Router, error) {
	if len(nodes) == 0 {
		return nil, errors.New("cluster: router needs at least one node")
	}
	if len(datasets) == 0 {
		return nil, errors.New("cluster: router needs at least one dataset")
	}
	opts = opts.withDefaults(len(nodes))
	ids := make([]string, len(nodes))
	byID := make(map[string]*nodeState, len(nodes))
	states := make([]*nodeState, len(nodes))
	for i, n := range nodes {
		if n.ID == "" || n.URL == "" {
			return nil, fmt.Errorf("cluster: node %d needs both an ID and a URL", i)
		}
		u, err := url.Parse(n.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: node %s: invalid URL %q", n.ID, n.URL)
		}
		n.URL = strings.TrimRight(n.URL, "/")
		ids[i] = n.ID
		states[i] = &nodeState{Node: n}
		byID[n.ID] = states[i]
	}
	replicas := make(map[string][]*replica, len(datasets))
	for _, ds := range datasets {
		placed, err := Replicas(ids, ds, opts.Replication)
		if err != nil {
			return nil, err
		}
		reps := make([]*replica, len(placed))
		for i, id := range placed {
			reps[i] = &replica{node: byID[id], dataset: ds, policy: opts.Breaker, clock: opts.Clock}
		}
		replicas[ds] = reps
	}

	transport := opts.Transport
	if transport == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = opts.MaxInFlight
		transport = tr
	}
	r := &Router{
		nodes:    states,
		replicas: replicas,
		defName:  datasets[0],
		opts:     opts,
		clock:    opts.Clock,
		client:   &http.Client{Transport: transport},
		gate:     httpserve.NewGate(opts.MaxInFlight, opts.QueueTimeout),
		started:  time.Now(),
		lat:      stats.NewLatencyRecorder(stats.DefaultLatencyWindow),
		rng:      rand.New(rand.NewSource(opts.Seed)),
	}
	if opts.StaleEntries > 0 {
		r.stale = lru.New[staleEntry](opts.StaleEntries, 1)
	}

	r.mux = http.NewServeMux()
	r.mux.HandleFunc("/v1/answer", r.handleAnswer)
	r.mux.HandleFunc("/v1/{dataset}/answer", r.handleAnswer)
	r.mux.HandleFunc("/v1/healthz", r.handleHealthz)
	r.mux.HandleFunc("/v1/stats", r.handleStats)
	r.mux.HandleFunc("/v1/datasets", r.handleDatasets)
	return r, nil
}

// Handler returns the router's route multiplexer.
func (r *Router) Handler() http.Handler { return r.mux }

// routed lists every replica the router routes, by dataset name and
// then placement order.
func (r *Router) routed() []*replica {
	var out []*replica
	for _, ds := range slices.Sorted(maps.Keys(r.replicas)) {
		out = append(out, r.replicas[ds]...)
	}
	return out
}

// Run sweeps health checks on the configured interval until ctx is
// done; the first sweep runs immediately. Call it from a goroutine next
// to the HTTP server.
func (r *Router) Run(ctx context.Context) {
	r.CheckHealth(ctx)
	ticker := time.NewTicker(r.opts.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			r.CheckHealth(ctx)
		}
	}
}

// CheckHealth runs one synchronous health sweep (boot and tests): every
// routed replica is probed in parallel, each probe bounded by half the
// health interval. A sweep that ctx interrupts — the router is shutting
// down — records no verdict: the probes failed because of the caller,
// not the replicas.
func (r *Router) CheckHealth(ctx context.Context) {
	var wg sync.WaitGroup
	for _, p := range r.routed() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, r.opts.HealthInterval/2)
			defer cancel()
			swaps, err := r.probe(pctx, p)
			if ctx.Err() == nil {
				p.probed(swaps, err)
			}
		}()
	}
	wg.Wait()
}

// probe is one GET of the replica's per-dataset healthz on its node,
// returning the dataset's swap count (its store generation).
func (r *Router) probe(ctx context.Context, p *replica) (uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		p.node.URL+"/v1/"+url.PathEscape(p.dataset)+"/healthz", nil)
	if err != nil {
		return 0, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	var h httpserve.HealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		return 0, fmt.Errorf("healthz body: %w", err)
	}
	return h.Swaps, nil
}

// candidates orders the replicas that may be tried now: those whose
// last observation succeeded first — rotated by a round-robin cursor so
// load spreads across them — then those whose last observation failed,
// as a last resort. Down replicas, and one whose trial is already
// taken, are left out.
func (r *Router) candidates(reps []*replica) []*replica {
	now := r.clock.Now()
	first := make([]*replica, 0, len(reps))
	var last []*replica
	for _, p := range reps {
		if ok, preferred := p.standing(now); preferred && ok {
			first = append(first, p)
		} else if ok {
			last = append(last, p)
		}
	}
	if n := len(first); n > 1 {
		rot := int(r.rr.Add(1) % uint64(n))
		first = append(first[rot:], first[:rot]...)
	}
	return append(first, last...)
}

// backoffDelay draws a jittered delay for the given retry index.
func (r *Router) backoffDelay(retry int) time.Duration {
	r.rngMu.Lock()
	defer r.rngMu.Unlock()
	return r.opts.Backoff.Delay(retry, r.rng)
}

// nodeReply is one successfully relayed node response.
type nodeReply struct {
	from       *replica
	status     int
	body       []byte
	attempts   int
	generation uint64 // from's last probed store generation
}

// forward sends body to the dataset's replicas until one yields a
// coherent response: per-attempt timeout, backoff between attempts,
// failover to the next candidate on connection error, timeout, 5xx, or
// a corrupt (non-JSON) body. Client errors (4xx) are coherent answers
// and are relayed, not retried.
func (r *Router) forward(ctx context.Context, reps []*replica, body []byte) (*nodeReply, error) {
	attempts, backedOff := 0, 0
	var lastErr error
	for attempts < r.opts.MaxAttempts {
		tried := false
		for _, p := range r.candidates(reps) {
			if attempts >= r.opts.MaxAttempts {
				break
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// One backoff per retry, slept before the replica is claimed: a
			// caller that gives up while waiting holds nothing to give back.
			if backedOff < attempts {
				r.retries.Add(1)
				if err := r.clock.Sleep(ctx, r.backoffDelay(attempts-1)); err != nil {
					return nil, err
				}
				backedOff = attempts
			}
			trial, ok := p.begin()
			if !ok {
				continue
			}
			tried = true
			attempts++
			reply, err := r.tryNode(ctx, p, body)
			abandoned := err != nil && ctx.Err() != nil
			generation := p.finish(trial, err, abandoned)
			if abandoned {
				return nil, ctx.Err()
			}
			if err != nil {
				lastErr = err
				continue
			}
			reply.attempts, reply.generation = attempts, generation
			if attempts > 1 {
				r.failovers.Add(1)
			}
			return reply, nil
		}
		if !tried {
			// Nothing was admissible this pass: the dataset is effectively
			// down right now; don't spin until MaxAttempts.
			if lastErr == nil {
				lastErr = errors.New("cluster: every replica is down")
			}
			break
		}
	}
	return nil, lastErr
}

// tryNode runs one forwarding attempt under the per-attempt timeout.
// A reply is an error — triggering failover — on transport failure,
// timeout, 5xx, or a body that is not valid JSON (a corrupt node must
// not have its garbage relayed as an answer).
func (r *Router) tryNode(ctx context.Context, p *replica, body []byte) (*nodeReply, error) {
	actx, cancel := context.WithTimeout(ctx, r.opts.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost,
		p.node.URL+"/v1/"+url.PathEscape(p.dataset)+"/answer", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(io.LimitReader(resp.Body, maxReplyBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 500 {
		return nil, fmt.Errorf("node %s: status %d", p.node.ID, resp.StatusCode)
	}
	if !json.Valid(reply) {
		return nil, fmt.Errorf("node %s: corrupt response body", p.node.ID)
	}
	return &nodeReply{from: p, status: resp.StatusCode, body: reply}, nil
}

func (r *Router) handleAnswer(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	r.forwards.Add(1)
	defer func() { r.lat.Record(time.Since(start)) }()

	dataset := req.PathValue("dataset")
	if dataset == "" {
		dataset = r.defName
	}
	reps := r.replicas[dataset]
	if reps == nil {
		httpserve.WriteError(w, http.StatusNotFound, fmt.Sprintf("unknown dataset %q", dataset))
		return
	}
	if !httpserve.AllowMethod(w, req, http.MethodPost) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	if err != nil {
		httpserve.WriteBodyError(w, err)
		return
	}
	// Best-effort text extraction: the stale cache never covers a
	// dialogue turn — its answer depends on the session's context, which
	// a text-only key would hand to any other caller. staleKey stays
	// empty when stale serving is disabled.
	var parsed httpserve.AnswerRequest
	staleKey := ""
	if r.stale != nil && json.Unmarshal(body, &parsed) == nil &&
		parsed.Text != "" && parsed.Session == "" {
		staleKey = dataset + "\x00" + httpserve.CacheKey(parsed.Text)
	}

	if err := r.gate.Acquire(req.Context()); err != nil {
		r.failed.Add(1)
		httpserve.WriteError(w, httpserve.StatusFor(err), err.Error())
		return
	}
	defer r.gate.Release()

	reply, err := r.forward(req.Context(), reps, body)
	if err == nil {
		if staleKey != "" && reply.status == http.StatusOK {
			r.stale.Put(staleKey, staleEntry{
				body:       reply.body,
				from:       reply.from,
				generation: reply.generation,
				storedAt:   r.clock.Now(),
			})
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cicero-Node", reply.from.node.ID)
		w.Header().Set("X-Cicero-Attempts", strconv.Itoa(reply.attempts))
		w.WriteHeader(reply.status)
		w.Write(reply.body)
		return
	}
	if cerr := req.Context().Err(); cerr != nil {
		r.failed.Add(1)
		httpserve.WriteError(w, httpserve.StatusFor(cerr), cerr.Error())
		return
	}
	// Every replica failed: graceful degradation — a stale answer with
	// an explicit marker beats an error while the cluster heals.
	unavailable := "is unavailable"
	if staleKey != "" {
		if e, ok := r.stale.Get(staleKey); ok {
			// The entry is only servable if its generation still matches
			// the answering replica's last probed store generation. A
			// mismatch means the store moved on after capture — a delta
			// published a newer generation, or the node rebooted onto a
			// fresh base and its swap counter reset — and "last known
			// good" would actually be "superseded": drop it and fail
			// honestly rather than serve an answer the cluster already
			// replaced.
			if e.generation == e.from.health().Swaps {
				r.staleServed.Add(1)
				age := r.clock.Now().Sub(e.storedAt)
				w.Header().Set("Content-Type", "application/json")
				w.Header().Set("X-Cicero-Node", e.from.node.ID)
				w.Header().Set("X-Cicero-Stale", "true")
				w.WriteHeader(http.StatusOK)
				w.Write(markStale(e.body, age, e.generation))
				return
			}
			r.stale.Remove(staleKey)
			unavailable = "is unavailable and the cached answer is superseded"
		}
	}
	r.failed.Add(1)
	httpserve.WriteError(w, http.StatusServiceUnavailable,
		fmt.Sprintf("every replica of %q %s: %v", dataset, unavailable, err))
}

// markStale stamps the staleness marker into a cached answer body:
// stale, stale_age_ns, and the generation (the answering node's store
// swap count at capture) so clients can tell how old and which store
// generation the answer reflects.
func markStale(body []byte, age time.Duration, generation uint64) []byte {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil || m == nil {
		// Cached bodies were JSON-validated at capture; this path is a
		// non-object answer — wrap it rather than lose the marker.
		m = map[string]any{"answer": json.RawMessage(body)}
	}
	m["stale"] = true
	m["stale_age_ns"] = age.Nanoseconds()
	m["generation"] = generation
	out, err := json.Marshal(m)
	if err != nil {
		return body
	}
	return out
}

// NodeHealth is one node's row in the router healthz payload.
type NodeHealth struct {
	ID  string `json:"id"`
	URL string `json:"url"`
	// Healthy reports every replica hosted on the node up.
	Healthy bool `json:"healthy"`
	// Replicas are the node's per-dataset states.
	Replicas []ReplicaHealth `json:"replicas"`
}

// DatasetHealth summarizes one dataset's replica availability.
type DatasetHealth struct {
	Replication int      `json:"replication"`
	Available   int      `json:"available"`
	Nodes       []string `json:"nodes"`
}

// HealthResponse is the router's GET /v1/healthz payload: the cluster
// as the router sees it.
type HealthResponse struct {
	// Status is "ok" (full replication everywhere), "degraded" (some
	// dataset below its replication factor), or "down" (some dataset
	// has zero available replicas — only stale answers remain for it).
	Status   string                   `json:"status"`
	Nodes    []NodeHealth             `json:"nodes"`
	Datasets map[string]DatasetHealth `json:"datasets"`
	UptimeNS time.Duration            `json:"uptime_ns"`
}

// HealthSnapshot assembles the router healthz payload.
func (r *Router) HealthSnapshot() HealthResponse {
	resp := HealthResponse{
		Status:   "ok",
		Datasets: make(map[string]DatasetHealth),
		UptimeNS: time.Since(r.started),
	}
	byNode := make(map[string][]ReplicaHealth, len(r.nodes))
	for _, p := range r.routed() {
		h := p.health()
		byNode[h.Node] = append(byNode[h.Node], h)
		dh := resp.Datasets[h.Dataset]
		dh.Replication++
		dh.Nodes = append(dh.Nodes, h.Node)
		if h.Healthy {
			dh.Available++
		}
		resp.Datasets[h.Dataset] = dh
	}
	for _, n := range r.nodes {
		nh := NodeHealth{ID: n.ID, URL: n.URL, Healthy: true, Replicas: byNode[n.ID]}
		for _, rep := range nh.Replicas {
			if !rep.Healthy {
				nh.Healthy = false
			}
		}
		resp.Nodes = append(resp.Nodes, nh)
	}
	for _, dh := range resp.Datasets {
		if dh.Available == 0 {
			resp.Status = "down"
		} else if dh.Available < dh.Replication && resp.Status == "ok" {
			resp.Status = "degraded"
		}
	}
	return resp
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if !httpserve.AllowMethod(w, req, http.MethodGet) {
		return
	}
	httpserve.WriteJSON(w, http.StatusOK, r.HealthSnapshot())
}

// NodeStats is one node's forwarding counters and the state of each
// replica it hosts, by dataset.
type NodeStats struct {
	Success  uint64            `json:"success"`
	Failure  uint64            `json:"failure"`
	Replicas map[string]string `json:"replicas"`
}

// StatsSnapshot is the router's GET /v1/stats payload.
type StatsSnapshot struct {
	UptimeNS    time.Duration         `json:"uptime_ns"`
	Forwards    uint64                `json:"forwards"`
	Retries     uint64                `json:"retries"`
	Failovers   uint64                `json:"failovers"`
	StaleServed uint64                `json:"stale_served"`
	Shed        uint64                `json:"shed"`
	Failed      uint64                `json:"failed"`
	Latency     stats.LatencySnapshot `json:"latency"`
	Nodes       map[string]NodeStats  `json:"nodes"`
	StaleSize   int                   `json:"stale_entries"`
	MaxInFlight int                   `json:"max_in_flight"`
	InFlight    int                   `json:"in_flight"`
}

// Stats snapshots the router's forwarding metrics.
func (r *Router) Stats() StatsSnapshot {
	snap := StatsSnapshot{
		UptimeNS:    time.Since(r.started),
		Forwards:    r.forwards.Load(),
		Retries:     r.retries.Load(),
		Failovers:   r.failovers.Load(),
		StaleServed: r.staleServed.Load(),
		Shed:        r.gate.Shed(),
		Failed:      r.failed.Load(),
		Latency:     r.lat.Snapshot(),
		Nodes:       make(map[string]NodeStats, len(r.nodes)),
		MaxInFlight: r.opts.MaxInFlight,
		InFlight:    r.gate.InFlight(),
	}
	if r.stale != nil {
		snap.StaleSize = r.stale.Len()
	}
	for _, n := range r.nodes {
		snap.Nodes[n.ID] = NodeStats{
			Success:  n.success.Load(),
			Failure:  n.failure.Load(),
			Replicas: make(map[string]string),
		}
	}
	for _, p := range r.routed() {
		h := p.health()
		snap.Nodes[h.Node].Replicas[h.Dataset] = h.State
	}
	return snap
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	if !httpserve.AllowMethod(w, req, http.MethodGet) {
		return
	}
	httpserve.WriteJSON(w, http.StatusOK, r.Stats())
}

// RoutedDataset is one row of the router's GET /v1/datasets payload.
type RoutedDataset struct {
	Name     string   `json:"name"`
	Default  bool     `json:"default,omitempty"`
	Replicas []string `json:"replicas"`
}

func (r *Router) handleDatasets(w http.ResponseWriter, req *http.Request) {
	if !httpserve.AllowMethod(w, req, http.MethodGet) {
		return
	}
	out := struct {
		Datasets []RoutedDataset `json:"datasets"`
	}{}
	for _, p := range r.routed() {
		if n := len(out.Datasets); n == 0 || out.Datasets[n-1].Name != p.dataset {
			out.Datasets = append(out.Datasets, RoutedDataset{Name: p.dataset, Default: p.dataset == r.defName})
		}
		last := &out.Datasets[len(out.Datasets)-1]
		last.Replicas = append(last.Replicas, p.node.ID)
	}
	httpserve.WriteJSON(w, http.StatusOK, out)
}
