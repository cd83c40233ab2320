// Package httpserve is the networked serving tier — the outer serve
// layer of the paper's generate → evaluate → solve → serve flow: it
// exposes the in-process serving layer (serve.Answerer, or a
// serve.Registry hosting many named datasets) over HTTP for the
// many-clients deployment the ROADMAP targets, and adds the layers a
// network front end needs beyond the per-query kernel:
//
//   - a sharded LRU answer cache (internal/lru, the one LRU of the
//     request path) keyed by (dataset, canonicalized request text).
//     Answers are deterministic per (store, text), so repeats are
//     served without touching the kernel; entries are
//     tagged with the store they were computed against and therefore
//     invalidate themselves the moment a publish (SwapData) replaces
//     the dataset's generation — no stale answer can survive a publish,
//     and a publish on one dataset never disturbs another dataset's
//     entries;
//   - singleflight deduplication, so a burst of identical
//     cache-missing requests executes the kernel exactly once per
//     (dataset, store generation);
//
// plus dialogue sessions (a second internal/lru cache, keyed by the
// dataset and the client's opaque session id), admission control
// (Gate: a bounded in-flight limit with a queue timeout, shedding load
// with 503 instead of collapsing) and per-route and per-dataset
// latency/hit-rate metrics served on /v1/stats.
//
// The package also owns the HTTP plumbing the cluster router shares
// with it, so both tiers speak one wire shape: WriteJSON, WriteError
// (the error body and the retry hint on 503), StatusFor,
// WriteBodyError, AllowMethod and the daemons' ListenAndServe; the
// router holds a Gate of its own.
//
// Routes:
//
//	POST /v1/answer             {"text": "..."}, optionally with "session" (default dataset)
//	GET  /v1/healthz            liveness + aggregate store size
//	GET  /v1/stats              metrics snapshot (incl. per-dataset)
//	GET  /v1/datasets           mounted datasets with their store sizes
//	POST /v1/{dataset}/answer   answer against one named dataset
//	GET  /v1/{dataset}/stats    one dataset's serving metrics
//	GET  /v1/{dataset}/healthz  one dataset's liveness + store size
package httpserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cicero/internal/engine"
	"cicero/internal/lru"
	"cicero/internal/relation"
	"cicero/internal/serve"
	"cicero/internal/voice"
)

// Backend is the in-process serving surface the HTTP tier fronts.
// *serve.Answerer is the production implementation; tests substitute
// counting or blocking fakes.
type Backend interface {
	// Answer serves one raw voice request.
	Answer(text string) serve.Answer
	// Store returns the live speech store.
	Store() engine.StoreView
	// StoreGen returns the live store with the number of the publish
	// that installed it, as one consistent pair. Store identity defines
	// the cache and singleflight key but cannot order publishes: when a
	// store is re-installed — a rollback, or a delta publish that reuses
	// the base — the pointer repeats. The number is unique per publish,
	// so "unchanged across the kernel call" proves an answer was
	// computed against the store it is tagged with; it is also the
	// dataset's reported swap count.
	StoreGen() (engine.StoreView, uint64)
}

// DefaultDataset is the dataset name a single-tenant server mounts its
// backend under; the legacy /v1/answer route always resolves to the
// server's default dataset.
const DefaultDataset = "default"

// tenantSet abstracts how the server resolves dataset names to
// backends: a fixed single backend, or a serve.Registry.
type tenantSet interface {
	// names lists the mounted dataset names, sorted.
	names() []string
	// get resolves a dataset to its backend; unknown names fail with
	// serve.ErrUnknownDataset.
	get(name string) (Backend, error)
}

// singleSet mounts one fixed backend under one name.
type singleSet struct {
	name string
	b    Backend
}

func (s singleSet) names() []string { return []string{s.name} }

func (s singleSet) get(name string) (Backend, error) {
	if name != s.name {
		return nil, fmt.Errorf("%w: %q", serve.ErrUnknownDataset, name)
	}
	return s.b, nil
}

// registrySet mounts every dataset of a serve.Registry.
type registrySet struct{ reg *serve.Registry }

func (r registrySet) names() []string { return r.reg.Names() }

func (r registrySet) get(name string) (Backend, error) {
	a, err := r.reg.Get(name)
	if err != nil {
		return nil, err
	}
	return a, nil
}

// Options tunes the HTTP serving tier. The zero value gives production
// defaults.
type Options struct {
	// CacheEntries bounds the answer cache size across all shards
	// (default 4096). Negative disables caching.
	CacheEntries int
	// MaxInFlight bounds concurrent kernel executions (default 256).
	MaxInFlight int
	// QueueTimeout is how long an admitted request waits for an
	// in-flight slot before being shed with 503 (default 100ms).
	QueueTimeout time.Duration
}

const (
	// maxBodyBytes bounds an answer request body: it arrives from
	// outside the program.
	maxBodyBytes = 1 << 20
	// sessionEntries bounds the live dialogue sessions across all
	// datasets (LRU-evicted).
	sessionEntries = 4096
)

func (o Options) withDefaults() Options {
	if o.CacheEntries == 0 {
		o.CacheEntries = 4096
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 256
	}
	if o.QueueTimeout <= 0 {
		o.QueueTimeout = 100 * time.Millisecond
	}
	return o
}

// Result is one served answer plus serving-tier metadata.
type Result struct {
	serve.Answer
	// Cached reports an answer served from the cache without touching
	// the kernel.
	Cached bool
	// Shared reports an answer obtained by joining another request's
	// in-flight computation.
	Shared bool
}

// Server is the HTTP serving tier over a dataset registry or one
// Backend. Create with NewMulti (serve.Registry), New (one Answerer, as
// a one-tenant registry) or NewWithBackend (tests); it is safe for
// concurrent use.
type Server struct {
	tenants  tenantSet
	defName  string          // dataset the legacy /v1/* routes resolve to ("" = none)
	registry *serve.Registry // nil iff built with NewWithBackend
	opts     Options
	cache    *answerCache // nil when caching is disabled
	// sessions is the dialogue table, an exact LRU keyed by sessionKey.
	// Session ids arrive from untrusted request bodies, so it must not
	// grow with the id space: the least recently used dialogue is
	// dropped at capacity, and its next follow-up simply fails to
	// resolve. A publish keeps dialogues alive — the context owns its
	// strings and outlives store generations.
	sessions *lru.Cache[*sessionSlot]
	flights  *flightGroup
	gate     *Gate // admission: bounds concurrent kernel executions
	started  time.Time
	panics   atomic.Uint64
	mux      *http.ServeMux
	handler  http.Handler // mux wrapped in panic recovery

	mAnswer  *routeMetrics
	mHealthz *routeMetrics
	mStats   *routeMetrics

	// Per-dataset answer metrics, lazily created.
	dsMu sync.RWMutex
	ds   map[string]*routeMetrics
}

// New builds the HTTP tier over one production Answerer: a one-tenant
// registry mounting it as DefaultDataset, served like any NewMulti
// server.
func New(a *serve.Answerer, opts Options) *Server {
	reg := serve.NewRegistry()
	if err := reg.Add(DefaultDataset, a); err != nil {
		panic("httpserve: " + err.Error())
	}
	return NewMulti(reg, DefaultDataset, opts)
}

// NewMulti builds the HTTP tier over a dataset registry: every
// registered dataset is served under /v1/{dataset}/answer, with
// per-dataset publish. defaultDataset names the tenant the legacy
// /v1/answer route resolves to; empty means the legacy route answers
// 404 and clients must address datasets explicitly.
func NewMulti(reg *serve.Registry, defaultDataset string, opts Options) *Server {
	s := newServer(registrySet{reg: reg}, defaultDataset, opts)
	s.registry = reg
	return s
}

// NewWithBackend builds the HTTP tier over any Backend, mounted as the
// default dataset. SwapDataFor is unavailable (it publishes through a
// registry), but cache invalidation still tracks the backend's own
// publishes through StoreGen.
func NewWithBackend(b Backend, opts Options) *Server {
	return newServer(singleSet{name: DefaultDataset, b: b}, DefaultDataset, opts)
}

func newServer(tenants tenantSet, defName string, opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		tenants:  tenants,
		defName:  defName,
		opts:     opts,
		sessions: lru.New[*sessionSlot](sessionEntries, 1),
		flights:  newFlightGroup(),
		gate:     NewGate(opts.MaxInFlight, opts.QueueTimeout),
		started:  time.Now(),

		mAnswer:  newRouteMetrics(),
		mHealthz: newRouteMetrics(),
		mStats:   newRouteMetrics(),
		ds:       make(map[string]*routeMetrics),
	}
	if opts.CacheEntries > 0 {
		s.cache = &answerCache{lru: lru.New[cacheEntry](opts.CacheEntries, cacheShards)}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/answer", s.handleAnswer)
	s.mux.HandleFunc("/v1/healthz", getRoute(s.mHealthz, s.healthz))
	s.mux.HandleFunc("/v1/stats", getRoute(s.mStats, func(*http.Request) (any, error) {
		return s.Stats(), nil
	}))
	s.mux.HandleFunc("/v1/datasets", getRoute(s.mStats, func(*http.Request) (any, error) {
		return DatasetsResponse{Datasets: s.Datasets()}, nil
	}))
	s.mux.HandleFunc("/v1/{dataset}/answer", s.handleAnswer)
	s.mux.HandleFunc("/v1/{dataset}/stats", getRoute(s.mStats, func(r *http.Request) (any, error) {
		return s.DatasetStats(r.PathValue("dataset"))
	}))
	s.mux.HandleFunc("/v1/{dataset}/healthz", getRoute(s.mHealthz, s.datasetHealthz))
	s.handler = s.recoverMiddleware(s.mux)
	return s
}

// dataset returns (creating if needed) the per-dataset metrics slot.
func (s *Server) dataset(name string) *routeMetrics {
	s.dsMu.RLock()
	m := s.ds[name]
	s.dsMu.RUnlock()
	if m != nil {
		return m
	}
	s.dsMu.Lock()
	defer s.dsMu.Unlock()
	if m = s.ds[name]; m == nil {
		m = newRouteMetrics()
		s.ds[name] = m
	}
	return m
}

// Handler returns the route multiplexer wrapped in panic recovery,
// ready for http.Server or httptest.
func (s *Server) Handler() http.Handler { return s.handler }

// CacheKey canonicalizes request text into its cache/singleflight
// identity: two phrasings normalize equal exactly when classification
// treats them identically. The full key additionally carries the
// dataset name, so identical texts against different datasets never
// collide.
func CacheKey(text string) string { return voice.Normalize(text) }

// tenantKey scopes a canonicalized text to one dataset. Dataset names
// arrive from the URL path and so can never contain the NUL separator.
func tenantKey(dataset, text string) string {
	return dataset + "\x00" + CacheKey(text)
}

// AnswerDataset serves one request against one named dataset through
// the full tier — tenant resolution, cache, singleflight, then
// admission-controlled kernel execution. It is the in-process entry
// point the HTTP handler wraps; Latency is always the true serving time
// of this call, not a cached value. Unknown datasets fail with
// serve.ErrUnknownDataset.
func (s *Server) AnswerDataset(ctx context.Context, dataset, text string) (Result, error) {
	start := time.Now()
	b, err := s.tenants.get(dataset)
	if err != nil {
		return Result{}, err
	}
	key := tenantKey(dataset, text)
	store, gen := b.StoreGen()
	if s.cache != nil {
		if ans, ok := s.cache.get(key, store); ok {
			ans.Latency = time.Since(start)
			return Result{Answer: ans, Cached: true}, nil
		}
	}
	// The leader's admission wait is detached from its client's context
	// (Background, not ctx): joiners share the flight's result, so a
	// leader whose client disconnects must not poison them with a
	// cancellation error. The wait stays bounded by the queue timeout,
	// and the only shareable error is ErrOverloaded — a genuine
	// system-wide condition. Joiners honor their own ctx inside do.
	ans, shared, err := s.flights.do(ctx, flightKey{store: store, gen: gen, key: key}, func() (serve.Answer, error) {
		if err := s.gate.Acquire(context.Background()); err != nil {
			return serve.Answer{}, err
		}
		defer s.gate.Release()
		ans := b.Answer(text)
		if s.cache != nil {
			// Fill only when no publish landed during the kernel call:
			// otherwise ans may come from a store other than the captured
			// one, and a later re-install of that store would serve it as
			// current.
			if _, now := b.StoreGen(); now == gen {
				s.cache.put(key, dataset, store, ans)
			}
		}
		return ans, nil
	})
	if err != nil {
		return Result{}, err
	}
	ans.Latency = time.Since(start)
	return Result{Answer: ans, Shared: shared}, nil
}

// SwapDataFor publishes a new generation — next, and the relation it
// was summarized from — for one named dataset and frees exactly that
// dataset's cache entries (they would self-invalidate by store identity
// anyway; purging frees their memory now, and other datasets keep their
// cache). This is the HTTP-tier publish seam for periodic
// re-summarization and the incremental ingestion path (internal/delta)
// alike. Requires a registry server (New or NewMulti). A publish never
// waits, so ctx is unused; it stays in the signature the publishers
// call with.
func (s *Server) SwapDataFor(_ context.Context, dataset string, rel *relation.Relation, next engine.StoreView) (engine.StoreView, error) {
	if s.registry == nil {
		panic("httpserve: SwapDataFor requires a registry server (New or NewMulti)")
	}
	old, err := s.registry.SwapData(dataset, rel, next)
	if err != nil {
		return nil, err
	}
	if s.cache != nil {
		s.cache.purgeDataset(dataset)
	}
	return old, nil
}

// Datasets lists the mounted datasets with their live store sizes (the
// GET /v1/datasets payload).
func (s *Server) Datasets() []DatasetInfo {
	names := s.tenants.names()
	out := make([]DatasetInfo, 0, len(names))
	for _, name := range names {
		b, err := s.tenants.get(name)
		if err != nil {
			continue
		}
		out = append(out, DatasetInfo{Name: name, Default: name == s.defName, Speeches: b.Store().Len()})
	}
	return out
}

// DatasetStats snapshots one dataset's serving metrics (the
// GET /v1/{dataset}/stats payload). Unknown datasets fail with
// serve.ErrUnknownDataset.
func (s *Server) DatasetStats(dataset string) (DatasetSnapshot, error) {
	b, err := s.tenants.get(dataset)
	if err != nil {
		return DatasetSnapshot{}, err
	}
	store, gen := b.StoreGen()
	snap := DatasetSnapshot{
		Name:     dataset,
		Default:  dataset == s.defName,
		Speeches: store.Len(),
		Swaps:    gen,
		Answers:  s.dataset(dataset).snapshot(),
	}
	if cb, ok := b.(cellBackend); ok {
		snap.CellSets, snap.CellBytes = cb.CellStats()
	}
	return snap, nil
}

// cellBackend is the optional Backend extension that reports the live
// generation's group-by cells (*serve.Answerer implements it).
type cellBackend interface {
	CellStats() (sets, bytes int)
}

// storeSnapshot aggregates the mounted datasets' live stores.
func (s *Server) storeSnapshot() StoreSnapshot {
	names := s.tenants.names()
	snap := StoreSnapshot{Datasets: len(names)}
	for _, name := range names {
		b, err := s.tenants.get(name)
		if err != nil {
			continue
		}
		store, gen := b.StoreGen()
		snap.Speeches += store.Len()
		snap.Swaps += gen
	}
	return snap
}

// Stats snapshots the serving metrics (the GET /v1/stats payload).
func (s *Server) Stats() StatsSnapshot {
	snap := StatsSnapshot{
		UptimeNS: time.Since(s.started),
		Panics:   s.panics.Load(),
		Routes: map[string]RouteSnapshot{
			"answer":  s.mAnswer.snapshot(),
			"healthz": s.mHealthz.snapshot(),
			"stats":   s.mStats.snapshot(),
		},
		Deduped: s.flights.shared.Load(),
		Admission: AdmissionSnapshot{
			MaxInFlight: s.opts.MaxInFlight,
			InFlight:    s.gate.InFlight(),
			Rejected:    s.gate.Shed(),
		},
	}
	snap.Store = s.storeSnapshot()
	snap.Datasets = make(map[string]DatasetSnapshot)
	for _, name := range s.tenants.names() {
		if ds, err := s.DatasetStats(name); err == nil {
			snap.Datasets[name] = ds
		}
	}
	if s.cache != nil {
		hits, misses := s.cache.hits.Load(), s.cache.misses.Load()
		snap.Cache = CacheSnapshot{Hits: hits, Misses: misses, Entries: s.cache.lru.Len()}
		if total := hits + misses; total > 0 {
			snap.Cache.HitRate = float64(hits) / float64(total)
		}
	}
	return snap
}

// Wire types of POST /v1/answer.

// AnswerRequest is the request body: one utterance in Text. Session
// optionally names a dialogue: requests sharing a session id resolve
// follow-ups against each other's context.
type AnswerRequest struct {
	Text    string `json:"text,omitempty"`
	Session string `json:"session,omitempty"`
}

// AnswerResponse is one served answer on the wire.
type AnswerResponse struct {
	Kind      string        `json:"kind"`
	Request   string        `json:"request"`
	Text      string        `json:"text"`
	Answered  bool          `json:"answered"`
	Cached    bool          `json:"cached"`
	Shared    bool          `json:"shared,omitempty"`
	Exact     bool          `json:"exact,omitempty"`
	LatencyNS time.Duration `json:"latency_ns"`
	Query     *engine.Query `json:"query,omitempty"`
}

func toResponse(r Result) AnswerResponse {
	resp := AnswerResponse{
		Kind:      r.Kind.String(),
		Request:   r.Request.String(),
		Text:      r.Text,
		Answered:  r.Answered,
		Cached:    r.Cached,
		Shared:    r.Shared,
		Exact:     r.Exact,
		LatencyNS: r.Latency,
	}
	if r.Query.Target != "" {
		q := r.Query
		resp.Query = &q
	}
	return resp
}

func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	failed := true
	// The route-level metric observes every request, including the 404s
	// below; the per-dataset metric is attached only once the name is
	// known to be mounted, so URL scanning cannot grow the metrics map.
	var dsMetrics *routeMetrics
	defer func() {
		s.mAnswer.observe(time.Since(start), failed)
		if dsMetrics != nil {
			dsMetrics.observe(time.Since(start), failed)
		}
	}()

	dataset := r.PathValue("dataset")
	if dataset == "" {
		if dataset = s.defName; dataset == "" {
			WriteError(w, http.StatusNotFound,
				"no default dataset mounted; address one explicitly via /v1/{dataset}/answer")
			return
		}
	}
	if _, err := s.tenants.get(dataset); err != nil {
		WriteError(w, http.StatusNotFound, fmt.Sprintf("unknown dataset %q", dataset))
		return
	}
	dsMetrics = s.dataset(dataset)

	if !AllowMethod(w, r, http.MethodPost) {
		return
	}
	var req AnswerRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteBodyError(w, err)
		return
	}
	// One object and nothing after it but whitespace, as json.Unmarshal
	// (and so the router) accepts.
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("data after the JSON object")
		}
		WriteBodyError(w, err)
		return
	}
	if req.Text == "" {
		WriteError(w, http.StatusBadRequest, `"text" is required`)
		return
	}

	var res Result
	var err error
	if req.Session != "" {
		res, err = s.AnswerSession(r.Context(), dataset, req.Session, req.Text)
	} else {
		res, err = s.AnswerDataset(r.Context(), dataset, req.Text)
	}
	if err != nil {
		WriteError(w, StatusFor(err), err.Error())
		return
	}
	failed = false
	WriteJSON(w, http.StatusOK, toResponse(res))
}

// HealthResponse is the GET /v1/healthz payload. Speeches aggregates
// the stores of the mounted datasets.
type HealthResponse struct {
	Status   string        `json:"status"`
	Speeches int           `json:"speeches"`
	Datasets int           `json:"datasets,omitempty"`
	Swaps    uint64        `json:"swaps"`
	UptimeNS time.Duration `json:"uptime_ns"`
}

// getRoute serves one read-only route: GET only, observed on m, and
// answering payload's value as JSON or its error in the uniform body.
func getRoute(m *routeMetrics, payload func(r *http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		failed := true
		defer func() { m.observe(time.Since(start), failed) }()
		if !AllowMethod(w, r, http.MethodGet) {
			return
		}
		v, err := payload(r)
		if err != nil {
			WriteError(w, StatusFor(err), err.Error())
			return
		}
		failed = false
		WriteJSON(w, http.StatusOK, v)
	}
}

func (s *Server) healthz(*http.Request) (any, error) {
	store := s.storeSnapshot()
	return HealthResponse{
		Status:   "ok",
		Speeches: store.Speeches,
		Datasets: store.Datasets,
		Swaps:    store.Swaps,
		UptimeNS: time.Since(s.started),
	}, nil
}

// datasetHealthz reports one dataset's liveness: its store size when
// mounted, 404 otherwise.
func (s *Server) datasetHealthz(r *http.Request) (any, error) {
	snap, err := s.DatasetStats(r.PathValue("dataset"))
	if err != nil {
		return nil, err
	}
	return HealthResponse{
		Status:   "ok",
		Speeches: snap.Speeches,
		Swaps:    snap.Swaps,
		UptimeNS: time.Since(s.started),
	}, nil
}

// DatasetsResponse is the GET /v1/datasets payload.
type DatasetsResponse struct {
	Datasets []DatasetInfo `json:"datasets"`
}
