package httpserve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/pipeline"
	"cicero/internal/relation"
	"cicero/internal/serve"
	"cicero/internal/voice"
)

// flightsRel is the shared deterministic test relation.
func flightsRel() *relation.Relation { return dataset.Flights(2000, 1) }

// buildFlightsStore pre-processes a one-target flights store; the
// template phrase distinguishes store generations in swap tests.
func buildFlightsStore(t testing.TB, rel *relation.Relation, maxLen int, phrase string) *engine.Store {
	t.Helper()
	cfg := engine.DefaultConfig(rel)
	cfg.Targets = []string{"cancelled"}
	cfg.Dimensions = []string{"season", "airline"}
	cfg.MaxQueryLen = maxLen
	store, _, err := pipeline.Run(context.Background(), rel, cfg, pipeline.Options{
		Template: engine.Template{TargetPhrase: phrase, Percent: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func flightsExtractor(rel *relation.Relation) *voice.Extractor {
	return voice.NewExtractor(rel, []voice.Sample{
		{Phrase: "cancellations", Target: "cancelled"},
		{Phrase: "cancellation probability", Target: "cancelled"},
	}, 2)
}

// newTestServer builds the full stack — relation, store, answerer,
// HTTP tier — with the given serving options.
func newTestServer(t testing.TB, opts Options) (*Server, *serve.Answerer, *relation.Relation) {
	t.Helper()
	rel := flightsRel()
	store := buildFlightsStore(t, rel, 1, "cancellation probability")
	a := serve.New(rel, store, flightsExtractor(rel), serve.Options{})
	return New(a, opts), a, rel
}

// postAnswer round-trips one POST /v1/answer body through the handler.
func postAnswer(t *testing.T, h http.Handler, body string) (*httptest.ResponseRecorder, map[string]json.RawMessage) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/answer", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var m map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("non-JSON response %q: %v", rec.Body.String(), err)
	}
	return rec, m
}

func decodeAnswer(t *testing.T, rec *httptest.ResponseRecorder) AnswerResponse {
	t.Helper()
	var resp AnswerResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad answer body %q: %v", rec.Body.String(), err)
	}
	return resp
}

func TestAnswerSingleHTTP(t *testing.T) {
	s, _, _ := newTestServer(t, Options{})
	h := s.Handler()

	rec, _ := postAnswer(t, h, `{"text": "cancellations in Winter"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	first := decodeAnswer(t, rec)
	if first.Kind != "summary" || !first.Answered {
		t.Fatalf("first answer = %+v, want answered summary", first)
	}
	if first.Cached {
		t.Error("first answer claims cached")
	}
	if first.Query == nil || first.Query.Target != "cancelled" {
		t.Errorf("first answer query = %v, want target cancelled", first.Query)
	}

	// The same request again — and a differently phrased variant that
	// canonicalizes to the same text — must be served from the cache
	// with identical content.
	for _, text := range []string{"cancellations in Winter", "Cancellations... in WINTER!?"} {
		rec, _ := postAnswer(t, h, fmt.Sprintf(`{"text": %q}`, text))
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d for %q", rec.Code, text)
		}
		got := decodeAnswer(t, rec)
		if !got.Cached {
			t.Errorf("answer for %q not cached", text)
		}
		if got.Text != first.Text || got.Kind != first.Kind {
			t.Errorf("cached answer diverges: %q vs %q", got.Text, first.Text)
		}
	}
}

func TestAnswerValidation(t *testing.T) {
	s, _, _ := newTestServer(t, Options{})
	h := s.Handler()

	t.Run("method not allowed", func(t *testing.T) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/answer", nil))
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("status = %d, want 405", rec.Code)
		}
	})
	// Just over the 1 MiB bound once the JSON framing is added.
	oversized := `{"text": "` + strings.Repeat("x", maxBodyBytes) + `"}`
	cases := []struct {
		name, body string
		status     int
	}{
		{"bad json", `{"text": `, http.StatusBadRequest},
		{"unknown field", `{"texty": "hi"}`, http.StatusBadRequest},
		{"neither", `{}`, http.StatusBadRequest},
		{"session without text", `{"session": "alice"}`, http.StatusBadRequest},
		// One utterance per request: a batch body is an unknown field.
		{"texts", `{"texts": ["a", "b"]}`, http.StatusBadRequest},
		{"texts with text", `{"text": "a", "texts": ["b"]}`, http.StatusBadRequest},
		{"texts with session", `{"texts": ["a", "b"], "session": "alice"}`, http.StatusBadRequest},
		{"body too large", oversized, http.StatusRequestEntityTooLarge},
		// One object per body: json.Unmarshal, and so the router, rejects
		// anything after it.
		{"trailing garbage", `{"text": "help"} garbage`, http.StatusBadRequest},
		{"second object", `{"text": "help"}{"texts": ["a"]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, path := range []string{"/v1/answer", "/v1/" + DefaultDataset + "/answer"} {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(c.body)))
				if rec.Code != c.status {
					t.Errorf("%s: status = %d, want %d (body %s)", path, rec.Code, c.status, rec.Body)
				}
				var m map[string]json.RawMessage
				if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil || m["error"] == nil {
					t.Errorf("%s: error body missing: %s", path, rec.Body)
				}
			}
		})
	}
	// Whitespace after the object, such as json.Encoder's newline, is
	// not data.
	t.Run("trailing whitespace", func(t *testing.T) {
		for _, path := range []string{"/v1/answer", "/v1/" + DefaultDataset + "/answer"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader("{\"text\": \"help\"} \r\n\t\n")))
			if rec.Code != http.StatusOK {
				t.Errorf("%s: status = %d, want 200 (body %s)", path, rec.Code, rec.Body)
			}
		}
	})
}

func TestHealthz(t *testing.T) {
	s, _, _ := newTestServer(t, Options{})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var health HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Speeches == 0 {
		t.Errorf("health = %+v, want ok with speeches", health)
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/healthz", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST healthz status = %d, want 405", rec.Code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s, _, _ := newTestServer(t, Options{})
	h := s.Handler()
	// Two identical requests: one miss, one hit.
	postAnswer(t, h, `{"text": "cancellations in Winter"}`)
	postAnswer(t, h, `{"text": "cancellations in Winter"}`)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	ans := snap.Routes["answer"]
	if ans.Requests != 2 || ans.Errors != 0 {
		t.Errorf("answer route = %+v, want 2 requests 0 errors", ans)
	}
	if ans.Latency.Count != 2 || ans.Latency.P99 <= 0 {
		t.Errorf("answer latency = %+v, want 2 samples with positive p99", ans.Latency)
	}
	if snap.Cache.Hits != 1 || snap.Cache.Misses != 1 || snap.Cache.Entries != 1 {
		t.Errorf("cache = %+v, want 1 hit / 1 miss / 1 entry", snap.Cache)
	}
	if snap.Cache.HitRate != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", snap.Cache.HitRate)
	}
	if snap.Store.Speeches == 0 {
		t.Errorf("store snapshot = %+v, want speeches", snap.Store)
	}
}

// blockingBackend blocks every Answer call until released; distinct
// texts defeat singleflight so admission control is what limits them.
type blockingBackend struct {
	store   *engine.Store
	entered chan string
	release chan struct{}
}

func (b *blockingBackend) Answer(text string) serve.Answer {
	b.entered <- text
	<-b.release
	return serve.Answer{Kind: serve.Help, Text: "done: " + text, Answered: true}
}

func (b *blockingBackend) Store() engine.StoreView { return b.store }

func (b *blockingBackend) StoreGen() (engine.StoreView, uint64) { return b.store, 0 }

func TestAdmissionControl(t *testing.T) {
	b := &blockingBackend{
		store:   engine.NewStore(),
		entered: make(chan string, 8),
		release: make(chan struct{}),
	}
	s := NewWithBackend(b, Options{
		CacheEntries: -1, // every request must reach the backend
		MaxInFlight:  1,
		QueueTimeout: 20 * time.Millisecond,
	})

	// Fill the only slot.
	firstErr := make(chan error, 1)
	go func() {
		_, err := s.AnswerDataset(context.Background(), DefaultDataset, "occupy the slot")
		firstErr <- err
	}()
	<-b.entered

	// A second, distinct request cannot be admitted within the queue
	// timeout and must be shed as overloaded.
	if _, err := s.AnswerDataset(context.Background(), DefaultDataset, "shed me"); err != ErrOverloaded {
		t.Fatalf("second answer error = %v, want ErrOverloaded", err)
	}

	// Over HTTP the same condition is a 503 with Retry-After.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/answer",
		strings.NewReader(`{"text": "shed me too"}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("HTTP status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	// A queued flight *leader* is shed with ErrOverloaded even when its
	// own context is short: its admission wait is detached from the
	// client so a disconnecting leader cannot poison joiners.
	shortCtx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := s.AnswerDataset(shortCtx, DefaultDataset, "impatient"); err != ErrOverloaded {
		t.Errorf("ctx-expired leader error = %v, want ErrOverloaded", err)
	}

	// A *joiner* whose context expires while waiting on the flight is
	// released with its own ctx error; the flight keeps running.
	joinCtx, cancelJoin := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancelJoin()
	if _, err := s.AnswerDataset(joinCtx, DefaultDataset, "occupy the slot"); err != context.DeadlineExceeded {
		t.Errorf("ctx-expired joiner error = %v, want deadline exceeded", err)
	}

	close(b.release)
	if err := <-firstErr; err != nil {
		t.Fatalf("first answer error = %v", err)
	}
	if got := s.Stats().Admission.Rejected; got < 2 {
		t.Errorf("rejected = %d, want >= 2", got)
	}
}

func TestSwapInvalidatesCache(t *testing.T) {
	rel := flightsRel()
	gen1 := buildFlightsStore(t, rel, 1, "cancellation probability")
	gen2 := buildFlightsStore(t, rel, 1, "chance of cancellation")
	a := serve.New(rel, gen1, flightsExtractor(rel), serve.Options{})
	s := New(a, Options{})
	ctx := context.Background()
	const q = "cancellations in Winter"

	before, err := s.AnswerDataset(ctx, DefaultDataset, q)
	if err != nil {
		t.Fatal(err)
	}
	if hit, err := s.AnswerDataset(ctx, DefaultDataset, q); err != nil || !hit.Cached {
		t.Fatalf("warm answer not cached (err %v)", err)
	}
	if !strings.Contains(before.Text, "cancellation probability") {
		t.Fatalf("gen1 answer %q misses gen1 phrase", before.Text)
	}

	// Publish through the server: the cache is purged eagerly.
	if _, err := s.SwapDataFor(ctx, DefaultDataset, rel, gen2); err != nil {
		t.Fatal(err)
	}
	after, err := s.AnswerDataset(ctx, DefaultDataset, q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cached {
		t.Error("post-swap answer served from cache")
	}
	if !strings.Contains(after.Text, "chance of cancellation") {
		t.Errorf("post-swap answer %q misses gen2 phrase", after.Text)
	}
	if got := s.Stats().Store.Swaps; got != 1 {
		t.Errorf("swaps = %d, want 1", got)
	}

	// Swap behind the server's back, directly on the Answerer: entries
	// self-invalidate by store identity, no purge needed.
	if hit, err := s.AnswerDataset(ctx, DefaultDataset, q); err != nil || !hit.Cached {
		t.Fatalf("warm gen2 answer not cached (err %v)", err)
	}
	a.SwapData(rel, gen1)
	sneaky, err := s.AnswerDataset(ctx, DefaultDataset, q)
	if err != nil {
		t.Fatal(err)
	}
	if sneaky.Cached {
		t.Error("answer after behind-the-back swap served from stale cache")
	}
	if !strings.Contains(sneaky.Text, "cancellation probability") {
		t.Errorf("behind-the-back swap answer %q misses gen1 phrase", sneaky.Text)
	}
	if got := s.Stats().Store.Swaps; got != 2 {
		t.Errorf("swaps = %d after the behind-the-back publish, want 2", got)
	}
}

// TestUncachedServerServes exercises the cache-disabled configuration.
func TestUncachedServerServes(t *testing.T) {
	s, _, _ := newTestServer(t, Options{CacheEntries: -1})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		res, err := s.AnswerDataset(ctx, DefaultDataset, "cancellations in Winter")
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Fatal("cache-disabled server served from cache")
		}
		if res.Kind != serve.Summary {
			t.Fatalf("kind = %v, want summary", res.Kind)
		}
	}
	if c := s.Stats().Cache; c.Hits != 0 || c.Misses != 0 {
		t.Errorf("cache counters moved while disabled: %+v", c)
	}
}
