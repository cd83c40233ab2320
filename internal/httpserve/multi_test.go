package httpserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/pipeline"
	"cicero/internal/relation"
	"cicero/internal/serve"
	"cicero/internal/voice"
)

// newACSAnswerer builds a small ACS answerer whose speeches answer
// "hearing impairment" queries.
func newACSAnswerer(t testing.TB) *serve.Answerer {
	t.Helper()
	rel := dataset.ACS(400, 1)
	cfg := engine.DefaultConfig(rel)
	cfg.Targets = []string{"hearing"}
	cfg.MaxQueryLen = 1
	store, _, err := pipeline.Run(context.Background(), rel, cfg, pipeline.Options{
		Template: engine.Template{TargetPhrase: "hearing impairment rate"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := voice.NewExtractor(rel, []voice.Sample{
		{Phrase: "hearing impairment", Target: "hearing"},
	}, cfg.MaxQueryLen)
	return serve.New(rel, store, ex, serve.Options{})
}

func newFlightsAnswerer(t testing.TB, phrase string) (*serve.Answerer, *relation.Relation) {
	t.Helper()
	rel := flightsRel()
	store := buildFlightsStore(t, rel, 1, phrase)
	return serve.New(rel, store, flightsExtractor(rel), serve.Options{}), rel
}

// newMultiServer mounts acs (eager) and flights (eager) behind one
// registry server with flights as the default.
func newMultiServer(t testing.TB, opts Options) (*Server, *serve.Registry) {
	t.Helper()
	reg := serve.NewRegistry()
	fl, _ := newFlightsAnswerer(t, "cancellation probability")
	if err := reg.Add("flights", fl); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("acs", newACSAnswerer(t)); err != nil {
		t.Fatal(err)
	}
	return NewMulti(reg, "flights", opts), reg
}

func postTo(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func getFrom(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestMultiDatasetAnswerRoutes(t *testing.T) {
	s, _ := newMultiServer(t, Options{})
	h := s.Handler()

	// Each dataset answers its own domain through its own route.
	rec := postTo(t, h, "/v1/flights/answer", `{"text": "cancellations in Winter"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("flights answer status = %d, body %s", rec.Code, rec.Body)
	}
	fl := decodeAnswer(t, rec)
	if fl.Kind != "summary" || !fl.Answered || !strings.Contains(fl.Text, "cancellation probability") {
		t.Fatalf("flights answer = %+v", fl)
	}

	rec = postTo(t, h, "/v1/acs/answer", `{"text": "hearing impairment for Elders"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("acs answer status = %d, body %s", rec.Code, rec.Body)
	}
	acs := decodeAnswer(t, rec)
	if acs.Kind != "summary" || !acs.Answered || !strings.Contains(acs.Text, "hearing impairment rate") {
		t.Fatalf("acs answer = %+v", acs)
	}

	// The legacy route serves the default dataset (flights).
	rec = postTo(t, h, "/v1/answer", `{"text": "cancellations in Winter"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("legacy answer status = %d", rec.Code)
	}
	if got := decodeAnswer(t, rec); got.Text != fl.Text {
		t.Fatalf("legacy route served %q, want default dataset's %q", got.Text, fl.Text)
	}

	// Unknown datasets 404 on every per-dataset route.
	for _, path := range []string{"/v1/nope/answer", "/v1/nope/stats", "/v1/nope/healthz"} {
		var rec *httptest.ResponseRecorder
		if strings.HasSuffix(path, "answer") {
			rec = postTo(t, h, path, `{"text": "hi"}`)
		} else {
			rec = getFrom(t, h, path)
		}
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s status = %d, want 404", path, rec.Code)
		}
	}
}

func TestMultiNoDefaultDataset(t *testing.T) {
	reg := serve.NewRegistry()
	fl, _ := newFlightsAnswerer(t, "cancellation probability")
	if err := reg.Add("flights", fl); err != nil {
		t.Fatal(err)
	}
	s := NewMulti(reg, "", Options{})
	rec := postTo(t, s.Handler(), "/v1/answer", `{"text": "cancellations in Winter"}`)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("legacy route without default: status = %d, want 404", rec.Code)
	}
	if rec := postTo(t, s.Handler(), "/v1/flights/answer", `{"text": "cancellations in Winter"}`); rec.Code != http.StatusOK {
		t.Fatalf("explicit route status = %d", rec.Code)
	}
}

func TestMultiDatasetsListing(t *testing.T) {
	s, _ := newMultiServer(t, Options{})
	h := s.Handler()

	rec := getFrom(t, h, "/v1/datasets")
	if rec.Code != http.StatusOK {
		t.Fatalf("datasets status = %d", rec.Code)
	}
	var listing DatasetsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Datasets) != 2 {
		t.Fatalf("listing = %+v, want 2 datasets", listing.Datasets)
	}
	byName := map[string]DatasetInfo{}
	for _, d := range listing.Datasets {
		byName[d.Name] = d
	}
	if !byName["flights"].Default || byName["acs"].Default {
		t.Fatalf("default flag wrong: %+v", byName)
	}
	if byName["acs"].Speeches == 0 || byName["flights"].Speeches == 0 {
		t.Fatalf("mounted datasets report zero speeches: %+v", byName)
	}
	assertNoLoadedKey(t, rec.Body.Bytes())
}

// assertNoLoadedKey fails if the JSON payload carries a "loaded" key:
// every mounted dataset is built, so residency is not reported. The
// listing, stats and healthz payloads hold no free text the key could
// hide in.
func assertNoLoadedKey(t *testing.T, body []byte) {
	t.Helper()
	if bytes.Contains(body, []byte(`"loaded"`)) {
		t.Fatalf("payload carries a \"loaded\" key: %s", body)
	}
}

// TestMultiCacheIsolation sends the same utterance to two datasets:
// answers must differ, cache entries must not collide, and each
// dataset's repeat must hit its own entry.
func TestMultiCacheIsolation(t *testing.T) {
	s, _ := newMultiServer(t, Options{})
	ctx := context.Background()

	// "help" is answerable by every dataset but with dataset-specific
	// content (the help text lists the relation's columns).
	flFirst, err := s.AnswerDataset(ctx, "flights", "help")
	if err != nil {
		t.Fatal(err)
	}
	acsFirst, err := s.AnswerDataset(ctx, "acs", "help")
	if err != nil {
		t.Fatal(err)
	}
	if flFirst.Cached || acsFirst.Cached {
		t.Fatal("first answers claim cached")
	}
	if flFirst.Text == acsFirst.Text {
		t.Fatalf("help text identical across datasets: %q", flFirst.Text)
	}

	flHit, err := s.AnswerDataset(ctx, "flights", "help")
	if err != nil {
		t.Fatal(err)
	}
	acsHit, err := s.AnswerDataset(ctx, "acs", "help")
	if err != nil {
		t.Fatal(err)
	}
	if !flHit.Cached || !acsHit.Cached {
		t.Fatalf("repeats not cached: flights=%v acs=%v", flHit.Cached, acsHit.Cached)
	}
	if flHit.Text != flFirst.Text || acsHit.Text != acsFirst.Text {
		t.Fatal("cache served cross-dataset content")
	}
}

// TestMultiSwapPurgesOnlyOneDataset hot-swaps one dataset's store and
// verifies the other dataset's cache survives while the swapped one
// serves fresh content immediately.
func TestMultiSwapPurgesOnlyOneDataset(t *testing.T) {
	s, _ := newMultiServer(t, Options{})
	ctx := context.Background()
	q := "cancellations in Winter"

	before, err := s.AnswerDataset(ctx, "flights", q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AnswerDataset(ctx, "acs", "help"); err != nil {
		t.Fatal(err)
	}
	// Both cached now.
	if hit, err := s.AnswerDataset(ctx, "flights", q); err != nil || !hit.Cached {
		t.Fatalf("flights not cached before swap: %+v, %v", hit, err)
	}

	gen2 := buildFlightsStore(t, flightsRel(), 1, "chance of cancellation")
	if _, err := s.SwapDataFor(ctx, "flights", flightsRel(), gen2); err != nil {
		t.Fatal(err)
	}

	after, err := s.AnswerDataset(ctx, "flights", q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Cached {
		t.Fatal("flights answer still cached after its swap")
	}
	if after.Text == before.Text || !strings.Contains(after.Text, "chance of cancellation") {
		t.Fatalf("post-swap answer %q does not reflect the new store", after.Text)
	}
	// The untouched dataset kept its warm cache.
	if hit, err := s.AnswerDataset(ctx, "acs", "help"); err != nil || !hit.Cached {
		t.Fatalf("acs cache purged collaterally: %+v, %v", hit, err)
	}

	stats, err := s.DatasetStats("flights")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Swaps != 1 {
		t.Fatalf("flights swaps = %d, want 1", stats.Swaps)
	}
	if other, _ := s.DatasetStats("acs"); other.Swaps != 0 {
		t.Fatalf("acs swaps = %d, want 0", other.Swaps)
	}
	if _, err := s.DatasetStats("nope"); !errors.Is(err, serve.ErrUnknownDataset) {
		t.Fatalf("DatasetStats(nope) err = %v", err)
	}
}

// TestPublishThroughEveryEntryPoint publishes through each of the three
// entry points — the Answerer itself and the registry (both behind the
// server's back), and the server — and checks what an operator and the
// cluster router see: every reported swap count moves by exactly one
// (a router tags stale answers with /v1/{dataset}/healthz's number, so
// an unseen publish would let it serve a superseded answer as current),
// the other dataset's does not move, and the dataset's cached answer is
// never served again.
func TestPublishThroughEveryEntryPoint(t *testing.T) {
	ctx := context.Background()
	const q = "cancellations in Winter"
	entryPoints := []struct {
		name    string
		publish func(s *Server, reg *serve.Registry, rel *relation.Relation, next engine.StoreView) error
	}{
		{"Answerer.SwapData", func(_ *Server, reg *serve.Registry, rel *relation.Relation, next engine.StoreView) error {
			a, err := reg.Get("flights")
			if err == nil {
				a.SwapData(rel, next)
			}
			return err
		}},
		{"Registry.SwapData", func(_ *Server, reg *serve.Registry, rel *relation.Relation, next engine.StoreView) error {
			_, err := reg.SwapData("flights", rel, next)
			return err
		}},
		{"Server.SwapDataFor", func(s *Server, _ *serve.Registry, rel *relation.Relation, next engine.StoreView) error {
			_, err := s.SwapDataFor(ctx, "flights", rel, next)
			return err
		}},
	}
	// swaps reads the four reported counts of one dataset over HTTP.
	swaps := func(t *testing.T, h http.Handler, dataset string) [4]uint64 {
		t.Helper()
		var dsHealth, health HealthResponse
		var dsStats DatasetSnapshot
		var stats StatsSnapshot
		for path, into := range map[string]any{
			"/v1/" + dataset + "/healthz": &dsHealth, "/v1/healthz": &health,
			"/v1/" + dataset + "/stats": &dsStats, "/v1/stats": &stats,
		} {
			rec := getFrom(t, h, path)
			if rec.Code != http.StatusOK {
				t.Fatalf("GET %s = %d", path, rec.Code)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
		}
		if stats.Datasets[dataset].Swaps != dsStats.Swaps {
			t.Fatalf("/v1/stats lists %d swaps for %s, /v1/%s/stats %d",
				stats.Datasets[dataset].Swaps, dataset, dataset, dsStats.Swaps)
		}
		return [4]uint64{dsHealth.Swaps, health.Swaps, dsStats.Swaps, stats.Store.Swaps}
	}
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			s, reg := newMultiServer(t, Options{})
			h := s.Handler()
			if _, err := s.AnswerDataset(ctx, "flights", q); err != nil {
				t.Fatal(err)
			}
			if hit, err := s.AnswerDataset(ctx, "flights", q); err != nil || !hit.Cached {
				t.Fatalf("not cached: %+v, %v", hit, err)
			}
			before, acsBefore := swaps(t, h, "flights"), swaps(t, h, "acs")

			rel := flightsRel()
			if err := ep.publish(s, reg, rel, buildFlightsStore(t, rel, 1, "chance of cancellation")); err != nil {
				t.Fatal(err)
			}
			after, err := s.AnswerDataset(ctx, "flights", q)
			if err != nil {
				t.Fatal(err)
			}
			if after.Cached || !strings.Contains(after.Text, "chance of cancellation") {
				t.Fatalf("superseded answer after the publish: %+v", after)
			}
			now := swaps(t, h, "flights")
			for i, route := range []string{"/v1/flights/healthz", "/v1/healthz", "/v1/flights/stats", "/v1/stats"} {
				if now[i] != before[i]+1 {
					t.Errorf("%s: swaps %d -> %d, want +1", route, before[i], now[i])
				}
			}
			if acsNow := swaps(t, h, "acs"); acsNow[0] != acsBefore[0] || acsNow[2] != acsBefore[2] {
				t.Errorf("the flights publish moved acs: %v -> %v", acsBefore, acsNow)
			}
		})
	}
}

// TestMultiHealthzAggregates checks the global healthz sums the mounted
// stores and the per-dataset healthz reports one store.
func TestMultiHealthzAggregates(t *testing.T) {
	s, reg := newMultiServer(t, Options{})
	h := s.Handler()

	var health HealthResponse
	rec := getFrom(t, h, "/v1/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status = %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	acs, err := reg.Get("acs")
	if err != nil {
		t.Fatal(err)
	}
	flights, err := reg.Get("flights")
	if err != nil {
		t.Fatal(err)
	}
	if want := acs.Store().Len() + flights.Store().Len(); health.Datasets != 2 || health.Speeches != want {
		t.Fatalf("healthz = %+v, want 2 datasets and %d speeches", health, want)
	}
	assertNoLoadedKey(t, rec.Body.Bytes())

	var one HealthResponse
	rec = getFrom(t, h, "/v1/acs/healthz")
	if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil {
		t.Fatal(err)
	}
	if one.Speeches != acs.Store().Len() {
		t.Fatalf("per-dataset healthz speeches = %d, want %d", one.Speeches, acs.Store().Len())
	}
	assertNoLoadedKey(t, rec.Body.Bytes())
	for _, path := range []string{"/v1/acs/stats", "/v1/stats"} {
		assertNoLoadedKey(t, getFrom(t, h, path).Body.Bytes())
	}

	// Global stats carry the per-dataset map.
	snap := s.Stats()
	if len(snap.Datasets) != 2 || snap.Store.Datasets != 2 {
		t.Fatalf("stats datasets = %+v", snap.Datasets)
	}
}
