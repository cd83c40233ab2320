package cicero_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cicero"
	"cicero/internal/dataset"
	"cicero/internal/engine"
)

// buildCoffee builds a small relation through the public API.
func buildCoffee(t testing.TB) *cicero.Relation {
	t.Helper()
	b := cicero.NewBuilder("coffee", cicero.Schema{
		Dimensions: []string{"city", "roast"},
		Targets:    []string{"price"},
	})
	rows := []struct {
		city, roast string
		price       float64
	}{
		{"Berlin", "light", 3.2}, {"Berlin", "dark", 3.0},
		{"Zurich", "light", 5.9}, {"Zurich", "dark", 5.6},
		{"Lisbon", "light", 2.1}, {"Lisbon", "dark", 2.0},
		{"Oslo", "light", 5.8}, {"Oslo", "dark", 5.5},
	}
	for _, r := range rows {
		b.MustAddRow([]string{r.city, r.roast}, []float64{r.price})
	}
	return b.Freeze()
}

func TestPublicAPISummarization(t *testing.T) {
	rel := buildCoffee(t)
	view := rel.FullView()
	facts := cicero.GenerateFacts(view, 0, cicero.GenerateOptions{MaxDims: 2})
	if len(facts) == 0 {
		t.Fatal("no facts generated")
	}
	prior := cicero.MeanPrior(view, 0)
	e := cicero.NewEvaluator(view, 0, facts, prior)

	greedy := cicero.Greedy(e, cicero.Options{MaxFacts: 3})
	exact := cicero.Exact(e, cicero.Options{MaxFacts: 3, LowerBound: greedy.Utility})
	if greedy.Utility <= 0 {
		t.Error("greedy should find useful facts on varied data")
	}
	if exact.Utility < greedy.Utility-1e-9 {
		t.Errorf("exact %v below greedy %v", exact.Utility, greedy.Utility)
	}
	// Utility recomputes identically through the public helper.
	if got := cicero.Utility(view, greedy.Facts, prior, 0); math.Abs(got-greedy.Utility) > 1e-9 {
		t.Errorf("Utility = %v, summary says %v", got, greedy.Utility)
	}
	// Pruning modes agree through the facade too.
	for _, mode := range []cicero.PruningMode{cicero.PruneNaive, cicero.PruneOptimized} {
		alt := cicero.Greedy(e, cicero.Options{MaxFacts: 3, Pruning: mode})
		if math.Abs(alt.Utility-greedy.Utility) > 1e-9 {
			t.Errorf("mode %v utility %v != base %v", mode, alt.Utility, greedy.Utility)
		}
	}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	rel := dataset.Flights(1200, 1)
	cfg := cicero.DefaultConfig(rel)
	cfg.Targets = []string{"delay"}
	cfg.Dimensions = []string{"season"}
	cfg.MaxQueryLen = 1

	store, stats, err := cicero.Preprocess(context.Background(), rel, cfg, cicero.PipelineOptions{
		Template: cicero.Template{Unit: "minutes"}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Speeches != 5 { // overall + 4 seasons
		t.Fatalf("speeches = %d, want 5", stats.Speeches)
	}

	ex := cicero.NewVoiceExtractor(rel, []cicero.VoiceSample{
		{Phrase: "delays", Target: "delay"},
	}, 1)
	c := cicero.ClassifyRequest("delays in Winter", ex)
	sp, ok := store.Lookup(c.Query)
	if !ok {
		t.Fatal("no answer for winter delays")
	}
	if !strings.Contains(sp.Text, "minutes") {
		t.Errorf("speech = %q", sp.Text)
	}

	// Persistence round trip through the facade: the snapshot artifact,
	// mapped back the way a daemon serves it.
	path := filepath.Join(t.TempDir(), "flights.snap")
	if err := cicero.SaveSnapshot(path, store, rel); err != nil {
		t.Fatal(err)
	}
	mapped, err := cicero.MapSnapshot(path, rel)
	if err != nil {
		t.Fatal(err)
	}
	if mapped.Len() != store.Len() {
		t.Errorf("mapped %d speeches, want %d", mapped.Len(), store.Len())
	}
	if got, ok := mapped.Lookup(c.Query); !ok || got.Text != sp.Text {
		t.Errorf("mapped snapshot answers %+v, want %q", got, sp.Text)
	}
}

func TestPublicAPIServingLayer(t *testing.T) {
	rel := dataset.Flights(1200, 1)
	cfg := cicero.DefaultConfig(rel)
	cfg.Targets = []string{"delay"}
	cfg.MaxQueryLen = 1
	store, _, err := cicero.Preprocess(context.Background(), rel, cfg, cicero.PipelineOptions{
		Template: cicero.Template{Unit: "minutes"}})
	if err != nil {
		t.Fatal(err)
	}
	ex := cicero.NewVoiceExtractor(rel, []cicero.VoiceSample{
		{Phrase: "delays", Target: "delay"},
	}, 1)
	a := cicero.NewAnswerer(rel, store, ex, cicero.ServeOptions{})

	ans := a.Answer("delays in Winter")
	if ans.Kind != cicero.KindSummary || !ans.Answered || ans.Matched == nil {
		t.Fatalf("serving answer = %+v", ans)
	}
	if !strings.Contains(ans.Text, "minutes") {
		t.Errorf("speech = %q", ans.Text)
	}
	// The session layer handles repeat.
	sess := a.NewSession()
	sess.Answer("delays in Winter")
	if rep := sess.Answer("say that again"); rep.Text != ans.Text || !rep.Answered {
		t.Errorf("repeat = %+v", rep)
	}
	// The stateless front door answers a whole log.
	for _, text := range []string{"delays in Winter", "delays in Summer", "help"} {
		if ans := a.Answer(text); !ans.Answered || ans.Latency <= 0 {
			t.Errorf("Answer(%q) = %+v", text, ans)
		}
	}
	// A frozen store rejects further mutation.
	defer func() {
		if recover() == nil {
			t.Error("Add on a served store must panic")
		}
	}()
	store.Add(&cicero.StoredSpeech{Query: cicero.Query{Target: "delay"}})
}

func TestPublicAPIExtendedQueries(t *testing.T) {
	// Extrema and comparisons are run-time aggregations behind the same
	// front door as the stored summaries.
	rel := dataset.Flights(8000, 1)
	cfg := cicero.DefaultConfig(rel)
	cfg.Targets = []string{"cancelled"}
	cfg.Dimensions = []string{"month"}
	cfg.MaxQueryLen = 1
	store, _, err := cicero.Preprocess(context.Background(), rel, cfg, cicero.PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ex := cicero.NewVoiceExtractor(rel, []cicero.VoiceSample{
		{Phrase: "cancellations", Target: "cancelled"},
	}, 1)
	a := cicero.NewAnswerer(rel, store, ex, cicero.ServeOptions{MinExtremumRows: 20})

	ext := a.Answer("which month has the most cancellations")
	if ext.Kind != cicero.KindExtremum || !ext.Answered || !strings.Contains(ext.Text, "is February") {
		t.Errorf("extremum answer = %v %q, want February", ext.Kind, ext.Text)
	}
	cmp := a.Answer("compare cancellations between February and July")
	if cmp.Kind != cicero.KindComparison || !cmp.Answered || !strings.Contains(cmp.Text, "higher for February") {
		t.Errorf("comparison answer = %v %q, want February above July", cmp.Kind, cmp.Text)
	}
}

func TestPublicAPIExpectationModels(t *testing.T) {
	models := []cicero.ExpectationModel{cicero.Closest, cicero.Farthest, cicero.AvgScope, cicero.AvgAll}
	names := map[string]bool{}
	for _, m := range models {
		names[m.String()] = true
	}
	if len(names) != 4 {
		t.Errorf("model names collide: %v", names)
	}
}

func TestFacadeTypesInteroperateWithInternal(t *testing.T) {
	// Aliases mean values flow freely between facade and internal
	// packages — a StoredSpeech from engine is a cicero.StoredSpeech.
	var sp *cicero.StoredSpeech = &engine.StoredSpeech{Text: "x"}
	if sp.Text != "x" {
		t.Fatal("alias broken")
	}
	var p cicero.Prior = cicero.ConstantPrior(3)
	if p.At(0) != 3 {
		t.Fatal("prior alias broken")
	}
}

func TestPublicAPIHTTPTier(t *testing.T) {
	rel := dataset.Flights(1200, 1)
	cfg := cicero.DefaultConfig(rel)
	cfg.Targets = []string{"delay"}
	cfg.MaxQueryLen = 1
	store, _, err := cicero.Preprocess(context.Background(), rel, cfg, cicero.PipelineOptions{
		Template: cicero.Template{Unit: "minutes"}})
	if err != nil {
		t.Fatal(err)
	}
	ex := cicero.NewVoiceExtractor(rel, []cicero.VoiceSample{
		{Phrase: "delays", Target: "delay"},
	}, 1)
	a := cicero.NewAnswerer(rel, store, ex, cicero.ServeOptions{})
	srv := cicero.NewServer(a, cicero.HTTPOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A seeded workload drives the HTTP API end to end through the
	// facade: generate it, replay it over the wire, read the counters.
	texts := cicero.GenerateLoad(rel, cicero.LoadOptions{
		Requests: 120, Distinct: 12, Seed: 3,
		TargetPhrases: map[string][]string{"delay": {"delays"}},
	})
	byKind := map[string]int{}
	for _, text := range texts {
		body, _ := json.Marshal(map[string]string{"text": text})
		resp, err := ts.Client().Post(ts.URL+"/v1/answer", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ans struct {
			Kind string `json:"kind"`
		}
		err = json.NewDecoder(resp.Body).Decode(&ans)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("%q: status %d, decode error %v", text, resp.StatusCode, err)
		}
		byKind[ans.Kind]++
	}
	if byKind["summary"] == 0 {
		t.Errorf("no summaries served: %v", byKind)
	}
	if snap := srv.Stats(); snap.Cache.Hits == 0 || snap.Routes["answer"].Requests != 120 {
		t.Errorf("server stats = %+v", snap)
	}

	// Serve shuts down cleanly on ctx cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- cicero.Serve(ctx, "127.0.0.1:0", a, cicero.HTTPOptions{}) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not shut down")
	}
}
