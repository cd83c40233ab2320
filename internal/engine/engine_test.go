package engine

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/fact"
	"cicero/internal/relation"
	"cicero/internal/summarize"
)

func smallFlights(t testing.TB) *relation.Relation {
	t.Helper()
	return dataset.Flights(1500, 1)
}

func smallConfig(rel *relation.Relation) Config {
	return Config{
		Dataset:     rel.Name(),
		Targets:     []string{"delay"},
		Dimensions:  []string{"airline", "season", "time_of_day"},
		MaxQueryLen: 1,
		MaxFactDims: 2,
		MaxFacts:    3,
		Prior:       PriorGlobalMean,
	}
}

// buildStore is the in-package stand-in for the batch driver (package
// pipeline imports engine, so these tests cannot use it): the plain
// sequential batch — enumerate, solve with G-O, render, add.
func buildStore(t testing.TB, rel *relation.Relation, cfg Config, tmpl Template) *Store {
	t.Helper()
	store := NewStore()
	err := EachProblem(rel, cfg, func(p Problem) error {
		sum, err := SolveProblem(context.Background(), AlgGreedyOpt, &p, cfg.MaxFactDims,
			summarize.Options{MaxFacts: cfg.MaxFacts})
		if err != nil {
			return err
		}
		store.Add(&StoredSpeech{
			Query: p.Query, Facts: sum.Facts, Utility: sum.Utility, PriorError: sum.PriorError,
			Text: tmpl.Render(rel, p.Query, sum.Facts),
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return store.Freeze()
}

func TestConfigValidate(t *testing.T) {
	rel := smallFlights(t)
	cfg := DefaultConfig(rel)
	if err := cfg.Validate(rel); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Targets) != 2 || len(cfg.Dimensions) != 6 {
		t.Errorf("defaults not expanded: %+v", cfg)
	}

	bad := Config{Targets: []string{"nope"}, MaxQueryLen: 1}
	if err := bad.Validate(rel); err == nil {
		t.Error("unknown target should fail validation")
	}
	bad2 := Config{Dimensions: []string{"nope"}, MaxQueryLen: 1}
	if err := bad2.Validate(rel); err == nil {
		t.Error("unknown dimension should fail validation")
	}
	bad3 := Config{MaxQueryLen: -1}
	if err := bad3.Validate(rel); err == nil {
		t.Error("negative query length should fail validation")
	}
	bad4 := Config{Prior: "martian"}
	if err := bad4.Validate(rel); err == nil {
		t.Error("unknown prior mode should fail validation")
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	rel := smallFlights(t)
	cfg := smallConfig(rel)
	var buf strings.Builder
	if err := cfg.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxQueryLen != cfg.MaxQueryLen || got.Targets[0] != "delay" {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if _, err := LoadConfig(strings.NewReader(`{"bogus_field": 1}`)); err == nil {
		t.Error("unknown fields should be rejected")
	}
}

func TestQueryKeyCanonical(t *testing.T) {
	a := Query{Target: "delay", Predicates: []NamedPredicate{
		{"season", "Winter"}, {"airline", "AA"},
	}}
	b := Query{Target: "delay", Predicates: []NamedPredicate{
		{"airline", "AA"}, {"season", "Winter"},
	}}
	if a.Key() != b.Key() {
		t.Error("predicate order must not change the key")
	}
	if a.Key() == (Query{Target: "delay"}).Key() {
		t.Error("different queries must differ in key")
	}
}

func TestQuerySubsetOf(t *testing.T) {
	broad := Query{Target: "delay", Predicates: []NamedPredicate{{"season", "Winter"}}}
	narrow := Query{Target: "delay", Predicates: []NamedPredicate{
		{"season", "Winter"}, {"airline", "AA"},
	}}
	if !broad.SubsetOf(narrow) {
		t.Error("broad ⊆ narrow should hold")
	}
	if narrow.SubsetOf(broad) {
		t.Error("narrow ⊄ broad")
	}
	otherTarget := Query{Target: "cancelled", Predicates: broad.Predicates}
	if otherTarget.SubsetOf(narrow) {
		t.Error("different targets are never subsets")
	}
	empty := Query{Target: "delay"}
	if !empty.SubsetOf(narrow) {
		t.Error("empty predicates are a subset of everything (same target)")
	}
}

func TestQueryResolve(t *testing.T) {
	rel := smallFlights(t)
	q := Query{Target: "delay", Predicates: []NamedPredicate{{"season", "Winter"}}}
	ti, preds, err := q.Resolve(rel)
	if err != nil {
		t.Fatal(err)
	}
	if ti != rel.Schema().TargetIndex("delay") || len(preds) != 1 {
		t.Errorf("resolve wrong: ti=%d preds=%v", ti, preds)
	}
	if _, _, err := (Query{Target: "nope"}).Resolve(rel); err == nil {
		t.Error("unknown target should fail")
	}
	if _, _, err := (Query{Target: "delay", Predicates: []NamedPredicate{{"nope", "x"}}}).Resolve(rel); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestProblemsEnumeration(t *testing.T) {
	rel := smallFlights(t)
	cfg := smallConfig(rel)
	problems, err := Problems(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 1 empty query + one per airline (8) + season (4) + time_of_day (4) = 17.
	want := 1 + rel.Dim(rel.Schema().DimIndex("airline")).Cardinality() +
		rel.Dim(rel.Schema().DimIndex("season")).Cardinality() +
		rel.Dim(rel.Schema().DimIndex("time_of_day")).Cardinality()
	if len(problems) != want {
		t.Errorf("problems = %d, want %d", len(problems), want)
	}
	count, err := CountProblems(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if count != want {
		t.Errorf("CountProblems = %d, want %d", count, want)
	}
	// Free dims exclude query dims.
	for _, p := range problems {
		for _, np := range p.Query.Predicates {
			qd := rel.Schema().DimIndex(np.Column)
			for _, fd := range p.FreeDims {
				if fd == qd {
					t.Fatalf("query dim %s appears in free dims", np.Column)
				}
			}
		}
		if p.View.NumRows() == 0 {
			t.Fatal("empty view generated")
		}
	}
}

func TestProblemsMinSubsetRows(t *testing.T) {
	rel := smallFlights(t)
	cfg := smallConfig(rel)
	cfg.MinSubsetRows = 10_000 // larger than the relation
	problems, err := Problems(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Errorf("problems = %d, want 0 with huge MinSubsetRows", len(problems))
	}

	// The median subset size keeps some subsets and drops others, under
	// two targets: CountProblems must count what Problems yields.
	cfg = smallConfig(rel)
	cfg.Targets = []string{"delay", "cancelled"}
	cfg.MaxQueryLen = 2
	all, err := Problems(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]int, len(all))
	for i, p := range all {
		rows[i] = p.View.NumRows()
	}
	slices.Sort(rows)
	cfg.MinSubsetRows = rows[len(rows)/2]
	kept, err := Problems(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) == 0 || len(kept) == len(all) {
		t.Fatalf("MinSubsetRows %d keeps %d of %d problems; want some but not all", cfg.MinSubsetRows, len(kept), len(all))
	}
	if n, err := CountProblems(rel, cfg); err != nil || n != len(kept) {
		t.Errorf("CountProblems = %d (err %v), Problems yields %d", n, err, len(kept))
	}
}

func TestPreprocessAndLookup(t *testing.T) {
	rel := smallFlights(t)
	cfg := smallConfig(rel)
	store := buildStore(t, rel, cfg, Template{Unit: "minutes"})
	if n, err := CountProblems(rel, cfg); err != nil || store.Len() != n || n == 0 {
		t.Fatalf("store holds %d speeches for %d problems (err %v)", store.Len(), n, err)
	}
	improved := 0
	for _, sp := range store.Speeches() {
		if sp.Utility < 0 || sp.Utility > sp.PriorError*(1+1e-9) {
			t.Errorf("speech %v: utility %v outside [0, prior error %v]", sp.Query, sp.Utility, sp.PriorError)
		}
		if sp.Utility > 0 {
			improved++
		}
	}
	if improved == 0 {
		t.Error("no speech improves on the prior")
	}

	// Exact lookup.
	q := Query{Target: "delay", Predicates: []NamedPredicate{{"season", "Winter"}}}
	sp, ok := store.Exact(q)
	if !ok {
		t.Fatal("exact speech for winter missing")
	}
	if !strings.Contains(sp.Text, "Considering") || !strings.Contains(sp.Text, "minutes") {
		t.Errorf("speech text = %q", sp.Text)
	}

	// Unsupported two-predicate query falls back to the most specific
	// covering speech (the winter one, one shared predicate).
	q2 := Query{Target: "delay", Predicates: []NamedPredicate{
		{"season", "Winter"}, {"airline", "AA"},
	}}
	sp2, ok := store.Lookup(q2)
	if !ok {
		t.Fatal("fallback lookup failed")
	}
	if len(sp2.Query.Predicates) != 1 {
		t.Errorf("fallback should use a 1-predicate speech, got %v", sp2.Query)
	}

	// Query for an unknown target has no answer.
	if _, ok := store.Lookup(Query{Target: "nope"}); ok {
		t.Error("unknown target should not match")
	}
}

func TestStoreReplace(t *testing.T) {
	st := NewStore()
	q := Query{Target: "t"}
	st.Add(&StoredSpeech{Query: q, Text: "first"})
	st.Add(&StoredSpeech{Query: q, Text: "second"})
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st.Len())
	}
	sp, _ := st.Exact(q)
	if sp.Text != "second" {
		t.Errorf("replacement failed: %q", sp.Text)
	}
	if got := len(st.Speeches()); got != 1 {
		t.Errorf("Speeches len = %d", got)
	}
}

func TestStoreMostSpecific(t *testing.T) {
	st := NewStore()
	overall := Query{Target: "t"}
	winter := Query{Target: "t", Predicates: []NamedPredicate{{"season", "Winter"}}}
	st.Add(&StoredSpeech{Query: overall, Text: "overall"})
	st.Add(&StoredSpeech{Query: winter, Text: "winter"})

	// Query with two predicates: winter speech (1 shared) beats overall (0).
	q := Query{Target: "t", Predicates: []NamedPredicate{
		{"season", "Winter"}, {"airline", "AA"},
	}}
	sp, ok := st.Lookup(q)
	if !ok || sp.Text != "winter" {
		t.Errorf("most specific = %+v, ok=%v", sp, ok)
	}
	// A query with an unrelated predicate matches only the overall speech.
	q2 := Query{Target: "t", Predicates: []NamedPredicate{{"airline", "AA"}}}
	sp2, ok := st.Lookup(q2)
	if !ok || sp2.Text != "overall" {
		t.Errorf("generalization lookup = %+v, ok=%v", sp2, ok)
	}
}

func TestAlgorithmsAgreeOnUtilityOrdering(t *testing.T) {
	// All greedy variants must produce identical utility; exact must be
	// at least as good.
	rel := dataset.Flights(800, 2)
	cfg := Config{
		Dataset:     rel.Name(),
		Targets:     []string{"delay"},
		Dimensions:  []string{"season", "time_of_day"},
		MaxQueryLen: 1,
		MaxFactDims: 2,
		MaxFacts:    2,
	}
	problems, err := Problems(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	problems = problems[:3]
	utilities := map[Algorithm]float64{}
	for _, alg := range Algorithms() {
		for i := range problems {
			sum, err := SolveProblem(context.Background(), alg, &problems[i], cfg.MaxFactDims,
				summarize.Options{MaxFacts: cfg.MaxFacts})
			if err != nil {
				t.Fatal(err)
			}
			utilities[alg] += sum.ScaledUtility()
		}
	}
	if math.Abs(utilities[AlgGreedyBase]-utilities[AlgGreedyPrune]) > 1e-9 ||
		math.Abs(utilities[AlgGreedyBase]-utilities[AlgGreedyOpt]) > 1e-9 {
		t.Errorf("greedy variants disagree: %+v", utilities)
	}
	if utilities[AlgExact] < utilities[AlgGreedyBase]-1e-9 {
		t.Errorf("exact below greedy: %+v", utilities)
	}
}

func TestTemplateRender(t *testing.T) {
	rel := smallFlights(t)
	q := Query{Target: "cancelled", Predicates: []NamedPredicate{{"season", "Winter"}}}
	seasonDim := rel.Schema().DimIndex("month")
	feb, _ := rel.Dim(seasonDim).Code("February")
	facts := []fact.Fact{
		{Scope: fact.NewScope(nil, nil), Value: 0.06},
		{Scope: fact.NewScope([]int{seasonDim}, []int32{feb}), Value: 0.18},
	}
	tpl := Template{TargetPhrase: "cancellation probability", Percent: true}
	got := tpl.Render(rel, q, facts)
	for _, want := range []string{"Considering", "cancellation probability", "6%", "18%", "month February", "overall"} {
		if !strings.Contains(got, want) {
			t.Errorf("rendered speech missing %q: %q", want, got)
		}
	}
	// Empty fact list renders a fallback sentence.
	empty := tpl.Render(rel, q, nil)
	if !strings.Contains(empty, "No further data") {
		t.Errorf("empty render = %q", empty)
	}
}

func TestSolveExactFallsBackToGreedyOnTimeout(t *testing.T) {
	rel := dataset.StackOverflow(2500, 3)
	cfg := Config{
		Dataset:     rel.Name(),
		Targets:     []string{"optimism"},
		MaxQueryLen: 0,
		MaxFactDims: 2,
		MaxFacts:    3,
	}
	problems, err := Problems(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 {
		t.Fatalf("problems = %d", len(problems))
	}
	sum, err := SolveProblem(context.Background(), AlgExact, &problems[0], cfg.MaxFactDims,
		summarize.Options{MaxFacts: cfg.MaxFacts, Timeout: 1}) // 1ns: immediate timeout
	if err != nil {
		t.Fatal(err)
	}
	// Even with the timeout, the answer has the greedy quality.
	if sum.ScaledUtility() <= 0 {
		t.Error("timed-out exact should fall back to greedy result")
	}
}
