package baseline

import (
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/fact"
	"cicero/internal/relation"
	"cicero/internal/summarize"
)

func TestSamplingAnswerBasics(t *testing.T) {
	rel := dataset.Flights(4000, 1)
	view := rel.FullView()
	target := rel.Schema().TargetIndex("delay")
	res := SamplingAnswer(view, target, nil, SamplingOptions{MaxFacts: 3, Seed: 7})
	if len(res.Facts) != 3 {
		t.Fatalf("facts = %d, want 3", len(res.Facts))
	}
	if res.Latency <= 0 || res.Total < res.Latency {
		t.Errorf("latency %v total %v", res.Latency, res.Total)
	}
	if res.SampledRows == 0 {
		t.Error("sampling must process rows")
	}
	for _, f := range res.Facts {
		if f.Lo > f.Hi {
			t.Errorf("inverted range %v", f)
		}
		if f.Width() < 0 {
			t.Errorf("negative width")
		}
	}
}

func TestSamplingRangeContainsTruth(t *testing.T) {
	// With heavy sampling, the range for the overall scope should contain
	// the true mean.
	rel := dataset.Flights(3000, 2)
	view := rel.FullView()
	target := rel.Schema().TargetIndex("delay")
	res := SamplingAnswer(view, target, nil, SamplingOptions{
		MaxFacts: 1, SampleSize: 512, Rounds: 30, Seed: 3,
	})
	if len(res.Facts) == 0 {
		t.Fatal("no facts")
	}
	f := res.Facts[0]
	truth := view.Select(f.Scope.Predicates()).Stats(target).Mean()
	// Allow slack: 2-sigma ranges miss occasionally, widen by 50%.
	slack := f.Width()*0.25 + 1e-9
	if truth < f.Lo-slack || truth > f.Hi+slack {
		t.Errorf("true mean %v outside range [%v, %v]", truth, f.Lo, f.Hi)
	}
}

func TestSamplingEmptyView(t *testing.T) {
	rel := dataset.Flights(200, 1)
	empty := rel.FullView().Select([]relation.Predicate{{Dim: 0, Code: 999}})
	res := SamplingAnswer(empty, 0, nil, SamplingOptions{Seed: 1})
	if len(res.Facts) != 0 {
		t.Errorf("empty view produced %d facts", len(res.Facts))
	}
}

func TestSamplingDeterministic(t *testing.T) {
	rel := dataset.Flights(1000, 1)
	view := rel.FullView()
	a := SamplingAnswer(view, 1, nil, SamplingOptions{Seed: 5})
	b := SamplingAnswer(view, 1, nil, SamplingOptions{Seed: 5})
	if len(a.Facts) != len(b.Facts) {
		t.Fatal("fact counts differ")
	}
	for i := range a.Facts {
		if !a.Facts[i].Scope.Equal(b.Facts[i].Scope) ||
			a.Facts[i].Lo != b.Facts[i].Lo || a.Facts[i].Hi != b.Facts[i].Hi {
			t.Fatal("sampling not deterministic for fixed seed")
		}
	}
}

// trainPairs builds ML training pairs by running the real optimizer on
// region queries, mirroring the paper's setup (49 training queries on the
// dimension with the most distinct values).
func trainPairs(t testing.TB, rel *relation.Relation, n int) []MLPair {
	t.Helper()
	cfg := engine.Config{
		Dataset:     rel.Name(),
		Targets:     []string{"delay"},
		Dimensions:  []string{"origin_region"},
		MaxQueryLen: 1,
		MaxFactDims: 2,
		MaxFacts:    3,
	}
	problems, err := engine.Problems(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []MLPair
	for i := range problems {
		if len(problems[i].Query.Predicates) == 0 {
			continue
		}
		p := &problems[i]
		facts := p.GenerateFacts(cfg.MaxFactDims)
		e := summarize.NewEvaluator(p.View, p.Target, facts, p.Prior)
		sum := summarize.Greedy(e, summarize.Options{MaxFacts: 3})
		pairs = append(pairs, MLPair{Query: p.Query, Facts: sum.Facts})
		if len(pairs) == n {
			break
		}
	}
	return pairs
}

func TestMLPredictRebindsValues(t *testing.T) {
	rel := dataset.Flights(6000, 1)
	pairs := trainPairs(t, rel, 6)
	if len(pairs) < 3 {
		t.Fatalf("too few training pairs: %d", len(pairs))
	}
	ml := NewMLSummarizer(rel)
	ml.Train(pairs[:len(pairs)-1])
	if len(ml.pairs) != len(pairs)-1 {
		t.Errorf("trained pairs = %d", len(ml.pairs))
	}

	// Predict for the held-out query.
	held := pairs[len(pairs)-1]
	ti, preds, err := held.Query.Resolve(rel)
	if err != nil {
		t.Fatal(err)
	}
	view := rel.FullView().Select(preds)
	got := ml.Predict(held.Query, view, ti)
	if len(got) == 0 {
		t.Fatal("prediction empty")
	}
	// The prediction mimics the neighbour's syntactic shape: same number
	// of facts or fewer (dedupe), each with a valid scope.
	if len(got) > 3 {
		t.Errorf("predicted %d facts, want <= 3", len(got))
	}
	for _, f := range got {
		for _, d := range f.Scope.Dims {
			if d < 0 || d >= rel.NumDims() {
				t.Errorf("invalid scope dim %d", d)
			}
		}
	}
}

func TestMLPredictUntrained(t *testing.T) {
	rel := dataset.Flights(500, 1)
	ml := NewMLSummarizer(rel)
	if got := ml.Predict(engine.Query{Target: "delay"}, rel.FullView(), 1); got != nil {
		t.Errorf("untrained prediction = %v, want nil", got)
	}
}

// TestMLWorseThanOptimized reproduces the core Section VIII-E finding:
// ML-generated speeches achieve lower utility than optimizer output on
// held-out queries.
func TestMLWorseThanOptimized(t *testing.T) {
	rel := dataset.Flights(8000, 4)
	pairs := trainPairs(t, rel, 9)
	if len(pairs) < 5 {
		t.Fatalf("too few pairs: %d", len(pairs))
	}
	train, test := pairs[:len(pairs)-3], pairs[len(pairs)-3:]
	ml := NewMLSummarizer(rel)
	ml.Train(train)

	mlBetter := 0
	for _, held := range test {
		ti, preds, err := held.Query.Resolve(rel)
		if err != nil {
			t.Fatal(err)
		}
		view := rel.FullView().Select(preds)
		prior := fact.MeanPrior(rel.FullView(), ti)
		mlFacts := ml.Predict(held.Query, view, ti)
		uML := fact.Utility(view, mlFacts, prior, ti)
		uOpt := fact.Utility(view, held.Facts, prior, ti)
		if uML > uOpt+1e-9 {
			mlBetter++
		}
	}
	if mlBetter == len(test) {
		t.Error("ML should not dominate the optimizer on held-out queries")
	}
}

func TestSimilarity(t *testing.T) {
	a := engine.Query{Target: "delay", Predicates: []engine.NamedPredicate{{Column: "region", Value: "West"}}}
	b := engine.Query{Target: "delay", Predicates: []engine.NamedPredicate{{Column: "region", Value: "East"}}}
	c := engine.Query{Target: "cancelled"}
	if similarity(a, a) != 1 {
		t.Error("self similarity should be 1")
	}
	if similarity(a, b) <= similarity(a, c) {
		t.Error("same-column query should be more similar than different target")
	}
}

func TestRedundancyScore(t *testing.T) {
	s1 := fact.NewScope([]int{0}, []int32{0})
	s2 := fact.NewScope([]int{0}, []int32{1})
	s3 := fact.NewScope([]int{1}, []int32{0})
	if got := RedundancyScore([]fact.Fact{{Scope: s1}, {Scope: s2}}); got != 1 {
		t.Errorf("full redundancy = %v, want 1", got)
	}
	if got := RedundancyScore([]fact.Fact{{Scope: s1}, {Scope: s3}}); got != 0 {
		t.Errorf("no redundancy = %v, want 0", got)
	}
	if got := RedundancyScore(nil); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

func TestDedupeKeepOrder(t *testing.T) {
	s1 := fact.NewScope([]int{0}, []int32{0})
	s2 := fact.NewScope([]int{1}, []int32{0})
	in := []fact.Fact{{Scope: s1, Value: 1}, {Scope: s2, Value: 2}, {Scope: s1, Value: 3}}
	out := dedupeKeepOrder(in)
	if len(out) != 2 || out[0].Value != 1 || out[1].Value != 2 {
		t.Errorf("dedupe = %v", out)
	}
}
