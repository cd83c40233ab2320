package summarize

import (
	"math"
	"math/rand"
	"testing"

	"cicero/internal/fact"
	"cicero/internal/relation"
)

// requireSameSpeech asserts that got is want's speech bit for bit:
// selected facts and their values, utility and the error decomposition.
func requireSameSpeech(t testing.TB, name string, want, got Summary) {
	t.Helper()
	if math.Float64bits(got.Utility) != math.Float64bits(want.Utility) {
		t.Errorf("%s: Utility %v != %v", name, got.Utility, want.Utility)
	}
	if math.Float64bits(got.PriorError) != math.Float64bits(want.PriorError) ||
		math.Float64bits(got.ResidualError) != math.Float64bits(want.ResidualError) {
		t.Errorf("%s: error decomposition (%v,%v) != (%v,%v)",
			name, got.PriorError, got.ResidualError, want.PriorError, want.ResidualError)
	}
	if len(got.FactIdx) != len(want.FactIdx) || len(got.Facts) != len(want.Facts) {
		t.Errorf("%s: FactIdx %v != %v", name, got.FactIdx, want.FactIdx)
		return
	}
	for i := range want.FactIdx {
		if got.FactIdx[i] != want.FactIdx[i] ||
			got.Facts[i].Scope.Key() != want.Facts[i].Scope.Key() ||
			math.Float64bits(got.Facts[i].Value) != math.Float64bits(want.Facts[i].Value) {
			t.Errorf("%s: speech %v != %v", name, got.Facts, want.Facts)
			return
		}
	}
}

// submodularOracle runs both exact searches on e and checks the bound's
// contract: the submodular path bound scores the same candidate facts,
// expands no more nodes, and returns Lemma 1's speech bit for bit
// whenever that speech reaches the seed opts.LowerBound. When it does
// not — Lemma 1's fixed ε is below an ulp of utilities in the tens of
// millions, so a speech that ties the seed within rounding can be cut —
// engine.Solve answers with the seed's greedy speech, and the path bound
// must fall below the seed too.
func submodularOracle(t testing.TB, name string, e *Evaluator, opts Options) (lemma1, submodular Summary) {
	t.Helper()
	lemma1 = ExactCtx(t.Context(), e, opts)
	submodular = ExactSubmodularCtx(t.Context(), e, opts)
	switch {
	case lemma1.Utility >= opts.LowerBound:
		requireSameSpeech(t, name, lemma1, submodular)
	case submodular.Utility >= opts.LowerBound:
		t.Errorf("%s: Lemma 1 stays below the seed %v at %v, the submodular bound reaches %v",
			name, opts.LowerBound, lemma1.Utility, submodular.Utility)
	}
	if submodular.Stats.FactsEvaluated != lemma1.Stats.FactsEvaluated {
		t.Errorf("%s: FactsEvaluated %d != %d", name, submodular.Stats.FactsEvaluated, lemma1.Stats.FactsEvaluated)
	}
	if submodular.Stats.NodesExpanded > lemma1.Stats.NodesExpanded {
		t.Errorf("%s: the submodular bound expanded %d nodes, Lemma 1 %d",
			name, submodular.Stats.NodesExpanded, lemma1.Stats.NodesExpanded)
	}
	return lemma1, submodular
}

// ExactBoundsOracle and RequireSameSpeech expose the oracle to the
// external test package, whose data-set sweep needs package engine.
var (
	ExactBoundsOracle = submodularOracle
	RequireSameSpeech = requireSameSpeech
)

// coldAndSeeded runs the oracle with no lower bound and with the greedy
// utility as the seed, the way engine.Solve calls both searches, and
// reports whether either run cut a node Lemma 1 expanded.
func coldAndSeeded(t *testing.T, name string, e *Evaluator, maxFacts int) (fewer bool) {
	t.Helper()
	seedU := Greedy(e, Options{MaxFacts: maxFacts}).Utility
	for _, lb := range []float64{0, seedU} {
		lemma1, sub := submodularOracle(t, name, e, Options{MaxFacts: maxFacts, LowerBound: lb})
		fewer = fewer || sub.Stats.NodesExpanded < lemma1.Stats.NodesExpanded
	}
	return fewer
}

// TestExactSubmodularParityCorpus runs the oracle over the golden parity
// corpus, cold and greedy-seeded.
func TestExactSubmodularParityCorpus(t *testing.T) {
	fewer := false
	for _, sc := range parityScenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			if coldAndSeeded(t, sc.Name, parityEval(sc), sc.MaxFacts) {
				fewer = true
			}
		})
	}
	if !fewer {
		t.Error("the submodular bound cut no node anywhere in the corpus")
	}
}

// TestExactSubmodularParityRandom widens the oracle to random relations
// across sizes, dimensionalities and speech lengths, and to
// TestBranchFreeKernelsMatchBranchy's evaluators made for ties,
// zero-deviation rows and all-negative gains.
func TestExactSubmodularParityRandom(t *testing.T) {
	shapes := []struct {
		rows, maxDims, maxFacts int
	}{
		{30, 1, 2},
		{75, 2, 3},
		{140, 2, 4},
		{110, 3, 3},
	}
	for seed := int64(1); seed <= 6; seed++ {
		for _, sh := range shapes {
			rng := rand.New(rand.NewSource(seed * 1000))
			rel := randomRelation(rng, sh.rows)
			coldAndSeeded(t, "random", newEval(t, rel, sh.maxDims), sh.maxFacts)
		}
	}
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 200; trial++ {
		e := oracleEvaluator(rng, trial%5 == 4)
		coldAndSeeded(t, "ties", e, 1+trial%3)
	}
}

// dupFactEval builds an evaluator over a relation whose second
// dimension mirrors the first: every single-dimension fact then has a
// twin with an identical posting list and value under a different scope
// (a=x vs b=x' vs a=x∧b=x'), the exact shape dominance pruning exists
// to skip. (Literal duplicate facts cannot survive the evaluator's
// slot resolution — the last clone absorbs the rows — so correlated
// scopes are the real-world source of dominated facts.)
func dupFactEval(t testing.TB) *Evaluator {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	b := relation.NewBuilder("corr", relation.Schema{
		Dimensions: []string{"a", "b"},
		Targets:    []string{"v"},
	})
	av := []string{"a0", "a1", "a2", "a3"}
	mv := []string{"m0", "m1", "m2", "m3"}
	for i := 0; i < 120; i++ {
		k := rng.Intn(len(av))
		b.MustAddRow([]string{av[k], mv[k]}, []float64{rng.NormFloat64()*10 + float64(k)*8})
	}
	rel := b.Freeze()
	view := rel.FullView()
	facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: 2})
	return NewEvaluator(view, 0, facts, fact.MeanPrior(view, 0))
}

// TestExactSubmodularDominancePruning feeds both searches a correlated
// relation full of equal-signature facts: the dominance skip must fire
// under both bounds, and the speeches must agree bit for bit.
func TestExactSubmodularDominancePruning(t *testing.T) {
	lemma1, sub := submodularOracle(t, "dup-facts", dupFactEval(t), Options{MaxFacts: 3})
	if lemma1.Stats.DominatedSkipped == 0 || sub.Stats.DominatedSkipped == 0 {
		t.Errorf("duplicate facts present but DominatedSkipped is %d (Lemma 1) and %d (submodular)",
			lemma1.Stats.DominatedSkipped, sub.Stats.DominatedSkipped)
	}
}

// TestExactSubmodularEmptyProblem covers an evaluator with no candidate
// facts: both searches return the empty speech after evaluating it once.
func TestExactSubmodularEmptyProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	view := randomRelation(rng, 20).FullView()
	e := NewEvaluator(view, 0, nil, fact.MeanPrior(view, 0))
	lemma1, sub := submodularOracle(t, "empty", e, Options{MaxFacts: 3})
	if len(sub.FactIdx) != 0 || sub.Stats.SpeechesEvaluated != lemma1.Stats.SpeechesEvaluated {
		t.Errorf("empty problem: facts %v after %d speech evaluations, Lemma 1 %d",
			sub.FactIdx, sub.Stats.SpeechesEvaluated, lemma1.Stats.SpeechesEvaluated)
	}
}

// TestExactGreedySeedPrunesMore pins the payoff of seeding b with the
// greedy utility: a seeded search expands strictly fewer nodes than a
// cold one on a non-trivial problem, and returns the same speech.
func TestExactGreedySeedPrunesMore(t *testing.T) {
	e := bigEval(t, 220, 3)
	seedU := Greedy(e, Options{MaxFacts: 3}).Utility
	if seedU <= 0 {
		t.Skip("greedy found nothing to seed with")
	}
	cold := ExactCtx(t.Context(), bigEval(t, 220, 3), Options{MaxFacts: 3})
	seeded := ExactCtx(t.Context(), bigEval(t, 220, 3), Options{MaxFacts: 3, LowerBound: seedU})
	if seeded.Stats.NodesExpanded >= cold.Stats.NodesExpanded {
		t.Errorf("seeded search expanded %d nodes, cold %d — expected strictly fewer",
			seeded.Stats.NodesExpanded, cold.Stats.NodesExpanded)
	}
	requireSameSpeech(t, "seeded-vs-cold", cold, seeded)
}
