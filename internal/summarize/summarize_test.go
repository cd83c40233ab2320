package summarize

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"cicero/internal/fact"
	"cicero/internal/relation"
)

// buildFlights reproduces the paper's running example (Figure 1).
func buildFlights(t testing.TB) *relation.Relation {
	t.Helper()
	b := relation.NewBuilder("flights", relation.Schema{
		Dimensions: []string{"region", "season"},
		Targets:    []string{"delay"},
	})
	delay := map[[2]string]float64{
		{"South", "Spring"}: 20, {"South", "Summer"}: 20,
		{"West", "Spring"}: 20, {"West", "Summer"}: 20,
		{"East", "Winter"}: 10, {"South", "Winter"}: 10,
		{"West", "Winter"}: 10, {"North", "Winter"}: 10,
	}
	for _, r := range []string{"East", "South", "West", "North"} {
		for _, s := range []string{"Spring", "Summer", "Fall", "Winter"} {
			b.MustAddRow([]string{r, s}, []float64{delay[[2]string{r, s}]})
		}
	}
	return b.Freeze()
}

// randomRelation builds a random relation for property tests.
func randomRelation(rng *rand.Rand, rows int) *relation.Relation {
	b := relation.NewBuilder("rand", relation.Schema{
		Dimensions: []string{"a", "b", "c"},
		Targets:    []string{"v"},
	})
	av := []string{"a0", "a1", "a2", "a3"}
	bv := []string{"b0", "b1", "b2"}
	cv := []string{"c0", "c1"}
	for i := 0; i < rows; i++ {
		b.MustAddRow(
			[]string{av[rng.Intn(len(av))], bv[rng.Intn(len(bv))], cv[rng.Intn(len(cv))]},
			[]float64{rng.NormFloat64()*10 + float64(rng.Intn(3))*15},
		)
	}
	return b.Freeze()
}

func newEval(t testing.TB, rel *relation.Relation, maxDims int) *Evaluator {
	t.Helper()
	view := rel.FullView()
	facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: maxDims})
	prior := fact.MeanPrior(view, 0)
	return NewEvaluator(view, 0, facts, prior)
}

func TestEvaluatorPostings(t *testing.T) {
	rel := buildFlights(t)
	e := newEval(t, rel, 2)
	if e.NumFacts() != 25 {
		t.Fatalf("facts = %d, want 25", e.NumFacts())
	}
	if e.NumRows() != 16 {
		t.Fatalf("rows = %d", e.NumRows())
	}
	// Postings per group partition the rows: overall fact covers 16,
	// each single-dim fact 4, each two-dim fact 1.
	for fi, f := range e.Facts() {
		want := 16
		switch f.Scope.Len() {
		case 1:
			want = 4
		case 2:
			want = 1
		}
		if got := len(e.posting(fi)); got != want {
			t.Errorf("fact %v posting size %d, want %d", f.Scope.Key(), got, want)
		}
	}
	// Groups: 1 empty + 2 single + 1 pair = 4.
	if len(e.Groups()) != 4 {
		t.Errorf("groups = %d, want 4", len(e.Groups()))
	}
}

func TestSingleFactUtilityMatchesDefinition(t *testing.T) {
	rel := buildFlights(t)
	view := rel.FullView()
	facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: 2})
	prior := fact.MeanPrior(view, 0)
	utils := NewEvaluator(view, 0, facts, prior).singleFactUtilities()
	for fi := range facts {
		got := utils[fi]
		want := fact.Utility(view, facts[fi:fi+1], prior, 0)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("fact %v utility %v, want %v", facts[fi].Scope.Key(), got, want)
		}
	}
}

// TestSpeechUtilityMatchesDefinition: the exact search's incremental
// path state, with a speech's facts pushed one by one, holds the speech's
// utility under the definition.
func TestSpeechUtilityMatchesDefinition(t *testing.T) {
	rel := buildFlights(t)
	view := rel.FullView()
	facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: 2})
	prior := fact.MeanPrior(view, 0)
	e := NewEvaluator(view, 0, facts, prior)
	e.singleFactUtilities() // fills the distance column push reads
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(3)
		sel := make([]fact.Fact, 0, n)
		var path pathState
		path.begin(e)
		for i := 0; i < n; i++ {
			fi := int32(rng.Intn(len(facts)))
			path.push(e, fi)
			sel = append(sel, facts[fi])
		}
		got := path.u
		want := fact.Utility(view, sel, prior, 0)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: speech utility %v, want %v", trial, got, want)
		}
	}
}

// TestGreedyRunningExample reproduces Example 7: with a zero prior, the
// greedy algorithm first selects the Winter or season-spanning fact with
// utility 40, then complements it.
func TestGreedyRunningExample(t *testing.T) {
	rel := buildFlights(t)
	view := rel.FullView()
	facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: 2})
	e := NewEvaluator(view, 0, facts, fact.ConstantPrior(0))

	got := Greedy(e, Options{MaxFacts: 2})
	if len(got.Facts) != 2 {
		t.Fatalf("selected %d facts, want 2", len(got.Facts))
	}
	// Example 7: first fact has utility 40 (Winter=10 removes 4*10, or a
	// region fact removing the 20s partially). Verify the greedy picks a
	// maximal single fact: no single fact has higher utility than the
	// first selected one.
	first := got.FactIdx[0]
	utils := NewEvaluator(view, 0, facts, fact.ConstantPrior(0)).singleFactUtilities()
	bestSingle := 0.0
	for _, u := range utils {
		if u > bestSingle {
			bestSingle = u
		}
	}
	if u := utils[first]; math.Abs(u-bestSingle) > 1e-9 {
		t.Errorf("greedy first fact utility %v, want max %v", u, bestSingle)
	}
}

func TestGreedyStopsWhenNoGain(t *testing.T) {
	// A constant target column: the overall fact explains everything, so
	// greedy should stop after one fact (or zero with a perfect prior).
	b := relation.NewBuilder("const", relation.Schema{
		Dimensions: []string{"d"}, Targets: []string{"v"},
	})
	for i := 0; i < 10; i++ {
		b.MustAddRow([]string{string(rune('a' + i%3))}, []float64{5})
	}
	rel := b.Freeze()
	view := rel.FullView()
	facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: 1})
	e := NewEvaluator(view, 0, facts, fact.ConstantPrior(0))
	got := Greedy(e, Options{MaxFacts: 3})
	if len(got.Facts) != 1 {
		t.Errorf("greedy selected %d facts, want 1 (no residual gain)", len(got.Facts))
	}
	if got.ResidualError > 1e-9 {
		t.Errorf("residual = %v, want 0", got.ResidualError)
	}
	// Perfect prior: zero facts help.
	e2 := NewEvaluator(view, 0, facts, fact.ConstantPrior(5))
	got2 := Greedy(e2, Options{MaxFacts: 3})
	if len(got2.Facts) != 0 {
		t.Errorf("perfect prior selected %d facts, want 0", len(got2.Facts))
	}
	if got2.ScaledUtility() != 1 {
		t.Errorf("scaled utility with zero prior error = %v, want 1", got2.ScaledUtility())
	}
}

func TestExactOptimalOnRunningExample(t *testing.T) {
	rel := buildFlights(t)
	view := rel.FullView()
	facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: 2})
	prior := fact.ConstantPrior(0)
	e := NewEvaluator(view, 0, facts, prior)

	greedy := Greedy(e, Options{MaxFacts: 2})
	exact := Exact(e, Options{MaxFacts: 2, LowerBound: greedy.Utility})
	if exact.Utility < greedy.Utility-1e-9 {
		t.Fatalf("exact %v worse than greedy %v", exact.Utility, greedy.Utility)
	}
	// Verify exact result against brute force without any pruning.
	brute := bruteForceBest(view, facts, prior, 2)
	if math.Abs(exact.Utility-brute) > 1e-9 {
		t.Errorf("exact = %v, brute force = %v", exact.Utility, brute)
	}
}

// bruteForceBest enumerates every fact pair/triple without pruning.
func bruteForceBest(view *relation.View, facts []fact.Fact, prior fact.Prior, m int) float64 {
	best := 0.0
	var rec func(start int, sel []fact.Fact)
	rec = func(start int, sel []fact.Fact) {
		if u := fact.Utility(view, sel, prior, 0); u > best {
			best = u
		}
		if len(sel) == m {
			return
		}
		for i := start; i < len(facts); i++ {
			rec(i+1, append(sel, facts[i]))
		}
	}
	rec(0, nil)
	return best
}

// TestExactVsBruteForceRandom cross-checks Algorithm 1 against unpruned
// enumeration on random relations — the central optimality property.
func TestExactVsBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		rel := randomRelation(rng, 40)
		view := rel.FullView()
		facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: 1})
		prior := fact.MeanPrior(view, 0)
		e := NewEvaluator(view, 0, facts, prior)
		greedy := Greedy(e, Options{MaxFacts: 2})
		exact := Exact(e, Options{MaxFacts: 2, LowerBound: greedy.Utility})
		brute := bruteForceBest(view, facts, prior, 2)
		if math.Abs(exact.Utility-brute) > 1e-6 {
			t.Fatalf("trial %d: exact %v != brute %v", trial, exact.Utility, brute)
		}
		if greedy.Utility > exact.Utility+1e-9 {
			t.Fatalf("trial %d: greedy %v exceeds optimum %v", trial, greedy.Utility, exact.Utility)
		}
	}
}

// TestGreedyApproximationGuarantee verifies Theorem 3 empirically: greedy
// utility is within (1−1/e) of the optimum on random instances.
func TestGreedyApproximationGuarantee(t *testing.T) {
	bound := 1 - 1/math.E
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 15; trial++ {
		rel := randomRelation(rng, 60)
		view := rel.FullView()
		facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: 2})
		prior := fact.MeanPrior(view, 0)
		e := NewEvaluator(view, 0, facts, prior)
		greedy := Greedy(e, Options{MaxFacts: 3})
		exact := Exact(e, Options{MaxFacts: 3, LowerBound: greedy.Utility})
		if exact.Utility == 0 {
			continue
		}
		if ratio := greedy.Utility / exact.Utility; ratio < bound-1e-9 {
			t.Fatalf("trial %d: greedy/optimal = %v < %v", trial, ratio, bound)
		}
	}
}

// TestPruningModesAgree verifies that G-B, G-P and G-O return identical
// speeches — pruning must never change the greedy argmax (Section VI-A:
// the guarantees only hold if the true maximum-gain fact is selected).
func TestPruningModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		rel := randomRelation(rng, 80)
		view := rel.FullView()
		facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: 2})
		prior := fact.MeanPrior(view, 0)

		base := Greedy(NewEvaluator(view, 0, facts, prior), Options{MaxFacts: 3, Pruning: PruneNone})
		naive := Greedy(NewEvaluator(view, 0, facts, prior), Options{MaxFacts: 3, Pruning: PruneNaive})
		opt := Greedy(NewEvaluator(view, 0, facts, prior), Options{MaxFacts: 3, Pruning: PruneOptimized})

		if math.Abs(base.Utility-naive.Utility) > 1e-9 || math.Abs(base.Utility-opt.Utility) > 1e-9 {
			t.Fatalf("trial %d: utilities differ: G-B=%v G-P=%v G-O=%v",
				trial, base.Utility, naive.Utility, opt.Utility)
		}
		for i := range base.FactIdx {
			if base.FactIdx[i] != naive.FactIdx[i] || base.FactIdx[i] != opt.FactIdx[i] {
				t.Fatalf("trial %d: selected facts differ at %d", trial, i)
			}
		}
	}
}

// TestPruningReducesEvaluations checks that optimized pruning evaluates
// no more facts than base greedy scans on a skewed instance where one
// coarse fact dominates.
func TestPruningReducesEvaluations(t *testing.T) {
	// Construct a relation where a single-dimension fact explains nearly
	// all deviation, so bounds prune the fine-grained groups.
	b := relation.NewBuilder("skew", relation.Schema{
		Dimensions: []string{"big", "noise1", "noise2"},
		Targets:    []string{"v"},
	})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		big := "low"
		v := 0.0
		if i%2 == 0 {
			big, v = "high", 100
		}
		b.MustAddRow(
			[]string{big, string(rune('a' + rng.Intn(10))), string(rune('a' + rng.Intn(10)))},
			[]float64{v + rng.Float64()},
		)
	}
	rel := b.Freeze()
	view := rel.FullView()
	facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: 2})
	prior := fact.MeanPrior(view, 0)

	base := Greedy(NewEvaluator(view, 0, facts, prior), Options{MaxFacts: 1, Pruning: PruneNone})
	opt := Greedy(NewEvaluator(view, 0, facts, prior), Options{MaxFacts: 1, Pruning: PruneOptimized})
	if math.Abs(base.Utility-opt.Utility) > 1e-9 {
		t.Fatalf("utilities differ: %v vs %v", base.Utility, opt.Utility)
	}
	if opt.Stats.GroupsPruned == 0 {
		t.Log("warning: no groups pruned on skewed instance (plan chose full scan)")
	}
	if opt.Stats.FactsEvaluated > base.Stats.FactsEvaluated {
		t.Errorf("optimized pruning evaluated more facts (%d) than base (%d)",
			opt.Stats.FactsEvaluated, base.Stats.FactsEvaluated)
	}
}

func TestExactTimeout(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rel := randomRelation(rng, 200)
	view := rel.FullView()
	facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: 3})
	prior := fact.MeanPrior(view, 0)
	e := NewEvaluator(view, 0, facts, prior)
	got := Exact(e, Options{MaxFacts: 4, Timeout: time.Microsecond})
	if !got.Stats.TimedOut {
		t.Skip("machine too fast for timeout test; exact finished")
	}
	if got.Utility < 0 {
		t.Error("timed-out run must return a non-negative utility")
	}
}

func TestGroupBound(t *testing.T) {
	rel := buildFlights(t)
	view := rel.FullView()
	facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: 2})
	e := NewEvaluator(view, 0, facts, fact.ConstantPrior(0))
	e.ResetGreedy()
	// Bound for every group must dominate the max gain of its facts.
	for gi := range e.Groups() {
		g := &e.Groups()[gi]
		bound := e.GroupBound(g)
		for _, fi := range g.Facts {
			if gain := e.GreedyGain(int(fi)); gain > bound+1e-9 {
				t.Errorf("group %v: fact gain %v exceeds bound %v", g.Dims, gain, bound)
			}
		}
	}
	// Bound of the empty-scope group equals total current error.
	for gi := range e.Groups() {
		g := &e.Groups()[gi]
		if len(g.Dims) == 0 {
			if got := e.GroupBound(g); math.Abs(got-e.CurrentError()) > 1e-9 {
				t.Errorf("empty group bound %v != current error %v", got, e.CurrentError())
			}
		}
	}
}

// TestGroupBoundDominatesSpecializations: the bound of a group applies to
// facts of all specializing groups (needed for transitive pruning).
func TestGroupBoundDominatesSpecializations(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rel := randomRelation(rng, 100)
	view := rel.FullView()
	facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: 3})
	e := NewEvaluator(view, 0, facts, fact.MeanPrior(view, 0))
	e.ResetGreedy()
	groups := e.Groups()
	for ti := range groups {
		bound := e.GroupBound(&groups[ti])
		for gi := range groups {
			if !dimsSubset(groups[ti].Dims, groups[gi].Dims) {
				continue
			}
			for _, fi := range groups[gi].Facts {
				if gain := e.GreedyGain(int(fi)); gain > bound+1e-9 {
					t.Fatalf("specialization %v fact gain %v exceeds generalizer %v bound %v",
						groups[gi].Dims, gain, groups[ti].Dims, bound)
				}
			}
		}
	}
}

func TestPlannerProducesValidPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rel := randomRelation(rng, 50)
	view := rel.FullView()
	facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: 2})
	e := NewEvaluator(view, 0, facts, fact.MeanPrior(view, 0))

	var plans []Plan
	var costs []float64
	newPlanContext(e).candidates(func(p Plan, cost float64) bool {
		plans = append(plans, clonePlan(p))
		costs = append(costs, cost)
		return true
	})
	if len(plans) == 0 {
		t.Fatal("no candidate plans")
	}
	nGroups := len(e.Groups())
	for i, p := range plans {
		seen := map[int]bool{}
		for _, s := range p.Source {
			if s < 0 || s >= nGroups || seen[s] {
				t.Fatalf("bad source %d in plan %+v", s, p)
			}
			seen[s] = true
		}
		for _, tg := range p.Targets {
			if tg < 0 || tg >= nGroups || seen[tg] {
				t.Fatalf("target %d overlaps source or invalid in %+v", tg, p)
			}
		}
		if costs[i] <= 0 {
			t.Fatalf("plan cost %v must be positive", costs[i])
		}
	}
	// The full-scan plan must be among the candidates (sources = all).
	foundFull := false
	for _, p := range plans {
		if len(p.Source) == nGroups {
			foundFull = true
			if len(p.Targets) != 0 {
				t.Error("full-source plan should have no targets")
			}
		}
	}
	if !foundFull {
		t.Error("full-scan fallback plan missing")
	}
}

func TestOptPruneDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rel := randomRelation(rng, 50)
	view := rel.FullView()
	facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: 2})
	e := NewEvaluator(view, 0, facts, fact.MeanPrior(view, 0))
	first := OptPrune(e)
	for i := 0; i < 5; i++ {
		again := OptPrune(e)
		if len(again.Source) != len(first.Source) || len(again.Targets) != len(first.Targets) {
			t.Fatal("OptPrune not deterministic")
		}
		for j := range first.Source {
			if first.Source[j] != again.Source[j] {
				t.Fatal("OptPrune source order changed")
			}
		}
		for j := range first.Targets {
			if first.Targets[j] != again.Targets[j] {
				t.Fatal("OptPrune target order changed")
			}
		}
	}
}

func TestOrderedFactsByUtility(t *testing.T) {
	var e Evaluator
	utils := []float64{1, 5, 3, 5, 2}
	order := e.orderedFactsByUtility(utils)
	wantOrder := []int32{1, 3, 2, 4, 0}
	for i := range wantOrder {
		if order[i] != wantOrder[i] {
			t.Fatalf("order = %v, want %v", order, wantOrder)
		}
	}
}

func TestDimsSubset(t *testing.T) {
	cases := []struct {
		a, b []int
		want bool
	}{
		{nil, nil, true},
		{nil, []int{1}, true},
		{[]int{1}, []int{1, 2}, true},
		{[]int{2}, []int{1, 2}, true},
		{[]int{1, 2}, []int{1}, false},
		{[]int{3}, []int{1, 2}, false},
		{[]int{1, 3}, []int{1, 2, 3}, true},
	}
	for _, c := range cases {
		if got := dimsSubset(c.a, c.b); got != c.want {
			t.Errorf("dimsSubset(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestPropertyExactAtLeastGreedy: on random instances the exact optimum
// never falls below greedy (sanity of both implementations).
func TestPropertyExactAtLeastGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		rel := randomRelation(rng, 30+rng.Intn(60))
		view := rel.FullView()
		facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: 2})
		prior := fact.MeanPrior(view, 0)
		e := NewEvaluator(view, 0, facts, prior)
		m := 1 + rng.Intn(3)
		greedy := Greedy(e, Options{MaxFacts: m})
		exact := Exact(e, Options{MaxFacts: m, LowerBound: greedy.Utility})
		if exact.Utility < greedy.Utility-1e-9 {
			t.Fatalf("trial %d: exact %v < greedy %v (m=%d)", trial, exact.Utility, greedy.Utility, m)
		}
		// Utility reported must match recomputation from facts.
		recomputed := fact.Utility(view, greedy.Facts, prior, 0)
		if math.Abs(recomputed-greedy.Utility) > 1e-9 {
			t.Fatalf("trial %d: greedy reported %v, recomputed %v", trial, greedy.Utility, recomputed)
		}
	}
}
