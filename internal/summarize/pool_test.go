package summarize

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"cicero/internal/fact"
	"cicero/internal/relation"
)

// solveAll runs every algorithm family on one evaluator and returns the
// summaries in a fixed order: G-B, G-P, G-O, then greedy-seeded E.
func solveAll(e *Evaluator, maxFacts int) []Summary {
	var out []Summary
	for _, mode := range []PruningMode{PruneNone, PruneNaive, PruneOptimized} {
		out = append(out, Greedy(e, Options{MaxFacts: maxFacts, Pruning: mode}))
	}
	seed := Greedy(e, Options{MaxFacts: maxFacts})
	out = append(out, Exact(e, Options{MaxFacts: maxFacts, LowerBound: seed.Utility}))
	return out
}

func sameSummary(t *testing.T, name string, got, want Summary) {
	t.Helper()
	if math.Float64bits(got.Utility) != math.Float64bits(want.Utility) {
		t.Errorf("%s: utility %v != %v", name, got.Utility, want.Utility)
	}
	if math.Float64bits(got.PriorError) != math.Float64bits(want.PriorError) {
		t.Errorf("%s: prior error %v != %v", name, got.PriorError, want.PriorError)
	}
	if len(got.FactIdx) != len(want.FactIdx) {
		t.Fatalf("%s: facts %v != %v", name, got.FactIdx, want.FactIdx)
	}
	for i := range want.FactIdx {
		if got.FactIdx[i] != want.FactIdx[i] {
			t.Fatalf("%s: facts %v != %v", name, got.FactIdx, want.FactIdx)
		}
	}
	if countersOf(got.Stats) != countersOf(want.Stats) {
		t.Errorf("%s: counters %+v != %+v", name, countersOf(got.Stats), countersOf(want.Stats))
	}
}

// TestResetMatchesFresh drives one evaluator through the whole parity
// sweep via Reset — problems grow and shrink in rows, facts, and groups
// — and requires bit-identical outputs to a freshly built evaluator at
// every step. This is the contract that makes pooling safe.
func TestResetMatchesFresh(t *testing.T) {
	var reused Evaluator
	scenarios := parityScenarios()
	// Run the sweep twice, the second pass in reverse order, so every
	// grow/shrink transition between neighboring problem shapes occurs.
	for pass := 0; pass < 2; pass++ {
		for i := range scenarios {
			sc := scenarios[i]
			if pass == 1 {
				sc = scenarios[len(scenarios)-1-i]
			}
			fresh := parityEval(sc)
			reused.Reset(fresh.view, fresh.target, fresh.Facts(), fresh.prior)
			if reused.JoinedRows != fresh.JoinedRows {
				t.Errorf("%s: build JoinedRows %d != %d", sc.Name, reused.JoinedRows, fresh.JoinedRows)
			}
			gotAll := solveAll(&reused, sc.MaxFacts)
			wantAll := solveAll(fresh, sc.MaxFacts)
			names := []string{"G-B", "G-P", "G-O", "E"}
			for j := range wantAll {
				sameSummary(t, sc.Name+"/"+names[j], gotAll[j], wantAll[j])
			}
		}
	}
}

// twoTargetRelation is randomRelation with a second target of small
// integers, so the two targets' problems share every scope and differ in
// every value.
func twoTargetRelation(rng *rand.Rand, rows int) *relation.Relation {
	b := relation.NewBuilder("rand2", relation.Schema{Dimensions: []string{"a", "b", "c"}, Targets: []string{"v", "w"}})
	for i := 0; i < rows; i++ {
		b.MustAddRow([]string{strconv.Itoa(rng.Intn(4)), strconv.Itoa(rng.Intn(3)), strconv.Itoa(rng.Intn(2))},
			[]float64{rng.NormFloat64()*10 + float64(rng.Intn(3))*15, float64(rng.Intn(5))})
	}
	return b.Freeze()
}

// TestRetargetMatchesReset: an evaluator built for one target and
// retargeted to each further target of the same view is, bit for bit, a
// freshly built one — build JoinedRows, D(∅), the postings, and the
// greedy (all three pruning modes) and exact summaries with their
// counters — whether Retarget keeps the layout (the facts of
// fact.GenerateTargets) or must rebuild it (facts of another width, the
// same facts in another order).
func TestRetargetMatchesReset(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	names := []string{"G-B", "G-P", "G-O", "E"}
	for trial := 0; trial < 12; trial++ {
		rel := twoTargetRelation(rng, 20+rng.Intn(240))
		views := []*relation.View{rel.FullView(), rel.FullView().Select([]relation.Predicate{{Dim: 0, Code: 1}})}
		maxFacts := 2 + trial%3
		for vi, view := range views {
			if view.NumRows() == 0 {
				continue
			}
			targets := []int{0, 1, 0, 1}
			priors := []fact.Prior{fact.MeanPrior(view, 0), fact.MeanPrior(view, 1), fact.ConstantPrior(0), fact.ConstantPrior(2)}
			factSets := fact.GenerateTargets(view, targets, fact.GenerateOptions{MaxDims: 1 + trial%3})
			narrow := fact.GenerateTargets(view, []int{1}, fact.GenerateOptions{MaxDims: trial % 3})[0]
			shuffled := slices.Clone(factSets[1])
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			cases := []struct {
				name   string
				target int
				facts  []fact.Fact
				prior  fact.Prior
			}{
				{"first", targets[0], factSets[0], priors[0]},
				{"second target", targets[1], factSets[1], priors[1]},
				{"zero prior", targets[2], factSets[2], priors[2]},
				{"constant prior", targets[3], factSets[3], priors[3]},
				{"narrower scopes", 1, narrow, priors[1]},
				{"wider scopes again", 0, factSets[0], priors[0]},
				{"reordered scopes", 1, shuffled, priors[1]},
			}
			var e *Evaluator
			for _, c := range cases {
				name := "trial " + strconv.Itoa(trial) + " view " + strconv.Itoa(vi) + " " + c.name
				if e == nil {
					e = NewEvaluator(view, c.target, c.facts, c.prior)
				} else {
					e.Retarget(c.target, c.facts, c.prior)
				}
				fresh := NewEvaluator(view, c.target, c.facts, c.prior)
				if e.JoinedRows != fresh.JoinedRows || math.Float64bits(e.PriorError()) != math.Float64bits(fresh.PriorError()) {
					t.Fatalf("%s: build JoinedRows %d, D(∅) %v; fresh %d, %v", name, e.JoinedRows, e.PriorError(), fresh.JoinedRows, fresh.PriorError())
				}
				got, want := solveAll(e, maxFacts), solveAll(fresh, maxFacts)
				for j := range want {
					sameSummary(t, name+"/"+names[j], got[j], want[j])
				}
				checkBuild(t, name, e)
			}
		}
	}
}

// TestAcquireReleaseMatchesFresh exercises the pool API itself,
// including concurrent acquire/solve/release cycles from many
// goroutines (the pipeline's worker shape).
func TestAcquireReleaseMatchesFresh(t *testing.T) {
	scenarios := parityScenarios()
	want := make([][]Summary, len(scenarios))
	for i, sc := range scenarios {
		want[i] = solveAll(parityEval(sc), sc.MaxFacts)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, sc := range scenarios {
					fresh := parityEval(sc)
					e := AcquireEvaluator(fresh.view, fresh.target, fresh.Facts(), fresh.prior)
					got := solveAll(e, sc.MaxFacts)
					ReleaseEvaluator(e)
					for j := range want[i] {
						if got[j].Utility != want[i][j].Utility || len(got[j].FactIdx) != len(want[i][j].FactIdx) {
							t.Errorf("%s: pooled result diverged", sc.Name)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
