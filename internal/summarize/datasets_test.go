package summarize_test

import (
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/summarize"
)

// TestExactSubmodularDatasets runs the bound oracle on every problem of
// all five data sets at 1,500 rows, one-predicate queries under the
// default configuration, cold and greedy-seeded. Through engine.Solve,
// the solvers E and E-P must then answer every problem with the same
// speech bit for bit, and E-P must expand fewer nodes on every data set.
// At this size housing's population utilities pass 10^8, where the path
// bound without its relative slack cuts an optimum (state=Texas).
func TestExactSubmodularDatasets(t *testing.T) {
	for _, name := range dataset.Names() {
		rel := dataset.ByNameRows(name, 1500, 1)
		cfg := engine.DefaultConfig(rel)
		cfg.MaxQueryLen = 1
		opts := summarize.Options{MaxFacts: cfg.MaxFacts}
		var lemma1Nodes, submodularNodes int64
		problems := 0
		err := engine.EachProblem(rel, cfg, func(p engine.Problem) error {
			facts := p.GenerateFacts(cfg.MaxFactDims)
			if len(facts) == 0 {
				return nil
			}
			problems++
			key := name + " " + p.Query.Key()
			e := summarize.AcquireEvaluator(p.View, p.Target, facts, p.Prior)
			defer summarize.ReleaseEvaluator(e)
			seedU := summarize.Greedy(e, opts).Utility
			for _, lb := range []float64{0, seedU} {
				seeded := opts
				seeded.LowerBound = lb
				summarize.ExactBoundsOracle(t, key, e, seeded)
			}
			lemma1 := engine.Solve(t.Context(), engine.AlgExact, e, opts)
			submodular := engine.Solve(t.Context(), engine.AlgExactPruned, e, opts)
			summarize.RequireSameSpeech(t, key+" (engine.Solve)", lemma1, submodular)
			lemma1Nodes += lemma1.Stats.NodesExpanded
			submodularNodes += submodular.Stats.NodesExpanded
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d problems, nodes expanded %d (E) → %d (E-P)", name, problems, lemma1Nodes, submodularNodes)
		if problems == 0 || submodularNodes >= lemma1Nodes {
			t.Errorf("%s: %d problems, nodes expanded %d (E) → %d (E-P): want fewer",
				name, problems, lemma1Nodes, submodularNodes)
		}
	}
}
