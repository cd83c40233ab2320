// Benchmarks regenerating each table and figure of the paper, plus
// ablation benches for the design choices called out in DESIGN.md. Run
// with:
//
//	go test -bench=. -benchmem
//
// The per-iteration work is a scaled-down version of each experiment;
// cmd/experiments runs the full-size versions.
package cicero_test

import (
	"context"
	"io"
	"math/rand"
	"testing"
	"time"

	"cicero/internal/baseline"
	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/experiments"
	"cicero/internal/fact"
	"cicero/internal/pipeline"
	"cicero/internal/relalg"
	"cicero/internal/relation"
	"cicero/internal/summarize"
	"cicero/internal/userstudy"
	"cicero/internal/voice"
)

// benchParams returns small scenario parameters so a full -bench=. sweep
// stays in the minutes range.
func benchParams() experiments.ScenarioParams {
	return experiments.ScenarioParams{
		Seed:          1,
		SampleQueries: 4,
		ExactTimeout:  250 * time.Millisecond,
		MaxQueryLen:   1,
		MaxFactDims:   2,
		MaxFacts:      3,
	}
}

// BenchmarkTable1DataSets regenerates the four data sets of Table I.
func BenchmarkTable1DataSets(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := experiments.Table1(1); len(res.Rows) != 4 {
			b.Fatal("bad table 1")
		}
	}
}

// BenchmarkFigure3PreProcessing measures the pre-processing methods per
// algorithm on a fixed flights scenario sample (the Figure 3 comparison).
func BenchmarkFigure3PreProcessing(b *testing.B) {
	rel := dataset.Flights(6000, 1)
	cfg := engine.Config{
		Dataset: "flights", Targets: []string{"delay"},
		MaxQueryLen: 1, MaxFactDims: 2, MaxFacts: 3, Prior: engine.PriorGlobalMean,
	}
	problems, err := engine.Problems(rel, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if len(problems) > 6 {
		problems = problems[:6]
	}
	for _, alg := range engine.Algorithms() {
		b.Run(string(alg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := pipeline.RunProblems(context.Background(), rel, cfg, problems, pipeline.Options{
					Solver: string(alg),
					Solve:  summarize.Options{Timeout: 250 * time.Millisecond},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure4Scaling measures greedy pre-processing as speech length
// and fact width grow (the Figure 4 sweeps), for G-O.
func BenchmarkFigure4Scaling(b *testing.B) {
	rel := dataset.Flights(6000, 1)
	run := func(b *testing.B, maxFacts, maxDims int) {
		cfg := engine.Config{
			Dataset: "flights", Targets: []string{"delay"},
			MaxQueryLen: 1, MaxFactDims: maxDims, MaxFacts: maxFacts,
			Prior: engine.PriorGlobalMean,
		}
		problems, err := engine.Problems(rel, cfg)
		if err != nil {
			b.Fatal(err)
		}
		problems = problems[:4]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := pipeline.RunProblems(context.Background(), rel, cfg, problems, pipeline.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("length=2", func(b *testing.B) { run(b, 2, 2) })
	b.Run("length=3", func(b *testing.B) { run(b, 3, 2) })
	b.Run("length=4", func(b *testing.B) { run(b, 4, 2) })
	b.Run("dims=1", func(b *testing.B) { run(b, 3, 1) })
	b.Run("dims=2", func(b *testing.B) { run(b, 3, 2) })
	b.Run("dims=3", func(b *testing.B) { run(b, 3, 3) })
}

// BenchmarkFigure5Preferences runs the speech-preference user study.
func BenchmarkFigure5Preferences(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Speeches regenerates the worst/best speech comparison.
func BenchmarkTable2Speeches(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6Estimates runs the worker estimation study.
func BenchmarkFigure6Estimates(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7Conflict runs the conflicting-facts model comparison.
func BenchmarkFigure7Conflict(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure7(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8Interface runs the voice-vs-visual interface study.
func BenchmarkFigure8Interface(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := experiments.Figure8(1); len(res.Participants) != 10 {
			b.Fatal("bad study")
		}
	}
}

// BenchmarkTable3Classification classifies the simulated deployment logs.
func BenchmarkTable3Classification(b *testing.B) {
	deps := experiments.Deployments(1)
	counts := voice.Table3Counts()
	logs := make([][]voice.LogEntry, len(deps))
	for i, d := range deps {
		logs[i] = d.SimulateLog(counts[d.Name], 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for di, d := range deps {
			for _, entry := range logs[di] {
				voice.Classify(entry.Text, d.Extractor)
			}
		}
	}
}

// BenchmarkFigure9Classification derives the query-size/type pies.
func BenchmarkFigure9Classification(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := experiments.Figure9(1); res.ByKind[0] == 0 {
			b.Fatal("no retrieval queries")
		}
	}
}

// BenchmarkFigure10Latency compares pre-processed lookup against the
// sampling baseline on one deployment, separating the two paths.
func BenchmarkFigure10Latency(b *testing.B) {
	rel := dataset.Flights(6000, 1)
	cfg := engine.Config{
		Dataset: "flights", Targets: []string{"cancelled"},
		MaxQueryLen: 1, MaxFactDims: 2, MaxFacts: 3, Prior: engine.PriorGlobalMean,
	}
	store, _, err := pipeline.Run(context.Background(), rel, cfg, pipeline.Options{})
	if err != nil {
		b.Fatal(err)
	}
	q := engine.Query{Target: "cancelled", Predicates: []engine.NamedPredicate{
		{Column: "season", Value: "Winter"},
	}}
	b.Run("ours-lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := store.Lookup(q); !ok {
				b.Fatal("lookup failed")
			}
		}
	})
	b.Run("baseline-sampling", func(b *testing.B) {
		ti, preds, err := q.Resolve(rel)
		if err != nil {
			b.Fatal(err)
		}
		view := rel.FullView().Select(preds)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := baseline.SamplingAnswer(view, ti, nil, baseline.SamplingOptions{
				MaxFacts: 3, Seed: int64(i),
			})
			if len(res.Facts) == 0 {
				b.Fatal("no baseline facts")
			}
		}
	})
}

// BenchmarkFigure11BaselineStudy runs the baseline-vs-ours rating study.
func BenchmarkFigure11BaselineStudy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure11(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLExperiment runs the seq2seq-substitute comparison.
func BenchmarkMLExperiment(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MLExperiment(1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (design choices from DESIGN.md) ---

// BenchmarkAblationScopeMatch compares the fact-scope join strategies:
// the evaluator's grouped single-pass assignment (facts in a group
// partition the rows, so the join costs one relation pass per group)
// against the naive nested-loop join matching every fact against every
// row — the O(n·k) strategy the complexity analysis assumes.
func BenchmarkAblationScopeMatch(b *testing.B) {
	rel := dataset.Flights(8000, 1)
	view := rel.FullView()
	facts := fact.Generate(view, 1, fact.GenerateOptions{MaxDims: 2})
	prior := fact.MeanPrior(view, 1)
	b.Run("grouped-single-pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := summarize.NewEvaluator(view, 1, facts, prior)
			if e.NumFacts() == 0 {
				b.Fatal("no facts")
			}
		}
	})
	b.Run("nested-loop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			postings := make([][]int32, len(facts))
			for fi := range facts {
				for r := 0; r < view.NumRows(); r++ {
					row := view.Row(r)
					if facts[fi].Scope.Matches(rel, row) {
						postings[fi] = append(postings[fi], int32(r))
					}
				}
			}
			if len(postings[0]) == 0 {
				b.Fatal("no matches")
			}
		}
	})
}

// BenchmarkAblationGreedyRecompute compares greedy with incremental
// per-row expectation tracking against naive full recomputation of
// speech utility for every candidate extension.
func BenchmarkAblationGreedyRecompute(b *testing.B) {
	rel := dataset.Flights(4000, 1)
	view := rel.FullView()
	facts := fact.Generate(view, 1, fact.GenerateOptions{MaxDims: 1})
	prior := fact.MeanPrior(view, 1)
	b.Run("incremental", func(b *testing.B) {
		e := summarize.NewEvaluator(view, 1, facts, prior)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sum := summarize.Greedy(e, summarize.Options{MaxFacts: 3})
			if sum.Utility < 0 {
				b.Fatal("negative utility")
			}
		}
	})
	b.Run("full-recompute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var chosen []fact.Fact
			for iter := 0; iter < 3; iter++ {
				bestGain, bestIdx := 0.0, -1
				base := fact.Utility(view, chosen, prior, 1)
				for fi := range facts {
					ext := append(append([]fact.Fact(nil), chosen...), facts[fi])
					if gain := fact.Utility(view, ext, prior, 1) - base; gain > bestGain {
						bestGain, bestIdx = gain, fi
					}
				}
				if bestIdx < 0 {
					break
				}
				chosen = append(chosen, facts[bestIdx])
			}
			if len(chosen) == 0 {
				b.Fatal("no facts chosen")
			}
		}
	})
}

// BenchmarkAblationExactPruning compares the exact algorithm with a
// greedy-seeded lower bound against an unseeded run (bound grows only
// from discovered speeches), isolating the value of the b parameter.
func BenchmarkAblationExactPruning(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	bld := relation.NewBuilder("bench", relation.Schema{
		Dimensions: []string{"a", "b", "c"}, Targets: []string{"v"},
	})
	vals := []string{"x", "y", "z", "w", "u"}
	for i := 0; i < 600; i++ {
		bld.MustAddRow(
			[]string{vals[rng.Intn(5)], vals[rng.Intn(4)], vals[rng.Intn(3)]},
			[]float64{rng.NormFloat64()*10 + float64(rng.Intn(4))*12},
		)
	}
	rel := bld.Freeze()
	view := rel.FullView()
	facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: 2})
	prior := fact.MeanPrior(view, 0)
	b.Run("seeded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := summarize.NewEvaluator(view, 0, facts, prior)
			g := summarize.Greedy(e, summarize.Options{MaxFacts: 3})
			summarize.Exact(e, summarize.Options{MaxFacts: 3, LowerBound: g.Utility})
		}
	})
	b.Run("unseeded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := summarize.NewEvaluator(view, 0, facts, prior)
			summarize.Exact(e, summarize.Options{MaxFacts: 3})
		}
	})
}

// BenchmarkAblationPruningPlanner compares the greedy variants on a
// skewed relation where group pruning pays off.
func BenchmarkAblationPruningPlanner(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	bld := relation.NewBuilder("skew", relation.Schema{
		Dimensions: []string{"big", "n1", "n2", "n3"}, Targets: []string{"v"},
	})
	for i := 0; i < 4000; i++ {
		big, v := "low", 0.0
		if i%2 == 0 {
			big, v = "high", 100.0
		}
		bld.MustAddRow([]string{
			big,
			string(rune('a' + rng.Intn(12))),
			string(rune('a' + rng.Intn(12))),
			string(rune('a' + rng.Intn(12))),
		}, []float64{v + rng.Float64()})
	}
	rel := bld.Freeze()
	view := rel.FullView()
	facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: 2})
	// A zero prior keeps the coarse facts informative, the regime where
	// group pruning pays (with a subset-mean prior the overall fact has
	// zero gain and pruning correctly degenerates to a full scan).
	prior := fact.ConstantPrior(0)
	for _, mode := range []summarize.PruningMode{
		summarize.PruneNone, summarize.PruneNaive, summarize.PruneOptimized,
	} {
		b.Run(mode.String(), func(b *testing.B) {
			e := summarize.NewEvaluator(view, 0, facts, prior)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				summarize.Greedy(e, summarize.Options{MaxFacts: 3, Pruning: mode})
			}
		})
	}
}

// BenchmarkEndToEnd runs the complete Figure 3 harness at bench scale —
// the closest thing to the paper's full pre-processing pipeline.
func BenchmarkEndToEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure3(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		res.Render(io.Discard)
	}
}

// BenchmarkVoicePipeline measures extract-classify-answer end to end.
func BenchmarkVoicePipeline(b *testing.B) {
	rel := dataset.Flights(4000, 1)
	cfg := engine.Config{
		Dataset: "flights", Targets: []string{"cancelled"},
		MaxQueryLen: 1, MaxFactDims: 2, MaxFacts: 3, Prior: engine.PriorGlobalMean,
	}
	store, _, err := pipeline.Run(context.Background(), rel, cfg, pipeline.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ex := voice.NewExtractor(rel, []voice.Sample{
		{Phrase: "cancellations", Target: "cancelled"},
	}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := voice.Classify("cancellations in Winter", ex)
		if c.Type != voice.SQuery {
			b.Fatal("classification failed")
		}
		if _, ok := store.Lookup(c.Query); !ok {
			b.Fatal("no answer")
		}
	}
}

// BenchmarkUserStudySimulation measures the crowd-worker simulation core.
func BenchmarkUserStudySimulation(b *testing.B) {
	profiles := []userstudy.SpeechProfile{
		{Name: "A", Accuracy: 0.2, Precision: 1, Diversity: 0.5, Brevity: 0.8},
		{Name: "B", Accuracy: 0.9, Precision: 1, Diversity: 0.8, Brevity: 0.8},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		userstudy.PreferenceStudy(profiles, userstudy.Adjectives6, userstudy.Panel(50, int64(i)))
	}
}

// BenchmarkAblationPlanVsDirect compares the paper-faithful
// relational-plan execution of the greedy algorithm (internal/relalg,
// nested-loop joins per iteration) against the direct implementation
// with materialized posting lists — quantifying what the specialized
// data structures buy over literal SQL-style execution.
func BenchmarkAblationPlanVsDirect(b *testing.B) {
	rel := dataset.Flights(1500, 1)
	view := rel.FullView()
	facts := fact.Generate(view, 1, fact.GenerateOptions{MaxDims: 1})
	prior := fact.MeanPrior(view, 1)
	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := summarize.NewEvaluator(view, 1, facts, prior)
			summarize.Greedy(e, summarize.Options{MaxFacts: 3})
		}
	})
	b.Run("relational-plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			relalg.GreedyPlan(view, 1, facts, prior, 3)
		}
	})
}
