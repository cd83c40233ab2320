package summarize_test

import (
	"context"
	"slices"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/summarize"
)

// searchProblem is one problem of the preprocess_exact batch (flights
// 12,000 rows, one-predicate queries, four-fact speeches, the global-mean
// prior): average delay in April, 1,009 rows and 345 candidate facts,
// where Lemma 1's search expands about 630,000 nodes.
func searchProblem(tb testing.TB) (engine.Problem, int) {
	tb.Helper()
	rel := dataset.Flights(12000, 1)
	cfg := engine.DefaultConfig(rel)
	cfg.MaxQueryLen = 1
	var found engine.Problem
	ok := false
	err := engine.EachProblem(rel, cfg, func(p engine.Problem) error {
		if p.Query.Key() != "delay|month=April" {
			return nil
		}
		found, ok = p, true
		return engine.ErrStopEnumeration
	})
	if err != nil || !ok {
		tb.Fatalf("problem delay|month=April: found %v, err %v", ok, err)
	}
	return found, cfg.MaxFactDims
}

// TestExactAllocCeiling pins what a warm pooled evaluator's exact search
// allocates: the returned Summary (its fact indices, fact slice and each
// fact's cloned scope) and the search's path and best-speech buffers,
// none of them sized by rows or postings. The distance column, the
// per-row path deviations and the undo log are retained from the first
// run; growing any of them again would add to the count.
func TestExactAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	p, maxFactDims := searchProblem(t)
	e := summarize.AcquireEvaluator(p.View, p.Target, p.GenerateFacts(maxFactDims), p.Prior)
	defer summarize.ReleaseEvaluator(e)
	opts := summarize.Options{MaxFacts: 4}
	opts.LowerBound = summarize.Greedy(e, opts).Utility
	for _, search := range []struct {
		name string
		run  func(context.Context, *summarize.Evaluator, summarize.Options) summarize.Summary
	}{{"lemma1", summarize.ExactCtx}, {"submodular", summarize.ExactSubmodularCtx}} {
		ctx := context.Background()
		facts := len(search.run(ctx, e, opts).FactIdx) // the first run sizes every buffer
		const ceiling = 16
		avg := testing.AllocsPerRun(3, func() { search.run(ctx, e, opts) })
		t.Logf("%s: %.0f objects per search, %d-fact speech (ceiling %d)", search.name, avg, facts, ceiling)
		if avg > ceiling {
			t.Errorf("%s: a warm exact search allocates %.0f objects, ceiling %d", search.name, avg, ceiling)
		}
	}
}

// BenchmarkExactSearch measures the exact search alone — the pruned
// enumeration at four facts under Lemma 1's bound (solver E) and under
// the submodular path bound (solver E-P) — on one pre-built evaluator of
// a preprocess_exact problem, with its greedy seed computed once,
// outside the timer. Unlike BenchmarkExactSolve, nearly all of an
// iteration is the search.
func BenchmarkExactSearch(b *testing.B) {
	p, maxFactDims := searchProblem(b)
	e := summarize.NewEvaluator(p.View, p.Target, p.GenerateFacts(maxFactDims), p.Prior)
	opts := summarize.Options{MaxFacts: 4}
	opts.LowerBound = summarize.Greedy(e, opts).Utility
	for _, search := range []struct {
		name string
		run  func(context.Context, *summarize.Evaluator, summarize.Options) summarize.Summary
	}{{"lemma1", summarize.ExactCtx}, {"submodular", summarize.ExactSubmodularCtx}} {
		b.Run(search.name, func(b *testing.B) {
			b.ReportAllocs()
			var stats summarize.RunStats
			for i := 0; i < b.N; i++ {
				stats = search.run(b.Context(), e, opts).Stats
			}
			b.ReportMetric(float64(stats.NodesExpanded), "nodes/op")
			b.ReportMetric(float64(stats.LeavesSettled), "settled/op")
		})
	}
}

// TestExactLeavesSettled pins the exact searches' work on searchProblem.
// Lemma 1's search settles all but 454 of its 624,002 speeches by the
// submodular bound without scanning them; every other counter, and the
// speech, are what scoring each leaf gave before the bound was applied.
// The path-bound search already cuts those leaves as subtrees, so it
// settles none.
func TestExactLeavesSettled(t *testing.T) {
	p, maxFactDims := searchProblem(t)
	e := summarize.NewEvaluator(p.View, p.Target, p.GenerateFacts(maxFactDims), p.Prior)
	opts := summarize.Options{MaxFacts: 4}
	opts.LowerBound = summarize.Greedy(e, opts).Utility
	for _, search := range []struct {
		name string
		run  func(context.Context, *summarize.Evaluator, summarize.Options) summarize.Summary
		want summarize.RunStats
	}{
		{"lemma1", summarize.ExactCtx, summarize.RunStats{FactsEvaluated: 345, NodesExpanded: 627816,
			SpeechesEvaluated: 624002, LeavesSettled: 623548, DominatedSkipped: 482, JoinedRows: 838252134}},
		{"submodular", summarize.ExactSubmodularCtx, summarize.RunStats{FactsEvaluated: 345, NodesExpanded: 652,
			SpeechesEvaluated: 598, DominatedSkipped: 34, JoinedRows: 880994}},
	} {
		s := search.run(t.Context(), e, opts)
		got := s.Stats
		got.Elapsed = 0
		if got != search.want {
			t.Errorf("%s: stats %+v, want %+v", search.name, got, search.want)
		}
		if !slices.Equal(s.FactIdx, []int32{0, 29, 26, 27}) || s.Utility != 2294.7459058042427 {
			t.Errorf("%s: speech %v (%v), want [0 29 26 27] (2294.7459058042427)", search.name, s.FactIdx, s.Utility)
		}
	}
}

// pollCountingCtx counts the polls a search makes of it: Err is what the
// search calls when it polls, and its non-nil Done makes the search
// poll at all.
type pollCountingCtx struct {
	context.Context
	polls int64
}

func (c *pollCountingCtx) Err() error {
	c.polls++
	return c.Context.Err()
}

// TestExactPollsEveryCheckInterval holds the exact searches to their
// poll interval on searchProblem: Lemma 1's
// search counts a settled loop tail's nodes in one step, and the
// deadline and cancellation checks must still run at least once per
// CtxCheckEvery nodes expanded.
func TestExactPollsEveryCheckInterval(t *testing.T) {
	p, maxFactDims := searchProblem(t)
	e := summarize.NewEvaluator(p.View, p.Target, p.GenerateFacts(maxFactDims), p.Prior)
	opts := summarize.Options{MaxFacts: 4}
	opts.LowerBound = summarize.Greedy(e, opts).Utility
	for _, search := range []struct {
		name string
		run  func(context.Context, *summarize.Evaluator, summarize.Options) summarize.Summary
	}{{"lemma1", summarize.ExactCtx}, {"submodular", summarize.ExactSubmodularCtx}} {
		ctx := &pollCountingCtx{Context: t.Context()}
		nodes := search.run(ctx, e, opts).Stats.NodesExpanded
		t.Logf("%s: %d polls for %d nodes", search.name, ctx.polls, nodes)
		if want := nodes / summarize.CtxCheckEvery; ctx.polls < want {
			t.Errorf("%s: %d polls for %d nodes, want at least %d", search.name, ctx.polls, nodes, want)
		}
	}
}
