package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/relation"
	"cicero/internal/summarize"
)

func flightsConfig(rel *relation.Relation) engine.Config {
	cfg := engine.DefaultConfig(rel)
	cfg.Targets = []string{"cancelled"}
	cfg.Dimensions = []string{"season", "airline"}
	cfg.MaxQueryLen = 1
	return cfg
}

// TestRunMatchesSequentialLoop is the parallel ≡ sequential oracle of
// the batch driver: Run with four solve workers must produce exactly
// the store of the plainest possible batch — one problem at a time,
// enumerate → solve → render → add — for a deterministic solver.
func TestRunMatchesSequentialLoop(t *testing.T) {
	rel := dataset.Flights(2000, 1)
	cfg := flightsConfig(rel)
	tmpl := engine.Template{TargetPhrase: "cancellation probability", Percent: true}

	wantStore := engine.NewStore()
	wantUtility := 0.0
	err := engine.EachProblem(rel, cfg, func(p engine.Problem) error {
		sum, err := engine.SolveProblem(context.Background(), engine.AlgGreedyOpt, &p,
			cfg.MaxFactDims, summarize.Options{MaxFacts: cfg.MaxFacts})
		if err != nil {
			return err
		}
		wantUtility += sum.ScaledUtility()
		wantStore.Add(&engine.StoredSpeech{
			Query: p.Query, Facts: sum.Facts, Utility: sum.Utility, PriorError: sum.PriorError,
			Text: tmpl.Render(rel, p.Query, sum.Facts),
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	gotStore, gotStats, err := Run(context.Background(), rel, cfg, Options{
		Solver: "G-O", Workers: 4, Template: tmpl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotStats.Problems != wantStore.Len() || gotStats.Speeches != wantStore.Len() {
		t.Fatalf("stats differ: pipeline %d problems / %d speeches, sequential loop %d",
			gotStats.Problems, gotStats.Speeches, wantStore.Len())
	}
	// The sink adds the terms in enumeration order, whatever order the
	// four workers finish in, so the sums agree to the bit.
	if math.Float64bits(gotStats.SumScaledUtility) != math.Float64bits(wantUtility) {
		t.Fatalf("utilities differ: %v vs %v", gotStats.SumScaledUtility, wantUtility)
	}
	want := wantStore.Speeches()
	got := gotStore.Speeches()
	if len(got) != len(want) {
		t.Fatalf("store sizes differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Query.Key() != want[i].Query.Key() || got[i].Text != want[i].Text || got[i].Utility != want[i].Utility {
			t.Fatalf("speech %d differs:\n  pipeline   %s: %q (%v)\n  sequential %s: %q (%v)",
				i, got[i].Query.Key(), got[i].Text, got[i].Utility, want[i].Query.Key(), want[i].Text, want[i].Utility)
		}
	}
	if !gotStore.Frozen() {
		t.Error("pipeline store must be frozen")
	}
}

// TestRunsEveryAlgorithm runs the same workload through every one of
// the paper's algorithms, and refuses a name that is none of them with
// an error that lists them.
func TestRunsEveryAlgorithm(t *testing.T) {
	rel := dataset.Flights(1500, 1)
	cfg := flightsConfig(rel)

	for _, alg := range engine.Algorithms() {
		store, stats, err := Run(context.Background(), rel, cfg, Options{
			Solver: string(alg), Workers: 2,
			Solve: summarize.Options{Timeout: 2 * time.Second},
		})
		if err != nil {
			t.Fatalf("solver %s: %v", alg, err)
		}
		if store.Len() == 0 || stats.Problems == 0 {
			t.Fatalf("solver %s produced an empty store", alg)
		}
		if stats.AvgScaledUtility() <= 0 {
			t.Errorf("solver %s: avg scaled utility %v", alg, stats.AvgScaledUtility())
		}
	}

	for _, name := range []string{"sampling", "G0"} {
		_, _, err := Run(context.Background(), rel, cfg, Options{Solver: name})
		if err == nil {
			t.Fatalf("solver %q: Run succeeded, want it refused", name)
		}
		for _, alg := range engine.Algorithms() {
			if !strings.Contains(err.Error(), string(alg)) {
				t.Errorf("solver %q: error %q does not list %s", name, err, alg)
			}
		}
	}
}

// errInduced is the error failOnPredicates wraps.
var errInduced = errors.New("induced failure")

// failOnPredicates is a beforeSolve hook that fails every problem whose
// query has predicates, letting only the overall query be solved.
func failOnPredicates(ctx context.Context, q engine.Query) error {
	if len(q.Predicates) > 0 {
		return fmt.Errorf("%s: %w", q.Key(), errInduced)
	}
	return nil
}

// delaySolves returns a beforeSolve hook that delays each solve so a
// mid-batch cancel reliably lands while problems are in flight.
func delaySolves(delay time.Duration) func(context.Context, engine.Query) error {
	return func(ctx context.Context, q engine.Query) error {
		select {
		case <-time.After(delay):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// TestFailuresExceedWorkersNoDeadlock is the pipeline half of the
// deadlock regression: far more failing problems than workers must
// neither block nor leak. The first failure cancels the batch: Run
// returns it, withholds the store, and the progress stream still ends on
// the final failure count.
func TestFailuresExceedWorkersNoDeadlock(t *testing.T) {
	rel := dataset.Flights(1500, 1)
	cfg := flightsConfig(rel)

	type outcome struct {
		store    *engine.Store
		stats    Stats
		err      error
		progress []Progress
	}
	ch := make(chan outcome, 1)
	go func() {
		var progress []Progress
		store, stats, err := Run(context.Background(), rel, cfg, Options{
			Solver: "G-O", Workers: 2, beforeSolve: failOnPredicates,
			Progress: func(p Progress) { progress = append(progress, p) },
		})
		ch <- outcome{store, stats, err, progress}
	}()
	var o outcome
	select {
	case o = <-ch:
	case <-time.After(60 * time.Second):
		t.Fatal("pipeline deadlocked")
	}

	if !errors.Is(o.err, errInduced) {
		t.Fatalf("Run returned %v, want the solver's induced failure", o.err)
	}
	if o.stats.Failed < 1 {
		t.Errorf("stats count %d failures, want at least one", o.stats.Failed)
	}
	if n := len(o.progress); n == 0 {
		t.Error("no progress reported")
	} else if last := o.progress[n-1]; last.Failed != o.stats.Failed {
		t.Errorf("last progress %+v, stats count %d failed problems", last, o.stats.Failed)
	}
	if o.store != nil {
		t.Error("a failed run must not return a store")
	}
}

// TestCancelLeavesResumableCheckpoint is the acceptance scenario: cancel
// a batch mid-flight, then resume it from the checkpoint and end with
// exactly the store an uninterrupted run produces.
func TestCancelLeavesResumableCheckpoint(t *testing.T) {
	rel := dataset.Flights(2000, 1)
	cfg := flightsConfig(rel)
	tmpl := engine.Template{TargetPhrase: "cancellation probability", Percent: true}
	path := filepath.Join(t.TempDir(), "preprocess.ckpt")

	full, _, err := Run(context.Background(), rel, cfg, Options{Solver: "G-O", Template: tmpl})
	if err != nil {
		t.Fatal(err)
	}
	totalProblems := full.Len()
	if totalProblems < 6 {
		t.Fatalf("workload too small for a meaningful cancel test: %d problems", totalProblems)
	}

	ckpt, err := OpenCheckpoint(path, rel)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	store, stats, err := Run(ctx, rel, cfg, Options{
		Solver: "G-O", Workers: 2, Template: tmpl, Checkpoint: ckpt,
		beforeSolve: delaySolves(30 * time.Millisecond),
		Progress: func(p Progress) {
			if p.Solved >= 3 {
				once.Do(cancel)
			}
		},
	})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if store != nil {
		t.Error("cancelled run must not return a store")
	}
	if stats.Problems == 0 {
		t.Fatal("cancel landed before any problem completed; test needs a slower solver")
	}
	if stats.Problems >= totalProblems {
		t.Fatalf("cancel landed after the whole batch (%d problems) completed", totalProblems)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume with a fresh checkpoint handle and the same solver (the
	// provenance guard refuses anything else): recorded problems are
	// skipped, the rest solved, and the final store matches the
	// uninterrupted run exactly.
	ckpt2, err := OpenCheckpoint(path, rel)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt2.Close()
	if ckpt2.Len() != stats.Problems {
		t.Fatalf("checkpoint holds %d records, cancelled run completed %d", ckpt2.Len(), stats.Problems)
	}
	store2, stats2, err := Run(context.Background(), rel, cfg, Options{
		Solver: "G-O", Workers: 2, Template: tmpl, Checkpoint: ckpt2,
		beforeSolve: delaySolves(30 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Resumed != stats.Problems {
		t.Errorf("resumed %d problems, want %d skipped via checkpoint", stats2.Resumed, stats.Problems)
	}
	if stats2.Problems != totalProblems-stats.Problems {
		t.Errorf("resume solved %d problems, want %d", stats2.Problems, totalProblems-stats.Problems)
	}
	want := full.Speeches()
	got := store2.Speeches()
	if len(got) != len(want) {
		t.Fatalf("resumed store has %d speeches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Query.Key() != want[i].Query.Key() || got[i].Text != want[i].Text {
			t.Fatalf("resumed speech %d differs: %q vs %q", i, got[i].Text, want[i].Text)
		}
	}
}

// TestCancelReturnsPromptly bounds the acceptance latency: cancelling a
// batch of slow problems must return within roughly one problem's solve
// time, not after the remaining batch.
func TestCancelReturnsPromptly(t *testing.T) {
	rel := dataset.Flights(2000, 1)
	cfg := flightsConfig(rel)
	solveTime := 50 * time.Millisecond

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var startOnce sync.Once
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, _, err := Run(ctx, rel, cfg, Options{
			Solver: "G-O", Workers: 2, beforeSolve: delaySolves(solveTime),
			Progress: func(p Progress) { startOnce.Do(func() { close(started) }) },
		})
		done <- err
	}()
	<-started
	cancelAt := time.Now()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v", err)
		}
		if lat := time.Since(cancelAt); lat > 10*solveTime {
			t.Errorf("cancel latency %v exceeds ~one problem's solve time (%v)", lat, solveTime)
		}
		_ = start
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after cancel")
	}
}

// TestCancelledSolveIsDiscarded cancels the run from inside a problem's
// solve, just before the algorithm runs: the algorithm then returns an
// aborted partial speech, which neither Run nor RunProblems may take
// for the problem's answer — Run records nothing in the checkpoint, and
// RunProblems returns no store.
func TestCancelledSolveIsDiscarded(t *testing.T) {
	rel := dataset.Flights(1000, 1)
	cfg := flightsConfig(rel)
	cancelNow := func(cancel context.CancelFunc) func(context.Context, engine.Query) error {
		return func(context.Context, engine.Query) error {
			cancel()
			return nil
		}
	}

	ckpt, err := OpenCheckpoint(filepath.Join(t.TempDir(), "cancelled.ckpt"), rel)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, stats, err := Run(ctx, rel, cfg, Options{Solver: "G-O", Checkpoint: ckpt, beforeSolve: cancelNow(cancel)})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if stats.Problems != 0 || ckpt.Len() != 0 {
		t.Errorf("Run counted %d problems and checkpointed %d, want none", stats.Problems, ckpt.Len())
	}

	var p engine.Problem
	if err := engine.EachProblem(rel, cfg, func(q engine.Problem) error {
		p = q
		return engine.ErrStopEnumeration
	}); err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	store, _, err := RunProblems(ctx2, rel, cfg, []engine.Problem{p}, Options{Solver: "G-O", beforeSolve: cancelNow(cancel2)})
	if store != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("RunProblems returned (%v, %v), want (nil, context.Canceled)", store, err)
	}
}

// TestRunProblemsGroupsBySubset hands RunProblems the enumeration in
// target-major order, where a data subset's problems stand a whole
// target apart: each subset must still be one work item, its problems
// solved back to back at one worker as Run solves them, and the store
// and work counters must be Run's.
func TestRunProblemsGroupsBySubset(t *testing.T) {
	rel := dataset.Flights(2000, 1)
	cfg := flightsConfig(rel)
	cfg.Targets = nil // both targets
	problems, err := engine.Problems(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	if err := engine.EachSubset(rel, cfg, func(s engine.Subset) error {
		for _, p := range s.Problems {
			want = append(want, p.Query.Key())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var solved []string
	record := func(_ context.Context, q engine.Query) error {
		solved = append(solved, q.Key())
		return nil
	}
	got, gotStats, err := RunProblems(context.Background(), rel, cfg, problems, Options{Solver: "G-O", Workers: 1, beforeSolve: record})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(solved, want) {
		t.Fatalf("solve order is not subset by subset:\n got  %v\n want %v", solved, want)
	}
	full, fullStats, err := Run(context.Background(), rel, cfg, Options{Solver: "G-O", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, w := got.Speeches(), full.Speeches()
	if len(g) != len(w) {
		t.Fatalf("RunProblems stored %d speeches, Run %d", len(g), len(w))
	}
	for i := range w {
		if g[i].Query.Key() != w[i].Query.Key() || g[i].Text != w[i].Text || g[i].Utility != w[i].Utility {
			t.Fatalf("speech %d differs: %q vs %q", i, g[i].Text, w[i].Text)
		}
	}
	if gotStats.TotalFacts != fullStats.TotalFacts || gotStats.FactsEvaluated != fullStats.FactsEvaluated ||
		gotStats.JoinedRows != fullStats.JoinedRows ||
		math.Float64bits(gotStats.SumScaledUtility) != math.Float64bits(fullStats.SumScaledUtility) {
		t.Errorf("RunProblems counted %+v, Run %+v", gotStats, fullStats)
	}
}

// TestProgressMonotonic verifies the pipeline's progress contract under
// parallelism: done counts never decrease and end at the full total.
func TestProgressMonotonic(t *testing.T) {
	rel := dataset.Flights(2000, 1)
	cfg := flightsConfig(rel)
	var snaps []Progress
	_, stats, err := Run(context.Background(), rel, cfg, Options{
		Solver: "G-O", Workers: 4,
		Progress: func(p Progress) { snaps = append(snaps, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != stats.Problems {
		t.Fatalf("progress calls = %d, want %d", len(snaps), stats.Problems)
	}
	for i, p := range snaps {
		if p.Done != i+1 {
			t.Fatalf("snapshot %d: done = %d, not monotone", i, p.Done)
		}
		if p.Total >= 0 && p.Done > p.Total {
			t.Fatalf("snapshot %d: done %d exceeds total %d", i, p.Done, p.Total)
		}
		if p.Done != p.Solved+p.Failed+p.Skipped {
			t.Fatalf("snapshot %d: done %d != solved+failed+skipped", i, p.Done)
		}
	}
	if last := snaps[len(snaps)-1]; last.Total != last.Done {
		t.Errorf("final snapshot %+v does not cover the total", last)
	}
}

// TestTotalFactsCountsCandidates pins Stats.TotalFacts to its doc: the
// candidate facts of every solved problem, which on the benchmark's
// greedy batch is Σ len(GenerateFacts) over the problems.
func TestTotalFactsCountsCandidates(t *testing.T) {
	rel, cfg, opts := digestConfigs()[0].build()
	_, stats, err := Run(context.Background(), rel, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, problems := 0, 0
	if err := engine.EachProblem(rel, cfg, func(p engine.Problem) error {
		want += len(p.GenerateFacts(cfg.MaxFactDims))
		problems++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if stats.Problems != problems || stats.TotalFacts != want {
		t.Fatalf("%d problems with %d candidate facts; the enumeration has %d with %d", stats.Problems, stats.TotalFacts, problems, want)
	}
}

// TestResumeSkipsProblemsOneByOne: with two targets a work item holds
// two problems, and a checkpoint may hold either, both or neither of
// them. A resumed run skips exactly the recorded problems, solves the
// rest, and ends with the store of an uninterrupted run.
func TestResumeSkipsProblemsOneByOne(t *testing.T) {
	rel := dataset.Flights(2000, 1)
	cfg := flightsConfig(rel)
	cfg.Targets = nil // both targets
	full, _, err := Run(context.Background(), rel, cfg, Options{Solver: "G-O", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "half.ckpt")
	ckpt, err := OpenCheckpoint(path, rel)
	if err != nil {
		t.Fatal(err)
	}
	want := full.Speeches()
	// Of every three data subsets, record both problems of the first,
	// one of the second and none of the third.
	subsets := map[string]int{}
	recorded := 0
	for _, sp := range want {
		q := sp.Query
		q.Target = ""
		si, ok := subsets[q.Canonical().Key()]
		if !ok {
			si = len(subsets)
			subsets[q.Canonical().Key()] = si
		}
		if si%3 == 0 || si%3 == 1 && sp.Query.Target == "cancelled" {
			if err := ckpt.Record(sp.Query.Canonical().Key(), sp); err != nil {
				t.Fatal(err)
			}
			recorded++
		}
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}
	ckpt, err = OpenCheckpoint(path, rel)
	if err != nil {
		t.Fatal(err)
	}
	defer ckpt.Close()
	store, stats, err := Run(context.Background(), rel, cfg, Options{Solver: "G-O", Workers: 2, Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed != recorded || stats.Problems != len(want)-recorded {
		t.Fatalf("resumed %d and solved %d; want %d resumed, %d solved", stats.Resumed, stats.Problems, recorded, len(want)-recorded)
	}
	got := store.Speeches()
	if len(got) != len(want) {
		t.Fatalf("resumed store has %d speeches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Query.Key() != want[i].Query.Key() || got[i].Text != want[i].Text || got[i].Utility != want[i].Utility {
			t.Fatalf("resumed speech %d differs: %q vs %q", i, got[i].Text, want[i].Text)
		}
	}
}

// TestStageMetricsAccumulate sanity-checks the per-stage breakdown.
func TestStageMetricsAccumulate(t *testing.T) {
	rel := dataset.Flights(1500, 1)
	cfg := flightsConfig(rel)
	_, stats, err := Run(context.Background(), rel, cfg, Options{Solver: "G-O", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stages.Evaluate <= 0 || stats.Stages.Solve <= 0 {
		t.Errorf("stage times not accumulated: %+v", stats.Stages)
	}
}

// TestCheckpointRoundTrip unit-tests the record format, including the
// crash signature of a torn trailing line.
func TestCheckpointRoundTrip(t *testing.T) {
	rel := dataset.Flights(1000, 1)
	cfg := flightsConfig(rel)
	tmpl := engine.Template{Percent: true}
	store, _, err := Run(context.Background(), rel, cfg, Options{Solver: "G-O", Template: tmpl})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rt.ckpt")
	ckpt, err := OpenCheckpoint(path, rel)
	if err != nil {
		t.Fatal(err)
	}
	speeches := store.Speeches()
	for _, sp := range speeches {
		if err := ckpt.Record(sp.Query.Key(), sp); err != nil {
			t.Fatal(err)
		}
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := OpenCheckpoint(path, rel)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.Len() != len(speeches) {
		t.Fatalf("reloaded %d records, want %d", back.Len(), len(speeches))
	}
	for _, sp := range speeches {
		if !back.Done(sp.Query.Key()) {
			t.Errorf("key %s not marked done after reload", sp.Query.Key())
		}
	}
	restored := back.Resumed()
	if len(restored) != len(speeches) {
		t.Fatalf("resumed %d speeches, want %d", len(restored), len(speeches))
	}
	for i, sp := range restored {
		if sp.Text != speeches[i].Text || len(sp.Facts) != len(speeches[i].Facts) {
			t.Errorf("speech %d did not round-trip", i)
		}
	}
}

// TestCheckpointRejectsMismatchedRun guards speech provenance: a
// checkpoint written by one (dataset, solver, query-shape) run must not
// seed a run with different flags.
func TestCheckpointRejectsMismatchedRun(t *testing.T) {
	rel := dataset.Flights(1000, 1)
	cfg := flightsConfig(rel)
	path := filepath.Join(t.TempDir(), "mix.ckpt")
	ckpt, err := OpenCheckpoint(path, rel)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Run(context.Background(), rel, cfg, Options{
		Solver: "G-O", Checkpoint: ckpt,
	}); err != nil {
		t.Fatal(err)
	}
	ckpt.Close()

	reopen := func() *Checkpoint {
		c, err := OpenCheckpoint(path, rel)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// Different solver: refused.
	c2 := reopen()
	if _, _, err := Run(context.Background(), rel, cfg, Options{
		Solver: "G-B", Checkpoint: c2,
	}); err == nil {
		t.Error("resume with a different solver must be refused")
	}
	c2.Close()
	// Different query shape: refused.
	c3 := reopen()
	cfg2 := cfg
	cfg2.MaxQueryLen = 2
	if _, _, err := Run(context.Background(), rel, cfg2, Options{
		Solver: "G-O", Checkpoint: c3,
	}); err == nil {
		t.Error("resume with a different query shape must be refused")
	}
	c3.Close()
	// Same run: accepted, everything resumed.
	c4 := reopen()
	defer c4.Close()
	_, stats, err := Run(context.Background(), rel, cfg, Options{
		Solver: "G-O", Checkpoint: c4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Problems != 0 || stats.Resumed == 0 {
		t.Errorf("full resume expected, got solved %d resumed %d", stats.Problems, stats.Resumed)
	}
}

// TestCheckpointIgnoresTornTail simulates a crash mid-write: a trailing
// partial line must be dropped, not fail the load.
func TestCheckpointIgnoresTornTail(t *testing.T) {
	rel := dataset.Flights(1000, 1)
	cfg := flightsConfig(rel)
	store, _, err := Run(context.Background(), rel, cfg, Options{Solver: "G-O"})
	if err != nil {
		t.Fatal(err)
	}
	speeches := store.Speeches()
	if len(speeches) < 2 {
		t.Fatal("need at least two speeches")
	}
	path := filepath.Join(t.TempDir(), "torn.ckpt")
	ckpt, err := OpenCheckpoint(path, rel)
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Record(speeches[0].Query.Key(), speeches[0]); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Close(); err != nil {
		t.Fatal(err)
	}
	// Append a torn half-record with no trailing newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"torn","speech":{"quer`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := OpenCheckpoint(path, rel)
	if err != nil {
		t.Fatalf("torn tail must not fail the load: %v", err)
	}
	if back.Len() != 1 {
		t.Errorf("loaded %d records, want 1 (torn tail dropped)", back.Len())
	}
	if back.Done("torn") {
		t.Error("torn record must not count as done")
	}
	// The torn bytes must also be cut from disk: a record appended after
	// the recovery must not glue onto them and corrupt the file.
	if err := back.Record(speeches[1].Query.Key(), speeches[1]); err != nil {
		t.Fatal(err)
	}
	if err := back.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := OpenCheckpoint(path, rel)
	if err != nil {
		t.Fatalf("append after torn-tail recovery corrupted the file: %v", err)
	}
	defer again.Close()
	if again.Len() != 2 {
		t.Errorf("loaded %d records after recovery+append, want 2", again.Len())
	}
}

// TestCheckpointRejectsMalformedFact: a checkpoint is a file on disk,
// and a record whose fact no writer produces — a column without its
// value, or a column named twice — must fail the load as a corrupt
// record rather than panic.
func TestCheckpointRejectsMalformedFact(t *testing.T) {
	rel := dataset.Flights(200, 1)
	for _, c := range []struct{ name, fact string }{
		{"column without value", `{"columns":["airline"],"value":1}`},
		{"column twice", `{"columns":["airline","airline"],"values":["AA","UA"],"value":1}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "malformed.ckpt")
			line := `{"key":"k","speech":{"query":{"target":"cancelled"},"facts":[` + c.fact + `],"text":"t"}}` + "\n"
			if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
				t.Fatal(err)
			}
			ckpt, err := OpenCheckpoint(path, rel)
			if err == nil {
				ckpt.Close()
			}
			if err == nil || !strings.Contains(err.Error(), "corrupt record") {
				t.Fatalf("malformed record: error %v, want a corrupt record", err)
			}
		})
	}
}
