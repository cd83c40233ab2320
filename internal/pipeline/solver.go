package pipeline

import (
	"context"
	"slices"

	"cicero/internal/engine"
	"cicero/internal/summarize"
)

// SolveOptions parameterizes one Solver.Solve call.
type SolveOptions struct {
	summarize.Options
	// Query and FreeDims describe the problem being solved. No algorithm
	// reads them: only bench/trace.go sets them, until it calls
	// engine.Solve itself (ROADMAP item 4(c)).
	Query    engine.Query
	FreeDims []int
}

// Solver is one of the paper's algorithms (engine.Algorithms()), by
// name, solving one problem the way a pipeline run does.
type Solver struct {
	alg engine.Algorithm
}

// LookupSolver resolves a solver name; the empty name is G-O, the
// pipeline's default.
func LookupSolver(name string) (Solver, bool) {
	alg, ok := algorithm(name)
	return Solver{alg: alg}, ok
}

// Name returns the algorithm's name, e.g. "G-O".
func (s Solver) Name() string { return string(s.alg) }

// Solve computes a summary for the problem held by the evaluator.
func (s Solver) Solve(ctx context.Context, e *summarize.Evaluator, opts SolveOptions) (summarize.Summary, error) {
	return solve(ctx, s.alg, e, opts.Options)
}

// algorithm resolves a solver name to the algorithm it runs: the empty
// name is G-O, and ok reports whether the name is one of
// engine.Algorithms(). It is the one place the default is set.
func algorithm(name string) (alg engine.Algorithm, ok bool) {
	if name == "" {
		return engine.AlgGreedyOpt, true
	}
	alg = engine.Algorithm(name)
	return alg, slices.Contains(engine.Algorithms(), alg)
}

// solve is the pipeline's one solve call. ctx is the run's context: when
// it ends — cancel or deadline — the batch is over and this problem's
// partial result is discarded (an expired run deadline would otherwise
// "complete" every remaining problem with an instantly-aborted, useless
// speech and checkpoint it as done). Per-problem time bounds go through
// opts.Timeout, which keeps the best-so-far speech with Stats.TimedOut
// set.
func solve(ctx context.Context, alg engine.Algorithm, e *summarize.Evaluator, opts summarize.Options) (summarize.Summary, error) {
	sum := engine.Solve(ctx, alg, e, opts)
	return sum, ctx.Err()
}
