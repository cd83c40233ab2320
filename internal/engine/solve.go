package engine

import (
	"context"
	"fmt"

	"cicero/internal/summarize"
)

// Algorithm identifies a summarization method for the batch pre-processor,
// matching the variants of Figure 3.
type Algorithm string

const (
	// AlgExact is E: Algorithm 1, seeded with the greedy lower bound.
	AlgExact Algorithm = "E"
	// AlgExactParallel is E-P: Algorithm 1's enumeration distributed over
	// a worker pool with a shared incumbent bound
	// (summarize.ExactParallelCtx). Output is bit-identical to E; with
	// opts.WarmStart the greedy utility (and, in the pipeline's E-P
	// solver, the better of greedy and the ML prediction) seeds the
	// incumbent so pruning opens near-optimal.
	AlgExactParallel Algorithm = "E-P"
	// AlgGreedyBase is G-B: Algorithm 2 without fact pruning.
	AlgGreedyBase Algorithm = "G-B"
	// AlgGreedyPrune is G-P: greedy with naive fact pruning.
	AlgGreedyPrune Algorithm = "G-P"
	// AlgGreedyOpt is G-O: greedy with cost-optimized fact pruning.
	AlgGreedyOpt Algorithm = "G-O"
)

// Algorithms lists all supported methods in Figure 3 order, plus the
// parallel exact variant.
func Algorithms() []Algorithm {
	return []Algorithm{AlgExact, AlgExactParallel, AlgGreedyBase, AlgGreedyPrune, AlgGreedyOpt}
}

// Solve runs the selected algorithm on a prepared evaluator. The context
// bounds the run: its deadline acts like opts.Timeout and cancellation
// aborts the inner enumeration loops, returning the best speech found so
// far with Stats.Cancelled set. This is the single solving core behind
// the pipeline's solver registry.
func Solve(ctx context.Context, alg Algorithm, e *summarize.Evaluator, opts summarize.Options) summarize.Summary {
	switch alg {
	case AlgExact:
		greedy := summarize.GreedyCtx(ctx, e, opts)
		exactOpts := opts
		exactOpts.LowerBound = greedy.Utility
		exact := summarize.ExactCtx(ctx, e, exactOpts)
		// A timed-out or cancelled exact run may fall below the greedy
		// seed; the greedy speech is then the best known answer (the
		// paper's runs with a 48h timeout behave the same way).
		if exact.Utility < greedy.Utility {
			greedy.Stats.TimedOut = exact.Stats.TimedOut
			greedy.Stats.Cancelled = exact.Stats.Cancelled
			return greedy
		}
		return exact
	case AlgExactParallel:
		greedy := summarize.GreedyCtx(ctx, e, opts)
		exactOpts := opts
		if opts.WarmStart && greedy.Utility > exactOpts.LowerBound {
			// Warm start: the greedy speech is a true lower bound on the
			// optimum, so seeding the incumbent from it only shrinks the
			// search (callers may have pre-seeded an even better bound,
			// e.g. from an ML prediction — keep the tighter one).
			exactOpts.LowerBound = greedy.Utility
		}
		exact := summarize.ExactParallelCtx(ctx, e, exactOpts)
		// Same fallback as E: a timed-out or cancelled run may fall below
		// the greedy seed, and the greedy speech is then the best answer.
		if exact.Utility < greedy.Utility {
			greedy.Stats.TimedOut = exact.Stats.TimedOut
			greedy.Stats.Cancelled = exact.Stats.Cancelled
			return greedy
		}
		return exact
	case AlgGreedyPrune:
		opts.Pruning = summarize.PruneNaive
		return summarize.GreedyCtx(ctx, e, opts)
	case AlgGreedyOpt:
		opts.Pruning = summarize.PruneOptimized
		return summarize.GreedyCtx(ctx, e, opts)
	default:
		opts.Pruning = summarize.PruneNone
		return summarize.GreedyCtx(ctx, e, opts)
	}
}

// SolveProblem generates candidate facts for one problem and runs the
// selected algorithm on a pooled evaluator: the kernel's buffers (CSR
// postings, group slots, scratch) are recycled across calls, so a loop
// of SolveProblem calls allocates almost nothing per problem beyond the
// facts and the returned summary.
func SolveProblem(ctx context.Context, alg Algorithm, p *Problem, maxFactDims int, opts summarize.Options) (summarize.Summary, error) {
	facts := p.GenerateFacts(maxFactDims)
	if len(facts) == 0 {
		return summarize.Summary{}, fmt.Errorf("problem %s: no candidate facts", p.Query.Key())
	}
	e := summarize.AcquireEvaluator(p.View, p.Target, facts, p.Prior)
	defer summarize.ReleaseEvaluator(e)
	return Solve(ctx, alg, e, opts), nil
}
