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
	// AlgExactPruned is E-P: E's search under the tighter submodular
	// path bound (summarize.ExactSubmodularCtx). Its speeches are
	// bit-identical to E's; it expands fewer nodes to find them. The name
	// stays "E-P" because snapshot fingerprints and checkpoints record it.
	AlgExactPruned Algorithm = "E-P"
	// AlgGreedyBase is G-B: Algorithm 2 without fact pruning.
	AlgGreedyBase Algorithm = "G-B"
	// AlgGreedyPrune is G-P: greedy with naive fact pruning.
	AlgGreedyPrune Algorithm = "G-P"
	// AlgGreedyOpt is G-O: greedy with cost-optimized fact pruning.
	AlgGreedyOpt Algorithm = "G-O"
)

// Algorithms lists all supported methods in Figure 3 order, plus the
// pruned exact variant.
func Algorithms() []Algorithm {
	return []Algorithm{AlgExact, AlgExactPruned, AlgGreedyBase, AlgGreedyPrune, AlgGreedyOpt}
}

// Solve runs the selected algorithm on a prepared evaluator. The context
// bounds the run: its deadline acts like opts.Timeout and cancellation
// aborts the inner enumeration loops, returning the best speech found so
// far with Stats.Cancelled set. For E and E-P the stats add the greedy
// seed's work to the exact search's, whichever speech is returned. This
// is the pipeline's one solving core.
func Solve(ctx context.Context, alg Algorithm, e *summarize.Evaluator, opts summarize.Options) summarize.Summary {
	switch alg {
	case AlgExact, AlgExactPruned:
		greedy := summarize.GreedyCtx(ctx, e, opts)
		exactOpts := opts
		exactOpts.LowerBound = greedy.Utility
		search := summarize.ExactCtx
		if alg == AlgExactPruned {
			search = summarize.ExactSubmodularCtx
		}
		exact := search(ctx, e, exactOpts)
		// The solve is the seed and the search: whichever speech wins,
		// the stats report the work of both.
		stats := withSeedWork(exact.Stats, greedy.Stats)
		// A timed-out or cancelled exact run may fall below the greedy
		// seed; the greedy speech is then the best known answer (the
		// paper's runs with a 48h timeout behave the same way).
		if exact.Utility < greedy.Utility {
			greedy.Stats = stats
			return greedy
		}
		exact.Stats = stats
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

// withSeedWork returns an exact search's stats with its greedy seed's
// work counters and wall-clock time added; TimedOut and Cancelled stay
// the search's.
func withSeedWork(search, seed summarize.RunStats) summarize.RunStats {
	search.FactsEvaluated += seed.FactsEvaluated
	search.GroupsPruned += seed.GroupsPruned
	search.BoundsComputed += seed.BoundsComputed
	search.NodesExpanded += seed.NodesExpanded
	search.SpeechesEvaluated += seed.SpeechesEvaluated
	search.LeavesSettled += seed.LeavesSettled
	search.DominatedSkipped += seed.DominatedSkipped
	search.JoinedRows += seed.JoinedRows
	search.Elapsed += seed.Elapsed
	return search
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
