package summarize

import (
	"context"
	"time"

	"cicero/internal/fact"
)

// PruningMode selects the fact-pruning strategy used by the greedy
// algorithm, matching the variants compared in Figure 3 of the paper.
type PruningMode int

const (
	// PruneNone is the base greedy algorithm G-B (Algorithm 2).
	PruneNone PruningMode = iota
	// PruneNaive is G-P: Algorithm 3 with the simple strategy that uses
	// all fact groups for pruning in Algorithm 4's consideration order.
	PruneNaive
	// PruneOptimized is G-O: Algorithm 3 with the pruning plan chosen by
	// the cost model of Section VI-C over Algorithm 4's candidates.
	PruneOptimized
)

// String names the pruning mode as in the paper's plots.
func (m PruningMode) String() string {
	switch m {
	case PruneNone:
		return "G-B"
	case PruneNaive:
		return "G-P"
	case PruneOptimized:
		return "G-O"
	default:
		return "?"
	}
}

// Options configures a summarization run.
type Options struct {
	// MaxFacts is m, the maximal number of facts per speech. The paper's
	// experiments use three ("user retention decreases sharply after
	// three facts").
	MaxFacts int
	// Pruning selects the greedy fact-pruning strategy.
	Pruning PruningMode
	// Timeout aborts the exact algorithm, returning the best speech
	// found so far with TimedOut=true in the result. Zero means no limit.
	Timeout time.Duration
	// LowerBound seeds the exact algorithm's pruning bound b. The caller
	// usually passes the greedy utility; zero seeds automatically.
	LowerBound float64
	// Deprecated: read by no solver; bench/ still assigns it (ROADMAP item 4).
	Workers int
}

func (o Options) withDefaults() Options {
	if o.MaxFacts <= 0 {
		o.MaxFacts = 3
	}
	return o
}

// RunStats records work counters for the experiment harness.
type RunStats struct {
	// FactsEvaluated counts exact utility-gain computations.
	FactsEvaluated int
	// GroupsPruned counts fact groups eliminated by bounds.
	GroupsPruned int
	// BoundsComputed counts group-bound (group-by) computations.
	BoundsComputed int
	// NodesExpanded counts partial speeches expanded (exact algorithm).
	NodesExpanded int64
	// SpeechesEvaluated counts full speeches the exact algorithm scored,
	// or settled below the incumbent by the submodular bound.
	SpeechesEvaluated int64
	// LeavesSettled counts the speeches of SpeechesEvaluated settled by
	// the bound without a scan: the last fact's single-fact utility
	// added to the partial speech's could not reach the best speech so
	// far (exact algorithm).
	LeavesSettled int64
	// DominatedSkipped counts exact-search extensions skipped because an
	// equal-signature (same posting list and value) fact was already on
	// the search path, making the extension's marginal gain exactly zero.
	DominatedSkipped int64
	// JoinedRows counts row-fact pairs processed.
	JoinedRows int64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// TimedOut reports whether the exact algorithm hit its timeout.
	TimedOut bool
	// Cancelled reports whether the run was aborted by context
	// cancellation; the returned speech reflects only the completed part
	// of the search and carries no optimality guarantee.
	Cancelled bool
}

// Summary is the result of a summarization run: the selected facts, their
// utility, and run statistics.
type Summary struct {
	Facts         []fact.Fact
	FactIdx       []int32
	Utility       float64
	PriorError    float64
	ResidualError float64
	Stats         RunStats
}

// ScaledUtility returns utility normalized by the prior error, the
// "utility (scaled)" metric of Figure 3: 1 means the speech removes all
// deviation, 0 means it is useless.
func (s Summary) ScaledUtility() float64 {
	if s.PriorError == 0 {
		return 1
	}
	return s.Utility / s.PriorError
}

// Greedy runs Algorithm 2 without cancellation support; see GreedyCtx.
func Greedy(e *Evaluator, opts Options) Summary {
	return GreedyCtx(context.Background(), e, opts)
}

// GreedyCtx runs Algorithm 2 (with the pruning strategy selected in opts)
// on a prepared evaluator and returns the near-optimal speech. The greedy
// choice of the maximal-gain fact per iteration guarantees utility within
// (1−1/e) of the optimum (Theorem 3).
//
// Cancelling ctx (or letting its deadline expire) aborts the run within
// ctxCheckEvery fact evaluations: the facts committed by completed
// iterations are returned with Stats.Cancelled set, and the iteration
// whose scan was interrupted is discarded so a partially scanned
// candidate set can never produce a non-greedy choice.
func GreedyCtx(ctx context.Context, e *Evaluator, opts Options) Summary {
	opts = opts.withDefaults()
	start := time.Now()
	e.ResetGreedy()
	joined0 := e.JoinedRows

	var stats RunStats
	// The pruning plan depends only on the group structure and cost-model
	// parameters, which are invariant across greedy iterations, so it is
	// planned once per run (the paper's OPT_PRUNE inputs — optimizer
	// statistics and fact counts — are equally iteration-invariant).
	var plan *Plan
	switch opts.Pruning {
	case PruneNaive:
		p := NaivePlan(e)
		plan = &p
	case PruneOptimized:
		p := OptPrune(e)
		plan = &p
	}
	chosen := make([]int32, 0, opts.MaxFacts)
	chosenSet := e.chosenMarkScratch()
	for iter := 0; iter < opts.MaxFacts; iter++ {
		if ctx.Err() != nil {
			stats.Cancelled = true
			break
		}
		bestFact, bestGain := selectBestFact(ctx, e, opts, plan, chosenSet, &stats)
		if stats.Cancelled {
			break
		}
		if bestFact < 0 || bestGain <= 0 {
			break
		}
		e.CommitFact(int(bestFact))
		chosen = append(chosen, bestFact)
		chosenSet[bestFact] = true
	}

	residual := e.CurrentError()
	facts := make([]fact.Fact, len(chosen))
	for i, fi := range chosen {
		facts[i] = e.Facts()[fi].Clone()
	}
	stats.Elapsed = time.Since(start)
	stats.JoinedRows = e.JoinedRows - joined0
	return Summary{
		Facts:         facts,
		FactIdx:       chosen,
		Utility:       e.PriorError() - residual,
		PriorError:    e.PriorError(),
		ResidualError: residual,
		Stats:         stats,
	}
}

// selectBestFact returns the fact with maximal utility gain for the
// current greedy state, using the configured pruning strategy. Ties are
// broken toward the smallest fact index so that all pruning modes select
// identical speeches (pruning only changes scan order, never the
// argmax). A cancelled ctx aborts the scan (polled every ctxCheckEvery
// fact evaluations) and sets stats.Cancelled; the partial argmax must
// then be discarded by the caller. chosenSet is the evaluator's dense
// already-chosen mark, indexed by fact id.
func selectBestFact(ctx context.Context, e *Evaluator, opts Options, plan *Plan, chosenSet []bool, stats *RunStats) (int32, float64) {
	best := int32(-1)
	bestGain := 0.0
	watchCtx := ctx.Done() != nil
	evals := int64(0)
	// eval scores one candidate and reports whether to keep scanning.
	eval := func(fi int32) bool {
		if watchCtx {
			if evals++; evals%ctxCheckEvery == 0 && ctx.Err() != nil {
				stats.Cancelled = true
				return false
			}
		}
		if chosenSet[fi] {
			return true
		}
		gain := e.GreedyGain(int(fi))
		stats.FactsEvaluated++
		if gain <= 0 {
			return true
		}
		if gain > bestGain || (gain == bestGain && (best < 0 || fi < best)) {
			bestGain, best = gain, fi
		}
		return true
	}
	scan := func(facts []int32) bool {
		for _, fi := range facts {
			if !eval(fi) {
				return false
			}
		}
		return true
	}

	if opts.Pruning == PruneNone || plan == nil {
		for fi := int32(0); fi < int32(e.NumFacts()); fi++ {
			if !eval(fi) {
				break
			}
		}
		return best, bestGain
	}

	// Algorithm 3: source groups first, then bound-based target pruning,
	// then whatever survives.
	groups := e.Groups()
	alive := e.aliveMarkScratch()
	for _, gi := range plan.Source {
		if !scan(groups[gi].Facts) {
			return best, bestGain
		}
		alive[gi] = false // scanned; exclude from the final pass
	}
	// Deviation bounds are non-negative, so with no positive source gain
	// the test m > u can never succeed — skip the bound phase entirely
	// (identical outcome, no wasted group-by passes).
	if bestGain > 0 {
		for _, ti := range plan.Targets {
			if !alive[ti] {
				continue
			}
			if watchCtx && ctx.Err() != nil {
				stats.Cancelled = true
				return best, bestGain
			}
			bound := e.GroupBound(&groups[ti])
			stats.BoundsComputed++
			if bestGain > bound {
				for gi := range groups {
					if alive[gi] && dimsSubset(groups[ti].Dims, groups[gi].Dims) {
						alive[gi] = false
						stats.GroupsPruned++
					}
				}
			}
		}
	}
	for gi := range groups {
		if !alive[gi] {
			continue
		}
		if !scan(groups[gi].Facts) {
			return best, bestGain
		}
	}
	return best, bestGain
}
