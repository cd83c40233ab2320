package summarize

import (
	"context"
	"time"
)

// pruneEps is the slack applied to utility-bound comparisons so that
// floating-point rounding between differently-ordered summations can
// never prune a true optimum.
const pruneEps = 1e-9

// ctxCheckEvery is how many enumeration steps pass between context
// polls in the algorithms' inner loops: rare enough to stay off the hot
// path, frequent enough that cancellation returns within microseconds.
const ctxCheckEvery = int64(1024)

// Exact runs Algorithm 1 without cancellation support; see ExactCtx.
func Exact(e *Evaluator, opts Options) Summary {
	return ExactCtx(context.Background(), e, opts)
}

// ExactCtx runs Algorithm 1: exhaustive speech enumeration with two
// pruning rules, returning a guaranteed optimal speech of up to
// opts.MaxFacts facts (Corollary 1).
//
// Pruning rule 1 eliminates redundant fact permutations by only expanding
// speeches with facts in decreasing single-fact-utility order. Pruning
// rule 2 discards a partial speech when even the optimistic bound
// S.U + r·F.U (Lemma 1: the sum of already-selected single-fact utilities
// plus the new fact's utility paid for every remaining slot) cannot reach
// the lower bound b on optimal utility.
//
// The lower bound is seeded from opts.LowerBound (callers pass the greedy
// utility, as the paper does) and tightened with every exact utility
// computed, which only strengthens pruning and never sacrifices
// optimality.
//
// Speech utilities are evaluated incrementally along the search path:
// expanding a node folds one fact into the per-row deviation state
// (O(|scope of that fact|) with an undo log), so a completed speech's
// utility is already on hand instead of re-unioning the whole speech at
// every leaf. The JoinedRows counter still charges each evaluated speech
// the full join size of the paper's SQL formulation (see Evaluator).
//
// The run is bounded two ways: opts.Timeout and the context's deadline
// both become the enumeration deadline (whichever is earlier), returning
// the best speech found so far with Stats.TimedOut set; cancelling ctx
// aborts the enumeration within ctxCheckEvery nodes and returns the best
// speech so far with Stats.Cancelled set.
func ExactCtx(ctx context.Context, e *Evaluator, opts Options) Summary {
	return exact(ctx, e, opts, false)
}

// ExactSubmodularCtx is ExactCtx with a tighter pruning rule 2: the
// partial speech's exact utility U(S), already on hand in the
// incremental path state, replaces Lemma 1's S.U. Speech utility is a
// per-row maximum of non-negative gains, so it is monotone submodular:
// U(S) ≤ S.U, and no fact adds more to S than its single-fact utility.
// U(S) + r·F.U therefore still bounds every completion of S.
//
// Unlike S.U, the path bound is tight: it equals a completion's utility
// when the facts' scopes are disjoint. So it carries a rounding slack
// relative to the problem's scale, pruneEps times the prior error, which
// bounds every utility; the fixed pruneEps is smaller than the rounding
// of a sum over thousands of rows, or of one near 10^8. The base of rule
// 2 is min(S.U, U(S) + slack), never looser than Lemma 1.
//
// Every subtree the path bound newly cuts holds only speeches more than
// the slack below b; cutting them never raises b, so the enumeration
// order, the bound timeline and the first-found-wins tie-break are
// ExactCtx's, and so is the returned speech, bit for bit, whenever it
// reaches opts.LowerBound. (When it does not, ExactCtx's fixed ε cut a
// speech that ties the seed within rounding; both searches then fall
// short of the seed, and engine.Solve answers with the seed's speech.)
// NodesExpanded is never larger than ExactCtx's.
func ExactSubmodularCtx(ctx context.Context, e *Evaluator, opts Options) Summary {
	return exact(ctx, e, opts, true)
}

// exact is the one depth-first search behind ExactCtx and
// ExactSubmodularCtx; pathBound selects the submodular path bound as the
// base of pruning rule 2 instead of Lemma 1's S.U.
func exact(ctx context.Context, e *Evaluator, opts Options, pathBound bool) Summary {
	opts = opts.withDefaults()
	start := time.Now()
	joined0 := e.JoinedRows
	var stats RunStats

	utils := e.singleFactUtilities()
	stats.FactsEvaluated = len(utils)
	order := e.orderedFactsByUtility(utils)

	m := opts.MaxFacts
	if m > len(order) {
		m = len(order)
	}

	b := opts.LowerBound
	var best []int32
	bestU := -1.0
	deadline := time.Time{}
	if opts.Timeout > 0 {
		deadline = start.Add(opts.Timeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	watchCtx := ctx.Done() != nil
	pathSlack := pruneEps * e.PriorError()

	// Dominance pruning: skip a fact whose scope+value signature class
	// is already represented on the search path — its marginal gain is
	// exactly zero, so no speech through it can strictly improve on its
	// dominance-free counterpart.
	dom := e.dominanceReps()
	domCnt := e.domCntScratch()

	e.path.begin(e)
	chosen := make([]int32, 0, m)
	evaluate := func() {
		// The incremental path state already holds the utility of the
		// chosen speech; charge the counter the speech's join size.
		u := e.path.u
		e.JoinedRows += e.path.post
		stats.SpeechesEvaluated++
		if u > bestU {
			bestU = u
			best = append(best[:0], chosen...)
		}
		if u > b {
			b = u
		}
	}

	// Depth-first enumeration over combinations in the canonical
	// decreasing-utility order. pos indexes into order; sumU carries the
	// upper bound S.U (sum of single-fact utilities of selected facts,
	// Lemma 2).
	var dfs func(pos int, sumU float64)
	timedOut := false
	cancelled := false
	dfs = func(pos int, sumU float64) {
		if timedOut || cancelled {
			return
		}
		if stats.NodesExpanded%ctxCheckEvery == 0 {
			// Deadline before cancellation: an expired ctx deadline makes
			// ctx.Err() non-nil at the same instant, and it must count as
			// a timeout (best-so-far kept), not a cancellation.
			if !deadline.IsZero() && time.Now().After(deadline) {
				timedOut = true
				return
			}
			if watchCtx {
				switch ctx.Err() {
				case nil:
				case context.DeadlineExceeded:
					timedOut = true
					return
				default:
					cancelled = true
					return
				}
			}
		}
		if len(chosen) == m {
			evaluate()
			return
		}
		extended := false
		remaining := m - len(chosen) // slots left including the next fact
		base := sumU
		if pathBound {
			base = min(sumU, e.path.u+pathSlack)
		}
		for i := pos; i < len(order); i++ {
			fi := order[i]
			u := utils[fi]
			// Pruning rule 2: facts are in decreasing utility order, so
			// if even this fact cannot lift the bound to b, no later fact
			// can either — cut the whole subtree. The epsilon absorbs
			// floating-point drift between the bound (computed as a sum
			// of per-row gains) and b (computed as an error difference),
			// which could otherwise prune the optimum itself.
			if base+float64(remaining)*u < b-pruneEps {
				break
			}
			if domCnt[dom[fi]] > 0 {
				// An equal-signature fact is already on the path: fi's
				// marginal gain is exactly zero. Skip it (but keep
				// scanning later facts — this is a skip, not a bound cut).
				stats.DominatedSkipped++
				continue
			}
			stats.NodesExpanded++
			extended = true
			chosen = append(chosen, fi)
			domCnt[dom[fi]]++
			savedU, savedPost := e.path.u, e.path.post
			mark := e.path.push(e, fi)
			dfs(i+1, sumU+u)
			e.path.pop(mark, savedU, savedPost)
			domCnt[dom[fi]]--
			chosen = chosen[:len(chosen)-1]
			if timedOut || cancelled {
				return
			}
		}
		if !extended && len(chosen) > 0 {
			// No admissible extension: the partial speech is itself a
			// candidate ("up to m facts").
			evaluate()
		}
	}
	dfs(0, 0)

	// The empty speech is valid (utility 0) when nothing helps.
	if bestU < 0 {
		bestU = 0
		best = nil
	}

	residual := e.PriorError() - bestU
	out := Summary{
		FactIdx:       append([]int32(nil), best...),
		Utility:       bestU,
		PriorError:    e.PriorError(),
		ResidualError: residual,
	}
	for _, fi := range best {
		out.Facts = append(out.Facts, e.Facts()[fi].Clone())
	}
	stats.TimedOut = timedOut
	stats.Cancelled = cancelled
	stats.Elapsed = time.Since(start)
	stats.JoinedRows = e.JoinedRows - joined0
	out.Stats = stats
	return out
}
