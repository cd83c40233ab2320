package summarize

import (
	"context"
	"slices"
	"sort"
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
// expanding an inner node folds one fact into the per-row deviation
// state (O(|scope of that fact|) with an undo log), and the last fact of
// a speech is scored read-only against that state — one pass over its
// posting list and the problem's row-distance column, writing nothing —
// instead of re-unioning the whole speech at every leaf. Nearly every
// node the search expands is such a leaf, and most leaves skip even that
// pass: utility is submodular (Theorem 3), so U(S∪{f}) ≤ U(S) + U({f}),
// and when that sum plus ExactSubmodularCtx's rounding slack is below
// the best speech found so far, the leaf can neither become the best
// speech nor raise b. Such a leaf is settled: counted as evaluate would
// count it, without the scan (Stats.LeavesSettled). The comparison is
// with the best speech, not with b: below the seed, a leaf between the
// two still becomes the best speech. Once a leaf settles, so does every
// later candidate of its loop up to rule 2's cut — utilities fall along
// the order and settling moves neither bound — so the loop's tail is
// settled at once: its leaves and dominated skips are counted in one
// step, from per-search prefix sums of posting lengths and per-class
// position lists, and the loop ends. The enumeration, the bound
// timeline and every counter are what scoring each leaf gives. The
// JoinedRows counter still charges each evaluated speech, scored or
// settled, the full join size of the paper's SQL formulation (see
// Evaluator).
//
// The run is bounded two ways: opts.Timeout and the context's deadline
// both become the enumeration deadline (whichever is earlier), returning
// the best speech found so far with Stats.TimedOut set; cancelling ctx
// aborts the enumeration and returns the best speech so far with
// Stats.Cancelled set. Both are polled each time the node count reaches
// a multiple of ctxCheckEvery: at the next node, or right after the
// settled tail that passed it, in which case the stopped run has counted
// that whole tail.
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
// NodesExpanded is never larger than ExactCtx's. ExactCtx settles its
// last-slot leaves by the same bound and slack, against its best speech;
// here the bound also cuts inner nodes, so the leaves it would settle
// are mostly never reached.
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
	tailPost, classStart, classPos := e.tailTables(order, dom)

	e.path.begin(e)
	chosen := make([]int32, 0, m)
	// evaluate counts a full speech of utility u whose join size is
	// joined, raises b to it, and reports whether it is the new best; the
	// caller then records the speech.
	evaluate := func(u float64, joined int64) bool {
		e.JoinedRows += joined
		stats.SpeechesEvaluated++
		if u > b {
			b = u
		}
		if u > bestU {
			bestU = u
			return true
		}
		return false
	}

	// stop polls the deadline and the context at the first call at or
	// past each multiple of ctxCheckEvery nodes — a settled tail adds
	// its nodes at once, so the count can pass a multiple between calls
	// — and records why the search must end. Deadline before
	// cancellation: an expired ctx deadline makes ctx.Err() non-nil at
	// the same instant, and it must count as a timeout (best-so-far
	// kept), not a cancellation.
	timedOut := false
	cancelled := false
	nextPoll := int64(0)
	stop := func() bool {
		if stats.NodesExpanded < nextPoll {
			return false
		}
		nextPoll = stats.NodesExpanded - stats.NodesExpanded%ctxCheckEvery + ctxCheckEvery
		if !deadline.IsZero() && time.Now().After(deadline) {
			timedOut = true
			return true
		}
		if watchCtx {
			switch ctx.Err() {
			case nil:
			case context.DeadlineExceeded:
				timedOut = true
				return true
			default:
				cancelled = true
				return true
			}
		}
		return false
	}

	// Depth-first enumeration over combinations in the canonical
	// decreasing-utility order. pos indexes into order; sumU carries the
	// upper bound S.U (sum of single-fact utilities of selected facts,
	// Lemma 2).
	var dfs func(pos int, sumU float64)
	dfs = func(pos int, sumU float64) {
		if timedOut || cancelled || stop() {
			return
		}
		if len(chosen) == m { // only the empty speech, when m is 0
			if evaluate(e.path.u, e.path.post) {
				best = best[:0]
			}
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
			if remaining == 1 {
				// The last slot: score the full speech read-only. This is
				// evaluate after push, with the same poll a child node
				// would make, minus the writes nothing would read.
				if stop() {
					return
				}
				if e.path.u+u+pathSlack < bestU {
					// Settled by submodularity, U(S∪{f}) ≤ U(S) + U({f}):
					// the speech scores below bestU ≤ b, so evaluate
					// would only count it. So would every later candidate
					// up to rule 2's cut at end: utilities fall along
					// order, rounded addition is monotone, and settling
					// moves neither bestU nor b. Each is a settled leaf
					// or, when its class is on the path, a dominated
					// skip; count them all without a scan, a leaf's join
					// size being path.post plus its posting length.
					end := i + 1 + sort.Search(len(order)-i-1, func(k int) bool {
						return base+utils[order[i+1+k]] < b-pruneEps
					})
					joined := tailPost[end] - tailPost[i]
					dominated := int64(0)
					for _, c := range chosen {
						pos := classPos[classStart[dom[c]]:classStart[dom[c]+1]]
						from, _ := slices.BinarySearch(pos, int32(i))
						to, _ := slices.BinarySearch(pos, int32(end))
						dominated += int64(to - from)
						joined -= int64(to-from) * int64(len(e.posting(int(c))))
					}
					cnt := int64(end-i) - dominated
					stats.NodesExpanded += cnt - 1 // fi's was counted above
					stats.SpeechesEvaluated += cnt
					stats.LeavesSettled += cnt
					stats.DominatedSkipped += dominated
					e.JoinedRows += cnt*e.path.post + joined
					if stop() {
						return
					}
					break
				}
				speechU, n := e.path.peek(e, fi)
				if evaluate(speechU, e.path.post+int64(n)) {
					best = append(append(best[:0], chosen...), fi)
				}
				continue
			}
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
			if evaluate(e.path.u, e.path.post) {
				best = append(best[:0], chosen...)
			}
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
