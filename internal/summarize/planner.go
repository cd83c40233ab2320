package summarize

import (
	"math"
	"math/bits"
	"slices"

	"cicero/internal/stats"
)

// Plan is a pruning strategy: utility is computed for all facts of the
// Source groups first, then the Targets (in order) are tested against the
// best source gain via deviation bounds; surviving groups are scanned
// exactly (Algorithm 3).
type Plan struct {
	Source  []int // group indices whose facts are scanned first
	Targets []int // group indices to try pruning, in order
}

// planContext holds what the plan search of one problem reads: M(g), the
// number of facts per group (the paper estimates it from query optimizer
// statistics; our engine knows it exactly, which only makes the estimate
// of the same quantity sharper), and — since the search asks the same
// few questions of the same few groups over and over — their answers
// tabulated: the two per-group cost terms, Pr(P_{s→t}) per pair of
// groups, and per group the set of groups it generalizes.
type planContext struct {
	m   []int // M(g) per group
	byM []int // group indices sorted by ascending M(g)

	sigma float64
	cu    []float64 // CU(g), the cost of a utility scan of the group
	cb    []float64 // CD(g), the cost of the group's bound computation
	beats []float64 // Pr(P_{s→t}) at [s*len(m)+t]; negative until first asked for

	// spec holds one bitset of words words per group: bit g of group t's
	// set says t generalizes g (t's dimensions are a subset of g's), so
	// pruning t removes g.
	words int
	spec  []uint64
}

func newPlanContext(e *Evaluator, opts Options) *planContext {
	opts = opts.withDefaults()
	groups := e.Groups()
	ng := len(groups)
	nRows := float64(e.NumRows())
	ctx := &planContext{
		m:     make([]int, ng),
		byM:   make([]int, ng),
		sigma: opts.Sigma,
		cu:    make([]float64, ng),
		cb:    make([]float64, ng),
		beats: make([]float64, ng*ng),
		words: (ng + 63) / 64,
	}
	for i := range groups {
		ctx.m[i] = len(groups[i].Facts)
		ctx.byM[i] = i
		// CU(g) is a join pairing rows with in-scope facts, CD(g) the
		// deviation group-by that produces the group's pruning bound.
		ctx.cu[i] = opts.JoinCost * (nRows + float64(ctx.m[i]))
		ctx.cb[i] = opts.GroupCost * (nRows + float64(ctx.m[i]))
	}
	slices.SortStableFunc(ctx.byM, func(a, b int) int { return ctx.m[a] - ctx.m[b] })
	for i := range ctx.beats {
		ctx.beats[i] = -1
	}
	ctx.spec = make([]uint64, ng*ctx.words)
	for t := range groups {
		set := ctx.specializations(t)
		for g := range groups {
			if dimsSubset(groups[t].Dims, groups[g].Dims) {
				set[g/64] |= 1 << (g % 64)
			}
		}
	}
	return ctx
}

// specializations returns the bitset of groups that group t generalizes.
func (ctx *planContext) specializations(t int) []uint64 {
	return ctx.spec[t*ctx.words : (t+1)*ctx.words]
}

// beat is Pr(P_{s→t}): the probability that the maximal source gain
// exceeds the target bound. Per-fact utility is modeled as a sum of
// i.i.d. per-row contributions; with rows spread uniformly over value
// combinations, the per-fact mean is inversely proportional to the
// group's fact count, and both sides share variance σ² (Section VI-C).
func (ctx *planContext) beat(si, ti int) float64 {
	p := &ctx.beats[si*len(ctx.m)+ti]
	if *p < 0 {
		muS := 1 / float64(max(1, ctx.m[si]))
		muT := 1 / float64(max(1, ctx.m[ti]))
		*p = stats.ProbGreater(muS, muT, ctx.sigma)
	}
	return *p
}

// candidates walks Algorithm 4's candidate plans in its order and hands
// each, with its estimated cost, to visit, until visit returns false.
// Pruning sources are prefixes of the groups sorted by ascending fact
// count (groups with few facts have the highest expected per-fact
// utility); for each source, targets are added greedily by the H
// heuristic — H(t, S, L), the expected number of fact groups removed by
// pruning target t: its pruning probability times the number of groups
// in L it generalizes (Section VI-D) — with every intermediate target
// set a candidate. The full-scan plan (all groups as source, no targets)
// is always the last candidate, so the optimizer can fall back to base
// greedy when pruning cannot pay off.
//
// The cost is the Section VI-C estimate: source utility scans, target
// bound computations, and for every other group its utility scan
// weighted by Pr(¬P_g), the probability that no chosen target that
// generalizes it is pruned (independence assumption). Consecutive
// candidates differ by one source or one target, so the products and
// sums behind H and the cost are carried from one candidate to the next
// — each extended by exactly the factors a from-scratch evaluation would
// multiply in next, in the same order, so no estimate moves by a bit.
//
// The plan handed to visit aliases the walk's buffers; copy what is kept.
func (ctx *planContext) candidates(visit func(p Plan, cost float64) bool) {
	ng := len(ctx.m)
	notPruned := make([]float64, ng) // Π over the source of 1 − Pr(P_{s→t}), per target t
	survives := make([]float64, ng)  // Pr(¬P_g) under the current plan
	inSource := make([]bool, ng)
	left := make([]uint64, ctx.words)
	targets := make([]int, 0, ng)
	for i := range notPruned {
		notPruned[i] = 1
	}
	sourceCost := 0.0
	for prefix := 1; prefix <= ng; prefix++ {
		source := ctx.byM[:prefix]
		s := source[prefix-1]
		inSource[s] = true
		sourceCost += ctx.cu[s]
		if prefix == ng {
			visit(Plan{Source: source}, sourceCost)
			return
		}
		clear(left)
		for _, gi := range ctx.byM[prefix:] {
			notPruned[gi] *= 1 - ctx.beat(s, gi)
			left[gi/64] |= 1 << (gi % 64)
		}
		for i := range survives {
			survives[i] = 1
		}
		targets = targets[:0]
		boundCost := sourceCost
		for {
			// Ascending index order with a strict comparison breaks ties
			// of H toward the smallest group index.
			bestT, bestH := -1, -1.0
			for w, word := range left {
				for ; word != 0; word &= word - 1 {
					gi := w*64 + bits.TrailingZeros64(word)
					covered := 0
					for k, sw := range ctx.specializations(gi) {
						covered += bits.OnesCount64(sw & left[k])
					}
					if h := (1 - notPruned[gi]) * float64(covered); h > bestH {
						bestH, bestT = h, gi
					}
				}
			}
			if bestT < 0 {
				break
			}
			targets = append(targets, bestT)
			boundCost += ctx.cb[bestT]
			for w, word := range ctx.specializations(bestT) {
				left[w] &^= word
				for ; word != 0; word &= word - 1 {
					gi := w*64 + bits.TrailingZeros64(word)
					for _, si := range source {
						survives[gi] *= 1 - ctx.beat(si, bestT)
					}
				}
			}
			cost := boundCost
			for gi, p := range survives {
				if !inSource[gi] {
					cost += p * ctx.cu[gi]
				}
			}
			if !visit(Plan{Source: source, Targets: targets}, cost) {
				return
			}
		}
	}
}

// clonePlan copies a plan out of the walk's buffers.
func clonePlan(p Plan) Plan {
	return Plan{Source: slices.Clone(p.Source), Targets: slices.Clone(p.Targets)}
}

// OptPrune selects the minimum-cost pruning plan among Algorithm 4's
// candidates (the OPT_PRUNE function of Algorithm 3), the first of them
// on a tie. This is the G-O strategy of the paper's experiments. Unset
// cost-model fields of opts take the package defaults.
func OptPrune(e *Evaluator, opts Options) Plan {
	var best Plan
	bestCost := math.Inf(1)
	newPlanContext(e, opts).candidates(func(p Plan, cost float64) bool {
		if cost < bestCost {
			best, bestCost = clonePlan(p), cost
		}
		return true
	})
	return best
}

// NaivePlan is the G-P strategy: the smallest group (by fact count) is
// the only pruning source and every remaining group is a pruning target,
// in the order Algorithm 4 considers them. No cost-based selection
// happens, which the paper shows can even increase overheads.
func NaivePlan(e *Evaluator, opts Options) Plan {
	var last Plan
	newPlanContext(e, opts).candidates(func(p Plan, _ float64) bool {
		if len(p.Source) > 1 {
			return false
		}
		last = clonePlan(p)
		return true
	})
	return last
}
