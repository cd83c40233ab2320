package summarize

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/fact"
	"cicero/internal/relation"
	"cicero/internal/stats"
)

// This file keeps the plan search as it was before it was tabulated: maps
// for the "left" set and the source set, Pr(P_{s→t}) re-derived through
// erfc at every use, every candidate plan materialized and then costed
// from scratch. It is the reference TestPlannerMatchesReference holds
// OptPrune and NaivePlan to, plan for plan and cost bit for cost bit.

// refPlanContext caches the per-group statistics the cost model needs:
// M(g), the number of facts per group (the paper estimates it from query
// optimizer statistics; our engine knows it exactly, which only makes
// the estimate of the same quantity sharper).
type refPlanContext struct {
	e     *Evaluator
	m     []int   // M(g) per group
	byM   []int   // group indices sorted by ascending M(g)
	nRows float64 // rows in the view
}

func newRefPlanContext(e *Evaluator) *refPlanContext {
	groups := e.Groups()
	ctx := &refPlanContext{e: e, nRows: float64(e.NumRows())}
	ctx.m = make([]int, len(groups))
	for i := range groups {
		ctx.m[i] = len(groups[i].Facts)
	}
	ctx.byM = make([]int, len(groups))
	for i := range ctx.byM {
		ctx.byM[i] = i
	}
	sort.SliceStable(ctx.byM, func(a, b int) bool {
		return ctx.m[ctx.byM[a]] < ctx.m[ctx.byM[b]]
	})
	return ctx
}

// costUtility is CU(g): the estimated cost of computing utility for every
// fact of group g, a join pairing rows with in-scope facts.
func (ctx *refPlanContext) costUtility(gi int) float64 {
	return planJoinCost * (ctx.nRows + float64(ctx.m[gi]))
}

// costBound is CD(g): the estimated cost of the deviation group-by that
// produces the group's pruning bound.
func (ctx *refPlanContext) costBound(gi int) float64 {
	return planGroupCost * (ctx.nRows + float64(ctx.m[gi]))
}

// probSourceBeatsTarget is Pr(P_{s→t}): the probability that the maximal
// source gain exceeds the target bound. Per-fact utility is modeled as a
// sum of i.i.d. per-row contributions; with rows spread uniformly over
// value combinations, the per-fact mean is inversely proportional to the
// group's fact count, and both sides share variance σ² (Section VI-C).
func (ctx *refPlanContext) probSourceBeatsTarget(si, ti int) float64 {
	muS := 1 / float64(max(1, ctx.m[si]))
	muT := 1 / float64(max(1, ctx.m[ti]))
	return stats.ProbGreater(muS, muT, planSigma)
}

// probPruned is Pr(P_t) for a target given the source set: one minus the
// probability that no source dominates it (independence assumption).
func (ctx *refPlanContext) probPruned(source []int, ti int) float64 {
	notPruned := 1.0
	for _, si := range source {
		notPruned *= 1 - ctx.probSourceBeatsTarget(si, ti)
	}
	return 1 - notPruned
}

// probSurvives is Pr(¬P_g): the probability that group g survives all
// pruning attempts, i.e. no chosen target that generalizes g is pruned.
func (ctx *refPlanContext) probSurvives(plan Plan, gi int) float64 {
	groups := ctx.e.Groups()
	p := 1.0
	for _, ti := range plan.Targets {
		if !dimsSubset(groups[ti].Dims, groups[gi].Dims) {
			continue
		}
		for _, si := range plan.Source {
			p *= 1 - ctx.probSourceBeatsTarget(si, ti)
		}
	}
	return p
}

// planCost estimates the total data-processing cost of a pruning plan
// per the Section VI-C model: source utility scans, target bound
// computations, and the expected cost of scanning unpruned groups.
func (ctx *refPlanContext) planCost(plan Plan) float64 {
	inSource := make(map[int]bool, len(plan.Source))
	cost := 0.0
	for _, si := range plan.Source {
		cost += ctx.costUtility(si)
		inSource[si] = true
	}
	for _, ti := range plan.Targets {
		cost += ctx.costBound(ti)
	}
	for gi := range ctx.e.Groups() {
		if inSource[gi] {
			continue
		}
		cost += ctx.probSurvives(plan, gi) * ctx.costUtility(gi)
	}
	return cost
}

// heuristicValue is H(t, S, L): the expected number of fact groups
// removed by pruning target t — its pruning probability times the number
// of groups in L it generalizes (Section VI-D).
func (ctx *refPlanContext) heuristicValue(ti int, source []int, left map[int]bool) float64 {
	groups := ctx.e.Groups()
	covered := 0
	for gi := range left {
		if dimsSubset(groups[ti].Dims, groups[gi].Dims) {
			covered++
		}
	}
	return ctx.probPruned(source, ti) * float64(covered)
}

// refCandidatePlans implements Algorithm 4. Pruning sources are prefixes of
// the groups sorted by ascending fact count (groups with few facts have
// the highest expected per-fact utility); for each source, targets are
// added greedily by the H heuristic, with every intermediate target set
// emitted as a candidate. The full-scan plan (all groups as source, no
// targets) is always a candidate, so the optimizer can fall back to base
// greedy when pruning cannot pay off.
func refCandidatePlans(ctx *refPlanContext) []Plan {
	groups := ctx.e.Groups()
	var plans []Plan
	for prefix := 1; prefix <= len(ctx.byM); prefix++ {
		source := append([]int(nil), ctx.byM[:prefix]...)
		if prefix == len(ctx.byM) {
			plans = append(plans, Plan{Source: source})
			break
		}
		left := make(map[int]bool)
		for _, gi := range ctx.byM[prefix:] {
			left[gi] = true
		}
		var targets []int
		for len(left) > 0 {
			bestT, bestH := -1, -1.0
			for gi := range left {
				if h := ctx.heuristicValue(gi, source, left); h > bestH || (h == bestH && (bestT < 0 || gi < bestT)) {
					bestH, bestT = h, gi
				}
			}
			targets = append(targets, bestT)
			plans = append(plans, Plan{
				Source:  source,
				Targets: append([]int(nil), targets...),
			})
			for gi := range left {
				if dimsSubset(groups[bestT].Dims, groups[gi].Dims) {
					delete(left, gi)
				}
			}
		}
	}
	return plans
}

// OptPrune selects the minimum-cost pruning plan among Algorithm 4's
// candidates (the OPT_PRUNE function of Algorithm 3). This is the G-O
// strategy of the paper's experiments.
func refOptPrune(e *Evaluator) Plan {
	ctx := newRefPlanContext(e)
	plans := refCandidatePlans(ctx)
	best := plans[0]
	bestCost := ctx.planCost(best)
	for _, p := range plans[1:] {
		if c := ctx.planCost(p); c < bestCost {
			best, bestCost = p, c
		}
	}
	return best
}

// NaivePlan is the G-P strategy: the smallest group (by fact count) is
// the only pruning source and every remaining group is a pruning target,
// in the order Algorithm 4 considers them. No cost-based selection
// happens, which the paper shows can even increase overheads.
func refNaivePlan(e *Evaluator) Plan {
	ctx := newRefPlanContext(e)
	if len(ctx.byM) == 0 {
		return Plan{}
	}
	source := []int{ctx.byM[0]}
	left := make(map[int]bool)
	for _, gi := range ctx.byM[1:] {
		left[gi] = true
	}
	var targets []int
	groups := e.Groups()
	for len(left) > 0 {
		bestT, bestH := -1, -1.0
		for gi := range left {
			if h := ctx.heuristicValue(gi, source, left); h > bestH || (h == bestH && (bestT < 0 || gi < bestT)) {
				bestH, bestT = h, gi
			}
		}
		targets = append(targets, bestT)
		for gi := range left {
			if dimsSubset(groups[bestT].Dims, groups[gi].Dims) {
				delete(left, gi)
			}
		}
	}
	return Plan{Source: source, Targets: targets}
}

// eachDatasetProblem builds, without package engine (which imports this
// one), the evaluator of every problem the default configuration spans
// over rel at MaxQueryLen 2: every target, every set of up to two
// predicate columns, every value combination, facts over up to two of
// the remaining columns.
func eachDatasetProblem(rel *relation.Relation, fn func(e *Evaluator)) {
	dims := make([]int, rel.NumDims())
	for i := range dims {
		dims[i] = i
	}
	full := rel.FullView()
	e := new(Evaluator)
	for target := 0; target < rel.NumTargets(); target++ {
		prior := fact.MeanPrior(full, target)
		for _, querySet := range fact.DimSubsets(dims, 2) {
			var free []int
			for _, d := range dims {
				if !slices.Contains(querySet, d) {
					free = append(free, d)
				}
			}
			for _, view := range full.Partition(querySet) {
				facts := fact.Generate(view, target, fact.GenerateOptions{MaxDims: 2, FreeDims: free})
				e.Reset(view, target, facts, prior)
				fn(e)
			}
		}
	}
}

// TestPlannerMatchesReference holds the tabulated plan search to the one
// it replaced, on every problem of flights and acs at MaxQueryLen 2: the
// same candidate plans in the same order, each at the bit-identical
// estimated cost, and therefore the same OptPrune and NaivePlan.
func TestPlannerMatchesReference(t *testing.T) {
	for _, rel := range []*relation.Relation{dataset.Flights(3000, 1), dataset.ACS(3000, 1)} {
		problems := 0
		eachDatasetProblem(rel, func(e *Evaluator) {
			problems++
			ref := newRefPlanContext(e)
			want := refCandidatePlans(ref)
			i := 0
			newPlanContext(e).candidates(func(p Plan, cost float64) bool {
				if i >= len(want) {
					t.Fatalf("%s problem %d: more than the reference's %d candidates", rel.Name(), problems, len(want))
				}
				if !slices.Equal(p.Source, want[i].Source) || !slices.Equal(p.Targets, want[i].Targets) {
					t.Fatalf("%s problem %d candidate %d: %+v, reference %+v", rel.Name(), problems, i, p, want[i])
				}
				if wc := ref.planCost(want[i]); math.Float64bits(cost) != math.Float64bits(wc) {
					t.Fatalf("%s problem %d candidate %d: cost %v, reference %v", rel.Name(), problems, i, cost, wc)
				}
				i++
				return true
			})
			if i != len(want) {
				t.Fatalf("%s problem %d: %d candidates, reference has %d", rel.Name(), problems, i, len(want))
			}
			if got, want := OptPrune(e), refOptPrune(e); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s problem %d: OptPrune %+v, reference %+v", rel.Name(), problems, got, want)
			}
			if got, want := NaivePlan(e), refNaivePlan(e); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s problem %d: NaivePlan %+v, reference %+v", rel.Name(), problems, got, want)
			}
		})
		if problems < 200 {
			t.Errorf("%s: only %d problems enumerated", rel.Name(), problems)
		}
	}
}
