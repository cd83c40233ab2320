package fact

import (
	"slices"

	"cicero/internal/relation"
)

// GenerateOptions controls candidate-fact enumeration for a data subset.
type GenerateOptions struct {
	// MaxDims bounds the number of dimension columns a fact may restrict
	// beyond the query predicates (the paper's default is two).
	MaxDims int
	// FreeDims lists the dimension column indices facts may restrict. If
	// nil, all dimensions of the relation are free. Query predicates fix
	// some dimensions; those are excluded by the problem generator.
	FreeDims []int
	// MinRows drops facts whose scope matches fewer rows of the view,
	// avoiding facts about near-empty subsets. Zero keeps every fact with
	// at least one row (a typical value is undefined on zero rows).
	MinRows int
}

// DimSubsets enumerates all subsets of dims with size in [0, maxSize], in
// deterministic order (by size, then lexicographic). This is the fact
// group lattice of Section VI-B: each subset identifies one fact group.
//
// The subsets are cut from one backing array, so the whole lattice costs
// three allocations however many subsets it has.
func DimSubsets(dims []int, maxSize int) [][]int {
	maxSize = min(maxSize, len(dims))
	if maxSize < 0 {
		return nil
	}
	count, width := 0, 0
	for k := 0; k <= maxSize; k++ {
		c := binomial(len(dims), k)
		count += c
		width += k * c
	}
	out := make([][]int, 0, count)
	flat := make([]int, 0, width)
	idx := make([]int, maxSize)
	for k := 0; k <= maxSize; k++ {
		// The size-k subsets in lexicographic order of their positions.
		for i := range idx[:k] {
			idx[i] = i
		}
		for {
			start := len(flat)
			for _, j := range idx[:k] {
				flat = append(flat, dims[j])
			}
			out = append(out, flat[start:len(flat):len(flat)])
			i := k - 1
			for i >= 0 && idx[i] == len(dims)-k+i {
				i--
			}
			if i < 0 {
				break
			}
			idx[i]++
			for j := i + 1; j < k; j++ {
				idx[j] = idx[j-1] + 1
			}
		}
	}
	return out
}

// binomial returns n choose k.
func binomial(n, k int) int {
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
	}
	return c
}

// Generate enumerates the candidate facts for summarizing the view: one
// fact per fact group (subset of free dimensions, up to MaxDims) and per
// value combination appearing in the view, with the typical value set to
// the average target value within scope (Section III). The empty scope
// yields the single "overall" fact. Facts are returned grouped in
// deterministic order: fact groups in DimSubsets order, and within a
// group in GroupBy's key order.
//
// The facts of one group share one Dims slice and cut their Codes from
// the group-by's single backing array, so a candidate set costs a few
// allocations per group rather than two per fact. Callers that keep a
// fact beyond the candidate set copy it (Fact.Clone) so that it does not
// pin the arrays of the facts that were not chosen.
//
// Generate is the one-target case of GenerateTargets.
func Generate(v *relation.View, target int, opts GenerateOptions) []Fact {
	return GenerateTargets(v, []int{target}, opts)[0]
}

// GenerateTargets enumerates the candidate facts of one view for several
// target columns at once: out[k] is exactly Generate(v, targets[k],
// opts), fact for fact and bit for bit. One group-by pass per fact group
// serves every target (a group's rows do not depend on the target), and
// the k-th target's facts share each group's Dims and Codes arrays with
// every other target's, so their scopes are equal position by position —
// what summarize.Evaluator.Retarget keeps its layout for.
func GenerateTargets(v *relation.View, targets []int, opts GenerateOptions) [][]Fact {
	free := opts.FreeDims
	if free == nil {
		free = make([]int, v.Rel.NumDims())
		for i := range free {
			free[i] = i
		}
	}
	type grouping struct {
		groups []relation.Group
		sums   []float64 // len(targets) per group, see GroupByTargets
	}
	subsets := DimSubsets(free, opts.MaxDims)
	grouped := make([]grouping, len(subsets))
	total := 0
	for i, dims := range subsets {
		grouped[i].groups, grouped[i].sums = v.GroupByTargets(dims, targets)
		total += len(grouped[i].groups)
	}
	nt := len(targets)
	facts := make([]Fact, nt*total)
	out := make([][]Fact, nt)
	for k := range out {
		out[k] = facts[k*total : k*total : (k+1)*total]
	}
	for i, dims := range subsets {
		// A scope's dimensions ascend. When dims already does — always,
		// unless FreeDims came unsorted — the group's facts share it and
		// take the group-by's codes as they are; otherwise NewScope sorts
		// a copy per fact.
		shared := slices.IsSorted(dims)
		if shared {
			checkDistinct(dims)
		}
		for g, grp := range grouped[i].groups {
			if grp.Count < opts.MinRows || grp.Count == 0 {
				continue
			}
			scope := Scope{Dims: dims, Codes: grp.Key.Codes}
			if !shared {
				scope = NewScope(dims, grp.Key.Codes)
			}
			for k := range out {
				mean := grouped[i].sums[g*nt+k] / float64(grp.Count)
				out[k] = append(out[k], Fact{Scope: scope, Value: mean})
			}
		}
	}
	return out
}
