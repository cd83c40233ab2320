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
func DimSubsets(dims []int, maxSize int) [][]int {
	if maxSize > len(dims) {
		maxSize = len(dims)
	}
	var out [][]int
	for size := 0; size <= maxSize; size++ {
		out = append(out, combinations(dims, size)...)
	}
	return out
}

// combinations returns all size-k subsets of dims in lexicographic order.
func combinations(dims []int, k int) [][]int {
	if k == 0 {
		return [][]int{{}}
	}
	if k > len(dims) {
		return nil
	}
	var out [][]int
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		combo := make([]int, k)
		for i, j := range idx {
			combo[i] = dims[j]
		}
		out = append(out, combo)
		// Advance to the next combination.
		i := k - 1
		for i >= 0 && idx[i] == len(dims)-k+i {
			i--
		}
		if i < 0 {
			return out
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
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
func Generate(v *relation.View, target int, opts GenerateOptions) []Fact {
	free := opts.FreeDims
	if free == nil {
		free = make([]int, v.Rel.NumDims())
		for i := range free {
			free[i] = i
		}
	}
	subsets := DimSubsets(free, opts.MaxDims)
	grouped := make([][]relation.Group, len(subsets))
	total := 0
	for i, dims := range subsets {
		grouped[i] = v.GroupBy(dims, target)
		total += len(grouped[i])
	}
	out := make([]Fact, 0, total)
	for i, dims := range subsets {
		// A scope's dimensions ascend. When dims already does — always,
		// unless FreeDims came unsorted — the group's facts share it and
		// take the group-by's codes as they are; otherwise NewScope sorts
		// a copy per fact.
		shared := slices.IsSorted(dims)
		if shared {
			checkDistinct(dims)
		}
		for _, g := range grouped[i] {
			if g.Count < opts.MinRows || g.Count == 0 {
				continue
			}
			scope := Scope{Dims: dims, Codes: g.Key.Codes}
			if !shared {
				scope = NewScope(dims, g.Key.Codes)
			}
			out = append(out, Fact{Scope: scope, Value: g.Mean()})
		}
	}
	return out
}

// CountFacts returns the number of facts Generate would produce without
// materializing them, used by the planner's statistics.
func CountFacts(v *relation.View, opts GenerateOptions) int {
	free := opts.FreeDims
	if free == nil {
		free = make([]int, v.Rel.NumDims())
		for i := range free {
			free[i] = i
		}
	}
	total := 0
	for _, dims := range DimSubsets(free, opts.MaxDims) {
		total += len(v.DistinctCombinations(dims))
	}
	return total
}
