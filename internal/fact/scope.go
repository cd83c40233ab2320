// Package fact implements the problem model of Section II of the paper:
// facts with scopes and typical values, speeches (fact sets), user
// expectation models, priors, and the deviation/utility criterion that
// speech summarization optimizes.
//
// In the system's generate → evaluate → solve → serve flow this package
// is the shared vocabulary: the generate stage enumerates candidate
// Facts (Generate), the evaluate and solve stages score Speeches by the
// utility criterion defined here, and the stored speeches the serve
// stage answers from carry these Facts as their provenance.
package fact

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"cicero/internal/relation"
)

// Scope assigns values to a subset of dimension columns (Definition 2).
// Dims holds dimension column indices in strictly ascending order and
// Codes the corresponding dictionary codes. A row is within scope when it
// agrees with every (dim, code) pair.
type Scope struct {
	Dims  []int
	Codes []int32
}

// NewScope builds a scope from parallel dim/code slices, copying both and
// normalizing to ascending dimension order. It panics if the slices
// differ in length or a dimension repeats, since that indicates a
// programming error.
func NewScope(dims []int, codes []int32) Scope {
	if len(dims) != len(codes) {
		panic(fmt.Sprintf("fact: scope with %d dims but %d codes", len(dims), len(codes)))
	}
	s := Scope{
		Dims:  append([]int(nil), dims...),
		Codes: append([]int32(nil), codes...),
	}
	if !slices.IsSorted(s.Dims) {
		sort.Sort(scopeSorter{&s})
	}
	checkDistinct(s.Dims)
	return s
}

// checkDistinct panics if an ascending dimension list repeats an entry.
func checkDistinct(dims []int) {
	for i := 1; i < len(dims); i++ {
		if dims[i] == dims[i-1] {
			panic(fmt.Sprintf("fact: scope restricts dimension %d twice", dims[i]))
		}
	}
}

type scopeSorter struct{ s *Scope }

func (x scopeSorter) Len() int           { return len(x.s.Dims) }
func (x scopeSorter) Less(i, j int) bool { return x.s.Dims[i] < x.s.Dims[j] }
func (x scopeSorter) Swap(i, j int) {
	x.s.Dims[i], x.s.Dims[j] = x.s.Dims[j], x.s.Dims[i]
	x.s.Codes[i], x.s.Codes[j] = x.s.Codes[j], x.s.Codes[i]
}

// Len returns the number of restricted dimensions.
func (s Scope) Len() int { return len(s.Dims) }

// Matches reports whether relation row r is within scope (D ⊆ Dr).
func (s Scope) Matches(rel *relation.Relation, row int32) bool {
	for i, d := range s.Dims {
		if rel.Dim(d).CodeAt(int(row)) != s.Codes[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical string key identifying the scope, used for
// deduplication and map indexing.
func (s Scope) Key() string {
	var b strings.Builder
	for i, d := range s.Dims {
		if i > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "%d=%d", d, s.Codes[i])
	}
	return b.String()
}

// Equal reports whether two scopes restrict the same dimensions to the
// same values.
func (s Scope) Equal(other Scope) bool {
	if len(s.Dims) != len(other.Dims) {
		return false
	}
	for i := range s.Dims {
		if s.Dims[i] != other.Dims[i] || s.Codes[i] != other.Codes[i] {
			return false
		}
	}
	return true
}

// Predicates converts the scope into relation predicates.
func (s Scope) Predicates() []relation.Predicate {
	out := make([]relation.Predicate, len(s.Dims))
	for i := range s.Dims {
		out[i] = relation.Predicate{Dim: s.Dims[i], Code: s.Codes[i]}
	}
	return out
}
