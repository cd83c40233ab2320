package fact

import (
	"fmt"
	"sort"
)

// Fact pairs a scope with a typical value: the average of the target
// column over all rows within scope (Definition 2).
type Fact struct {
	Scope Scope
	Value float64
}

// Clone returns a copy of the fact that shares no memory with f. Solvers
// return clones of the candidates they pick: the candidates of a problem
// cut their scopes from shared arrays (see Generate), and a stored
// speech must not keep those alive.
func (f Fact) Clone() Fact {
	return Fact{Scope: NewScope(f.Scope.Dims, f.Scope.Codes), Value: f.Value}
}

// String renders the fact for debugging; speech templates in the engine
// package produce the user-facing text.
func (f Fact) String() string {
	return fmt.Sprintf("Fact{%s: %.4g}", f.Scope.Key(), f.Value)
}

// Speech is a set of facts (Definition 3). Its cardinality is the speech
// length. Order carries no semantics for utility; it is kept for
// deterministic rendering.
type Speech struct {
	Facts []Fact
}

// Len returns the speech length (number of facts).
func (s Speech) Len() int { return len(s.Facts) }

// Canonical returns a copy with facts sorted by scope key then value, so
// speeches that contain the same fact set compare equal.
func (s Speech) Canonical() Speech {
	out := Speech{Facts: append([]Fact(nil), s.Facts...)}
	sort.Slice(out.Facts, func(i, j int) bool {
		ki, kj := out.Facts[i].Scope.Key(), out.Facts[j].Scope.Key()
		if ki != kj {
			return ki < kj
		}
		return out.Facts[i].Value < out.Facts[j].Value
	})
	return out
}

// Equal reports whether two speeches contain the same fact multiset.
func (s Speech) Equal(other Speech) bool {
	if len(s.Facts) != len(other.Facts) {
		return false
	}
	a, b := s.Canonical(), other.Canonical()
	for i := range a.Facts {
		if !a.Facts[i].Scope.Equal(b.Facts[i].Scope) || a.Facts[i].Value != b.Facts[i].Value {
			return false
		}
	}
	return true
}
