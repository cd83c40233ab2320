package fact

import (
	"fmt"
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
