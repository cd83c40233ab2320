package engine

// StoreView is the read-only accessor surface of a frozen speech store —
// the contract the serving stack (serve.Answerer, the HTTP tier, the
// facade) depends on, decoupling it from how the speeches are laid out
// in memory. Two containers implement it over the one Index: *Store,
// the mutable-then-frozen heap structure built by pre-processing, and
// snapshot.Map, whose speeches are zero-copy views into an mmapped
// snapshot artifact. Both hand their speeches to NewIndex and delegate
// every method here to it, so they cannot disagree on a match or a
// tie-break.
//
// Every implementation must be safe for concurrent use once serving
// begins.
type StoreView interface {
	// Exact returns the speech pre-generated for precisely this query.
	Exact(q Query) (*StoredSpeech, bool)
	// Lookup returns the best speech for the query: the exact match, or
	// the most specific containing generalization.
	Lookup(q Query) (*StoredSpeech, bool)
	// Match is Lookup plus match metadata: exact reports whether the
	// served speech describes the query's own data subset.
	Match(q Query) (sp *StoredSpeech, exact, ok bool)
	// Speeches returns all stored speeches in canonical-key order.
	Speeches() []*StoredSpeech
	// HasTarget reports whether any speech exists for the target column.
	HasTarget(target string) bool
	// Len returns the number of stored speeches.
	Len() int
}

// Sealable is implemented by store views that distinguish a mutable
// build phase from frozen serving (the heap *Store). The serving layer
// seals any store it is handed; views that are frozen by construction
// (snapshot.Map) simply do not implement it.
type Sealable interface {
	Freeze() *Store
}

// Seal freezes the view when it distinguishes build from serve phases;
// immutable-by-construction views pass through untouched.
func Seal(v StoreView) StoreView {
	if s, ok := v.(Sealable); ok {
		s.Freeze()
	}
	return v
}
