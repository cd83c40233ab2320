package engine

import "cicero/internal/fact"

// StoredSpeech is one pre-generated speech answer.
type StoredSpeech struct {
	Query      Query
	Facts      []fact.Fact
	Utility    float64
	PriorError float64
	Text       string
}

// Store is the build-then-serve container of the pre-generated speeches.
// Add interns each query into its canonical key, replacing any speech
// already stored under it; Freeze sorts the speeches once, builds the
// Index that answers every read, and seals the store. A frozen store is
// immutable, so any number of goroutines may call Exact/Lookup/Speeches
// concurrently — the property the serving layer relies on for lock-free
// answering.
//
// Reads on a store that is not frozen yet build the index on demand and
// the next Add drops it, so a builder may interleave the two — from one
// goroutine.
type Store struct {
	// byKey holds the speeches while the store is being built; Freeze
	// hands them to the index and drops the map.
	byKey  map[string]*StoredSpeech
	idx    *Index
	frozen bool
}

// NewStore returns an empty speech store.
func NewStore() *Store {
	return &Store{byKey: make(map[string]*StoredSpeech)}
}

// Add inserts a speech, replacing any previous speech for the same query.
// The speech's query is interned into canonical predicate order. Add
// panics on a frozen store.
func (s *Store) Add(sp *StoredSpeech) {
	if s.frozen {
		panic("engine: Add on a frozen speech store")
	}
	sp.Query = sp.Query.Canonical()
	s.byKey[sp.Query.Key()] = sp
	s.idx = nil
}

// Freeze seals the store: further Add calls panic, and concurrent lookups
// are safe. Freezing a frozen store writes nothing, so the serving layer
// may re-seal a store other goroutines are reading. Freeze returns the
// store for chaining.
func (s *Store) Freeze() *Store {
	if !s.frozen {
		s.index()
		s.byKey = nil
		s.frozen = true
	}
	return s
}

// Frozen reports whether the store has been sealed.
func (s *Store) Frozen() bool { return s.frozen }

// index returns the lookup structure over the speeches added so far.
func (s *Store) index() *Index {
	if s.idx == nil {
		speeches := make([]*StoredSpeech, 0, len(s.byKey))
		for _, sp := range s.byKey {
			speeches = append(speeches, sp)
		}
		idx, err := NewIndex(speeches)
		if err != nil {
			panic("engine: " + err.Error()) // byKey cannot hold one key twice
		}
		s.idx = idx
	}
	return s.idx
}

// Len returns the number of stored speeches.
func (s *Store) Len() int {
	if s.frozen {
		return s.idx.Len()
	}
	return len(s.byKey)
}

// HasTarget reports whether any speech exists for the target column.
func (s *Store) HasTarget(target string) bool { return s.index().HasTarget(target) }

// Exact returns the speech pre-generated for precisely this query.
func (s *Store) Exact(q Query) (*StoredSpeech, bool) { return s.index().Exact(q) }

// Lookup returns the exact match or the most specific containing
// generalization; see Index.Lookup for the contract.
func (s *Store) Lookup(q Query) (*StoredSpeech, bool) { return s.index().Lookup(q) }

// Match is Lookup plus the exact flag; see Index.Match.
func (s *Store) Match(q Query) (sp *StoredSpeech, exact, ok bool) { return s.index().Match(q) }

// Speeches returns all stored speeches in canonical-key order; the slice
// is shared and must be treated as read-only.
func (s *Store) Speeches() []*StoredSpeech { return s.index().Speeches() }
