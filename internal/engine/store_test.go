package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// mkSpeech builds a stored speech for target t with the given predicates.
func mkSpeech(t string, text string, preds ...NamedPredicate) *StoredSpeech {
	return &StoredSpeech{Query: Query{Target: t, Predicates: preds}, Text: text}
}

func TestStoreIndexExactHit(t *testing.T) {
	st := NewStore()
	st.Add(mkSpeech("t", "winter-aa",
		NamedPredicate{"season", "Winter"}, NamedPredicate{"airline", "AA"}))
	st.Add(mkSpeech("t", "winter", NamedPredicate{"season", "Winter"}))

	// Exact hits win regardless of predicate order in the incoming query.
	q := Query{Target: "t", Predicates: []NamedPredicate{
		{"season", "Winter"}, {"airline", "AA"},
	}}
	sp, ok := st.Lookup(q)
	if !ok || sp.Text != "winter-aa" {
		t.Fatalf("Lookup = %+v, %v; want exact winter-aa", sp, ok)
	}
	// Predicate conjunctions are sets: a duplicated predicate does not
	// change the query's identity, so this is still an exact match.
	dup := Query{Target: "t", Predicates: []NamedPredicate{
		{"airline", "AA"}, {"season", "Winter"}, {"airline", "AA"},
	}}
	if sp, exact, ok := st.Match(dup); !ok || !exact || sp.Text != "winter-aa" {
		t.Fatalf("Match(dup) = %+v exact=%v ok=%v; want exact winter-aa", sp, exact, ok)
	}
}

func TestStoreIndexNearestGeneralizationTieBreak(t *testing.T) {
	st := NewStore()
	st.Add(mkSpeech("t", "overall"))
	st.Add(mkSpeech("t", "by-season", NamedPredicate{"season", "Winter"}))
	st.Add(mkSpeech("t", "by-airline", NamedPredicate{"airline", "AA"}))

	// Both one-predicate speeches generalize the query; the tie breaks to
	// the smaller canonical key ("t|airline=AA" < "t|season=Winter").
	q := Query{Target: "t", Predicates: []NamedPredicate{
		{"season", "Winter"}, {"airline", "AA"}, {"time_of_day", "morning"},
	}}
	sp, ok := st.Lookup(q)
	if !ok || sp.Text != "by-airline" {
		t.Fatalf("tie-break Lookup = %+v, %v; want by-airline", sp, ok)
	}
}

func TestStoreIndexMiss(t *testing.T) {
	st := NewStore()
	st.Add(mkSpeech("t", "winter", NamedPredicate{"season", "Winter"}))

	// No zero-predicate speech and no containing generalization: the
	// boolean is false even though the target has speeches.
	q := Query{Target: "t", Predicates: []NamedPredicate{{"airline", "AA"}}}
	if sp, ok := st.Lookup(q); ok {
		t.Fatalf("Lookup = %+v; want miss", sp)
	}
	if !st.HasTarget("t") {
		t.Error("HasTarget(t) must remain true on a lookup miss")
	}
	if st.HasTarget("nope") {
		t.Error("HasTarget(nope) = true")
	}
	if _, ok := st.Lookup(Query{Target: "nope"}); ok {
		t.Error("unknown target must miss")
	}
}

func TestStoreAddReplaceKeepsIndex(t *testing.T) {
	st := NewStore()
	st.Add(mkSpeech("t", "first", NamedPredicate{"season", "Winter"}))
	st.Add(mkSpeech("t", "second", NamedPredicate{"season", "Winter"}))
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st.Len())
	}
	// The generalization index must serve the replacement, not the
	// original, for non-exact queries.
	q := Query{Target: "t", Predicates: []NamedPredicate{
		{"season", "Winter"}, {"airline", "AA"},
	}}
	sp, ok := st.Lookup(q)
	if !ok || sp.Text != "second" {
		t.Fatalf("Lookup after replace = %+v, %v; want second", sp, ok)
	}
}

func TestStoreFrozenAddPanics(t *testing.T) {
	st := NewStore()
	st.Add(mkSpeech("t", "x"))
	st.Freeze()
	if !st.Frozen() {
		t.Fatal("store should report frozen")
	}
	defer func() {
		if recover() == nil {
			t.Error("Add on a frozen store must panic")
		}
	}()
	st.Add(mkSpeech("t", "y"))
}

// TestStoreConcurrentLookup exercises concurrent lookups against a frozen
// store; run with -race to verify immutability end to end.
func TestStoreConcurrentLookup(t *testing.T) {
	st := NewStore()
	for i := 0; i < 64; i++ {
		st.Add(mkSpeech("t", fmt.Sprintf("s%d", i),
			NamedPredicate{"a", fmt.Sprintf("v%d", i%8)},
			NamedPredicate{"b", fmt.Sprintf("v%d", i/8)}))
	}
	st.Add(mkSpeech("t", "overall"))
	st.Freeze()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				q := Query{Target: "t", Predicates: []NamedPredicate{
					{"a", fmt.Sprintf("v%d", rng.Intn(10))},
					{"b", fmt.Sprintf("v%d", rng.Intn(10))},
					{"c", "noise"},
				}}
				if _, ok := st.Lookup(q); !ok {
					panic("overall speech must always match")
				}
			}
		}(int64(w))
	}
	wg.Wait()
}
