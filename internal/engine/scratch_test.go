package engine

import (
	"fmt"
	"testing"
)

// wideStore builds a store whose target holds one- and two-predicate
// speeches plus an overall, and a canonical query wide enough that
// Match must take the posting-intersection path.
func wideStore(t *testing.T) (*Store, Query) {
	t.Helper()
	st := NewStore()
	st.Add(mkSpeech("t", "overall"))
	for i := 0; i < 24; i++ {
		st.Add(mkSpeech("t", fmt.Sprintf("s%d", i),
			NamedPredicate{fmt.Sprintf("c%02d", i%8), fmt.Sprintf("v%d", i/8)}))
	}
	// Three-predicate speeches raise the target's maxPreds so that a wide
	// query overflows the C(n, 3) enumeration budget.
	for i := 0; i < 8; i++ {
		st.Add(mkSpeech("t", fmt.Sprintf("t%d", i),
			NamedPredicate{"c00", fmt.Sprintf("u%d", i)},
			NamedPredicate{"c01", fmt.Sprintf("u%d", i)},
			NamedPredicate{"c02", fmt.Sprintf("u%d", i)}))
	}
	st.Freeze()

	q := Query{Target: "t"}
	for i := 0; i < 64; i++ {
		q.Predicates = append(q.Predicates,
			NamedPredicate{fmt.Sprintf("w%02d", i), "x"})
	}
	q.Predicates = append(q.Predicates, NamedPredicate{"c00", "v0"})
	q.Predicates = canonicalPreds(q.Predicates)
	ti := st.index().targets["t"]
	top := len(q.Predicates)
	if ti.maxPreds < top {
		top = ti.maxPreds
	}
	if enumFits(len(q.Predicates), top) {
		t.Fatal("wide query unexpectedly within the enumeration budget")
	}
	return st, q
}

// TestLookupPostingAllocFree pins the steady-state allocation profile of
// the wide-query fallback: after the pooled scratch warms up, a posting
// intersection allocates nothing per call.
func TestLookupPostingAllocFree(t *testing.T) {
	if raceEnabled {
		// The race detector makes sync.Pool drop a share of Puts, so the
		// pooled scratch is re-allocated; CI runs this test in a non-race
		// step of its own.
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	st, q := wideStore(t)
	x := st.index()
	ti := x.targets[q.Target]
	// Warm the pool (and build the lazy posting lists) outside the
	// measured region.
	if _, ok := x.lookupPosting(ti, q.Predicates); !ok {
		t.Fatal("posting lookup missed despite matching speech")
	}
	avg := testing.AllocsPerRun(200, func() {
		x.lookupPosting(ti, q.Predicates)
	})
	if avg > 0 {
		t.Errorf("lookupPosting allocates %.2f objects/op in steady state, want 0", avg)
	}
}

// TestPostScratchEpochWrap drives the epoch counter over its wrap point:
// the scratch must clear its stamps instead of treating stale epoch-0
// entries as touched.
func TestPostScratchEpochWrap(t *testing.T) {
	sc := &postScratch{}
	sc.reset(3)
	sc.stamp[1] = sc.epoch // touch a slot in the pre-wrap epoch
	sc.epoch = ^uint32(0)  // next reset increments and wraps to 0
	sc.reset(3)
	if sc.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", sc.epoch)
	}
	for i, s := range sc.stamp {
		if s == sc.epoch {
			t.Fatalf("stamp[%d] = %d collides with the post-wrap epoch", i, s)
		}
	}
}

// TestCanonicalPredsViewAliasing pins the zero-copy fast path: canonical
// input is returned as the same backing slice; non-canonical input is
// copied and the original left untouched.
func TestCanonicalPredsViewAliasing(t *testing.T) {
	sorted := []NamedPredicate{{"a", "1"}, {"a", "2"}, {"b", "1"}}
	if got := canonicalPredsView(sorted); &got[0] != &sorted[0] {
		t.Error("already-canonical input must be returned without copying")
	}
	unsorted := []NamedPredicate{{"b", "1"}, {"a", "2"}, {"a", "2"}}
	orig := append([]NamedPredicate(nil), unsorted...)
	got := canonicalPredsView(unsorted)
	if len(got) != 2 || got[0] != (NamedPredicate{"a", "2"}) || got[1] != (NamedPredicate{"b", "1"}) {
		t.Errorf("canonicalPredsView(unsorted) = %v", got)
	}
	for i := range unsorted {
		if unsorted[i] != orig[i] {
			t.Error("canonicalPredsView mutated its input")
		}
	}
	if &got[0] == &unsorted[0] {
		t.Error("non-canonical input must be copied, not sorted in place")
	}
}
