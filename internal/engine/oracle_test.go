package engine_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cicero/internal/engine"
	"cicero/internal/relation"
	"cicero/internal/snapshot"
)

// lookupScan is the reference matcher: a linear scan over everything the
// view stores, keeping the candidates whose predicates are a subset of
// the query's, preferring more predicates, then the smaller canonical
// key. It shares no code with the index beyond Query's own methods, and
// doubles as the baseline of BenchmarkStoreLookup.
func lookupScan(v engine.StoreView, q engine.Query) (sp *engine.StoredSpeech, exact, ok bool) {
	bestShared, bestKey := -1, ""
	for _, cand := range v.Speeches() {
		if !cand.Query.SubsetOf(q) {
			continue
		}
		shared := len(cand.Query.Predicates)
		if shared < bestShared {
			continue
		}
		if key := cand.Query.Key(); shared > bestShared || key < bestKey {
			sp, bestShared, bestKey = cand, shared, key
		}
	}
	if sp == nil {
		return nil, false, false
	}
	return sp, bestShared == len(q.Canonical().Predicates), true
}

// checkAgainstScan runs one query through every accessor of the view and
// compares key, text, utility and the exact flag with the reference.
func checkAgainstScan(t *testing.T, name string, v engine.StoreView, q engine.Query) {
	t.Helper()
	want, wexact, wok := lookupScan(v, q)
	same := func(what string, got *engine.StoredSpeech, gok bool) {
		t.Helper()
		if gok != wok {
			t.Fatalf("%s: %s(%v) ok=%v, scan ok=%v", name, what, q, gok, wok)
		}
		if !gok {
			return
		}
		if got.Query.Key() != want.Query.Key() || got.Text != want.Text ||
			math.Float64bits(got.Utility) != math.Float64bits(want.Utility) {
			t.Fatalf("%s: %s(%v) served %q (%q, %v), scan %q (%q, %v)", name, what, q,
				got.Query.Key(), got.Text, got.Utility, want.Query.Key(), want.Text, want.Utility)
		}
	}
	got, gexact, gok := v.Match(q)
	same("Match", got, gok)
	if gexact != wexact {
		t.Fatalf("%s: Match(%v) exact=%v, scan exact=%v", name, q, gexact, wexact)
	}
	got, gok = v.Lookup(q)
	same("Lookup", got, gok)
	if got, gok = v.Exact(q); gok != (wok && wexact) {
		t.Fatalf("%s: Exact(%v) ok=%v, scan (ok=%v exact=%v)", name, q, gok, wok, wexact)
	} else if gok {
		same("Exact", got, true)
	}
}

// TestStoreLookupMatchesScan is the one lookup oracle: the index must
// agree with the reference scan on every stored key, every
// generalization level, unknown targets, contradicting predicates and
// the wide-query posting path — through both containers that stand on
// it, a frozen heap store and the snapshot Map over that store's bytes.
func TestStoreLookupMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cols := []string{"a", "b", "c", "d", "e", "f"}
	randPreds := func(n int) []engine.NamedPredicate {
		preds := make([]engine.NamedPredicate, n)
		for i, ci := range rng.Perm(len(cols))[:n] {
			preds[i] = engine.NamedPredicate{Column: cols[ci], Value: fmt.Sprintf("v%d", rng.Intn(3))}
		}
		return preds
	}
	// Target t holds an overall speech and 0–3 predicates per speech, so
	// every query over it matches at some level; target u has no overall
	// speech and at most two predicates, so contradicting queries miss.
	st := engine.NewStore()
	for i := 0; i < 300; i++ {
		st.Add(&engine.StoredSpeech{
			Query: engine.Query{Target: "t", Predicates: randPreds(rng.Intn(4))},
			Text:  fmt.Sprintf("t%d", i), Utility: float64(i) / 7,
		})
	}
	for i := 0; i < 40; i++ {
		st.Add(&engine.StoredSpeech{
			Query: engine.Query{Target: "u", Predicates: randPreds(1 + rng.Intn(2))},
			Text:  fmt.Sprintf("u%d", i), Utility: -float64(i),
		})
	}
	st.Freeze()

	b := relation.NewBuilder("oracle", relation.Schema{Dimensions: cols, Targets: []string{"t", "u"}})
	b.MustAddRow([]string{"v0", "v0", "v0", "v0", "v0", "v0"}, []float64{0, 0})
	rel := b.Freeze()
	var buf bytes.Buffer
	if err := snapshot.WriteTagged(&buf, st, rel, ""); err != nil {
		t.Fatal(err)
	}
	m, err := snapshot.MapBytes(buf.Bytes(), rel)
	if err != nil {
		t.Fatal(err)
	}

	noise := func(n int) []engine.NamedPredicate {
		preds := make([]engine.NamedPredicate, n)
		for i := range preds {
			preds[i] = engine.NamedPredicate{Column: fmt.Sprintf("w%03d", i), Value: "x"}
		}
		return preds
	}
	for name, v := range map[string]engine.StoreView{"heap": st, "map": m} {
		if v.Len() != st.Len() || !v.HasTarget("t") || !v.HasTarget("u") || v.HasTarget("nope") {
			t.Fatalf("%s: Len=%d HasTarget(t,u,nope)=%v,%v,%v", name, v.Len(),
				v.HasTarget("t"), v.HasTarget("u"), v.HasTarget("nope"))
		}
		for _, sp := range v.Speeches() {
			// The stored key itself, shuffled and with a duplicate: exact.
			q := sp.Query
			if n := len(q.Predicates); n > 0 {
				q.Predicates = append([]engine.NamedPredicate{q.Predicates[n-1]}, q.Predicates...)
			}
			checkAgainstScan(t, name, v, q)
			// One to three predicates no speech carries on top of it: the
			// speech, or a tie-broken sibling, as a generalization.
			for extra := 1; extra <= 3; extra++ {
				q := engine.Query{Target: sp.Query.Target,
					Predicates: append(noise(extra), sp.Query.Predicates...)}
				checkAgainstScan(t, name, v, q)
			}
		}
		for i := 0; i < 2000; i++ {
			target := "t"
			if i%4 == 0 {
				target = "u"
			}
			checkAgainstScan(t, name, v, engine.Query{Target: target, Predicates: randPreds(1 + rng.Intn(5))})
		}
		// Unknown target; predicates that contradict everything stored
		// for a target without an overall speech; that target bare.
		checkAgainstScan(t, name, v, engine.Query{Target: "nope"})
		checkAgainstScan(t, name, v, engine.Query{Target: "nope", Predicates: randPreds(2)})
		checkAgainstScan(t, name, v, engine.Query{Target: "u",
			Predicates: []engine.NamedPredicate{{Column: "a", Value: "v9"}, {Column: "b", Value: "v9"}}})
		if _, ok := v.Lookup(engine.Query{Target: "u"}); ok {
			t.Fatalf("%s: target u has no overall speech, bare lookup must miss", name)
		}
		// Wide queries overflow the enumeration budget (u stores at most
		// two predicates, t three) and take the posting path: matching,
		// tie-broken, falling back to t's overall speech, missing on u.
		for i := 0; i < 50; i++ {
			target, top := "t", 3
			if i%2 == 1 {
				target, top = "u", 2
			}
			q := engine.Query{Target: target, Predicates: append(noise(120), randPreds(rng.Intn(5))...)}
			if engine.EnumFits(len(q.Canonical().Predicates), top) {
				t.Fatal("wide query unexpectedly within the enumeration budget")
			}
			checkAgainstScan(t, name, v, q)
		}
	}
}
