package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"cicero/internal/engine"
)

// buildBenchStore fills a store with n speeches for one target — the
// worst case for the pre-index matcher, which scanned every speech of the
// queried target. Predicate sets have 0–3 predicates drawn from a
// vocabulary wide enough that queries rarely hit exactly.
func buildBenchStore(n int) (*engine.Store, []engine.Query) {
	rng := rand.New(rand.NewSource(42))
	st := engine.NewStore()
	st.Add(&engine.StoredSpeech{Query: engine.Query{Target: "t"}, Text: "overall"})
	for st.Len() < n {
		preds := benchPreds(rng, 1+rng.Intn(3))
		st.Add(&engine.StoredSpeech{
			Query: engine.Query{Target: "t", Predicates: preds},
			Text:  "speech",
		})
	}
	st.Freeze()
	// Query mix: three predicates each, so most lookups resolve through
	// the generalization match rather than the exact map.
	queries := make([]engine.Query, 256)
	for i := range queries {
		queries[i] = engine.Query{Target: "t", Predicates: benchPreds(rng, 3)}
	}
	return st, queries
}

func benchPreds(rng *rand.Rand, k int) []engine.NamedPredicate {
	// 16 columns × 12 values support ~10^6 distinct predicate sets, so
	// the builder reaches 10^5 distinct speeches without stalling.
	cols := rng.Perm(16)[:k]
	preds := make([]engine.NamedPredicate, k)
	for i, c := range cols {
		preds[i] = engine.NamedPredicate{
			Column: fmt.Sprintf("c%02d", c),
			Value:  fmt.Sprintf("v%02d", rng.Intn(12)),
		}
	}
	return preds
}

// BenchmarkStoreLookupWide measures the posting-intersection fallback
// on queries too wide for subset enumeration. With the pooled dense
// scratch the steady state allocates only the canonical key of the
// exact-match probe.
func BenchmarkStoreLookupWide(b *testing.B) {
	st, _ := buildBenchStore(10_000)
	rng := rand.New(rand.NewSource(7))
	queries := make([]engine.Query, 64)
	for i := range queries {
		q := engine.Query{Target: "t"}
		for j := 0; j < 48; j++ {
			q.Predicates = append(q.Predicates,
				engine.NamedPredicate{Column: fmt.Sprintf("w%02d", j), Value: "x"})
		}
		q.Predicates = append(q.Predicates, benchPreds(rng, 2)...)
		queries[i] = q.Canonical()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.Lookup(queries[i%len(queries)]); !ok {
			b.Fatal("wide lookup missed despite overall speech")
		}
	}
}

// BenchmarkStoreLookup compares the indexed generalization match against
// the reference linear scan (lookupScan) as the store grows from 10^3 to 10^5
// speeches. The indexed path grows with log n (a handful of binary
// searches); the scan degrades linearly with the store.
func BenchmarkStoreLookup(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		st, queries := buildBenchStore(n)
		b.Run(fmt.Sprintf("n=%d/indexed", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := st.Lookup(queries[i%len(queries)]); !ok {
					b.Fatal("lookup missed despite overall speech")
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/linear-scan", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, ok := lookupScan(st, queries[i%len(queries)]); !ok {
					b.Fatal("scan missed despite overall speech")
				}
			}
		})
	}
}
