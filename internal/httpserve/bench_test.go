package httpserve

import (
	"context"
	"fmt"
	"testing"

	"cicero/internal/serve"
)

// BenchmarkServeAnswer measures the serving tier's paths through
// Server.Answer: "miss" pays classification + store lookup on every
// request (cache disabled), "hit" is the sharded-LRU fast path the
// cache buys repeated queries, and "churn" is the insert-and-evict
// regime between them — eight times more distinct texts than the cache
// holds, so every request misses, inserts and evicts (the regime
// bench/'s serve_miss workload runs in). On a 2-vCPU linux/amd64 host
// (go1.24), `go test ./internal/httpserve/ -run '^$' -bench
// 'BenchmarkServeAnswer$' -benchmem -count 5` reads hit 0.56–0.68 µs
// (2 allocs), miss 2.0–2.7 µs (8 allocs) and churn 2.9–3.3 µs; a miss
// is a table-driven voice.Classify, a store match and a render, so it
// stays within a few times a hit.
func BenchmarkServeAnswer(b *testing.B) {
	rel := flightsRel()
	store := buildFlightsStore(b, rel, 1, "cancellation probability")
	a := serve.New(rel, store, flightsExtractor(rel), serve.Options{})
	ctx := context.Background()
	const text = "cancellations in Winter"

	b.Run("miss", func(b *testing.B) {
		s := New(a, Options{CacheEntries: -1})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.AnswerDataset(ctx, DefaultDataset, text); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		s := New(a, Options{})
		if _, err := s.AnswerDataset(ctx, DefaultDataset, text); err != nil { // prime
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := s.AnswerDataset(ctx, DefaultDataset, text)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Cached {
				b.Fatal("hit benchmark missed the cache")
			}
		}
	})
	b.Run("churn", func(b *testing.B) {
		s := New(a, Options{CacheEntries: 128})
		texts := make([]string, 1024)
		for i := range texts {
			texts[i] = fmt.Sprintf("cancellations in Winter %d", i)
		}
		for _, t := range texts { // fill, so the first measured insert already evicts
			if _, err := s.AnswerDataset(ctx, DefaultDataset, t); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := s.AnswerDataset(ctx, DefaultDataset, texts[i%len(texts)])
			if err != nil {
				b.Fatal(err)
			}
			if res.Cached {
				b.Fatal("churn benchmark hit the cache")
			}
		}
	})
}

// BenchmarkServeAnswerParallel drives the cached path from all procs —
// the shape heavy production traffic takes.
func BenchmarkServeAnswerParallel(b *testing.B) {
	rel := flightsRel()
	store := buildFlightsStore(b, rel, 1, "cancellation probability")
	a := serve.New(rel, store, flightsExtractor(rel), serve.Options{})
	s := New(a, Options{})
	ctx := context.Background()
	texts := make([]string, 8)
	for i := range texts {
		texts[i] = fmt.Sprintf("cancellations in Winter %d", i)
	}
	for _, t := range texts { // prime
		if _, err := s.AnswerDataset(ctx, DefaultDataset, t); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := s.AnswerDataset(ctx, DefaultDataset, texts[i%len(texts)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}
