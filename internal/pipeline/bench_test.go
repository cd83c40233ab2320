package pipeline

import (
	"context"
	"runtime"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/relation"
)

// benchWorkload builds a ~1e3-problem pre-processing workload over the
// flights relation (two-predicate queries across all six dimensions).
func benchWorkload(b *testing.B) (*relation.Relation, engine.Config, []engine.Problem) {
	b.Helper()
	rel := dataset.Flights(1000, 1)
	cfg := engine.DefaultConfig(rel)
	cfg.Targets = []string{"cancelled"}
	cfg.MaxQueryLen = 2
	problems, err := engine.Problems(rel, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if len(problems) > 1000 {
		problems = problems[:1000]
	}
	if len(problems) < 500 {
		b.Fatalf("workload too small: %d problems", len(problems))
	}
	return rel, cfg, problems
}

// BenchmarkPreprocess runs the streaming pipeline on a ~1e3-problem
// workload. The parallel variant is the production shape; the
// single-worker variant isolates what the workers buy.
func BenchmarkPreprocess(b *testing.B) {
	rel, cfg, problems := benchWorkload(b)
	b.Logf("workload: %d problems over %d rows", len(problems), rel.NumRows())

	b.Run("pipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _, err := RunProblems(context.Background(), rel, cfg, problems, Options{
				Solver: "G-O", Workers: runtime.GOMAXPROCS(0),
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pipeline-1worker", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _, err := RunProblems(context.Background(), rel, cfg, problems, Options{
				Solver: "G-O", Workers: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBatch runs pipeline.Run at the two configurations the
// benchmark's pre-processing workloads use (see digestConfigs); it is
// the command behind PROFILE.md:
//
//	go test ./internal/pipeline -run '^$' -bench 'BenchmarkBatch/preprocess_greedy' \
//	    -benchtime 10x -cpuprofile cpu.out -memprofile mem.out
//
// problems/s is every iteration's problems over the loop's elapsed time.
func BenchmarkBatch(b *testing.B) {
	for _, dc := range digestConfigs()[:2] {
		b.Run(dc.name, func(b *testing.B) {
			rel, cfg, opts := dc.build()
			b.ReportAllocs()
			b.ResetTimer()
			problems := 0
			for i := 0; i < b.N; i++ {
				_, stats, err := Run(context.Background(), rel, cfg, opts)
				if err != nil {
					b.Fatal(err)
				}
				problems += stats.Problems
			}
			b.ReportMetric(float64(problems)/b.Elapsed().Seconds(), "problems/s")
		})
	}
}
