package engine

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/fact"
	"cicero/internal/relation"
	"cicero/internal/summarize"
)

// TestProblemViewsMatchSelect pins what the problem generator hands out
// now that a query shape's views are cut from one Partition: for every
// query shape of all five built-in data sets, every problem's view holds
// exactly the rows Select of its predicates returns, in the same order
// (the precondition of delta.PlanDirty's "identical row multiset in
// identical order"), under every target, and Rows announces its size.
func TestProblemViewsMatchSelect(t *testing.T) {
	for _, name := range dataset.Names() {
		rel := dataset.ByNameRows(name, 1500, 1)
		cfg := DefaultConfig(rel)
		cfg.MaxQueryLen = 2
		full := rel.FullView()
		problems := 0
		err := EachProblemLazy(rel, cfg, func(lp LazyProblem) error {
			problems++
			p := lp.Materialize()
			preds := make([]relation.Predicate, len(lp.Query.Predicates))
			for i, np := range lp.Query.Predicates {
				pred, err := rel.PredicateByName(np.Column, np.Value)
				if err != nil {
					return err
				}
				preds[i] = pred
			}
			want := full.Select(preds)
			if p.View.NumRows() != want.NumRows() || lp.Rows != want.NumRows() {
				return fmt.Errorf("%s %s: view has %d rows, Rows says %d, Select returns %d",
					name, lp.Query.Key(), p.View.NumRows(), lp.Rows, want.NumRows())
			}
			for i := 0; i < want.NumRows(); i++ {
				if p.View.Row(i) != want.Row(i) {
					return fmt.Errorf("%s %s: row %d is %d, Select has %d", name, lp.Query.Key(), i, p.View.Row(i), want.Row(i))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if problems == 0 {
			t.Errorf("%s: no problems enumerated", name)
		}
	}
}

// TestSubsetsMatchProblems pins the batch's work item: on every query
// shape of all five built-in data sets, EachSubset hands out each of
// EachProblem's problems exactly once, at the position Seqs names and
// grouped with the other targets of its data subset; and the subset's one
// multi-target fact enumeration is, target by target, what GenerateFacts
// returns for each problem alone — the same facts in the same order with
// the same value bits, the targets sharing each scope's arrays — through
// the dense and the sorted group-by alike.
func TestSubsetsMatchProblems(t *testing.T) {
	dense, sorted := 0, 0
	for _, name := range dataset.Names() {
		rel := dataset.ByNameRows(name, 1500, 1)
		cfg := DefaultConfig(rel)
		cfg.MaxQueryLen = 2
		// Three-column fact groups over the smallest subsets are where a
		// key space outgrows the view and the sorted group-by runs.
		cfg.MaxFactDims = 3
		if err := cfg.Validate(rel); err != nil {
			t.Fatal(err)
		}
		problems, err := Problems(rel, cfg)
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, len(problems))
		var ks relation.KeySpace
		err = EachSubset(rel, cfg, func(s Subset) error {
			if len(s.Problems) != len(cfg.Targets) || len(s.Seqs) != len(s.Problems) {
				return fmt.Errorf("%s: a subset of %d problems at %v for %d targets", name, len(s.Problems), s.Seqs, len(cfg.Targets))
			}
			view, free := s.Problems[0].View, s.Problems[0].FreeDims
			targets := make([]int, len(s.Problems))
			for k, p := range s.Problems {
				seq := s.Seqs[k]
				if seq < 0 || seq >= len(problems) || seen[seq] {
					return fmt.Errorf("%s %s: position %d out of range or handed out twice", name, p.Query.Key(), seq)
				}
				seen[seq] = true
				want := problems[seq]
				if p.Query.Key() != want.Query.Key() || p.Target != want.Target || !slices.Equal(p.FreeDims, want.FreeDims) ||
					p.View != view || !slices.Equal(p.FreeDims, free) || p.View.NumRows() != want.View.NumRows() {
					return fmt.Errorf("%s: subset problem %s is not EachProblem's %s at %d", name, p.Query.Key(), want.Query.Key(), seq)
				}
				for i := 0; i < view.NumRows(); i++ {
					if view.Row(i) != want.View.Row(i) {
						return fmt.Errorf("%s %s: row %d differs", name, p.Query.Key(), i)
					}
				}
				if row := view.Row(0); math.Float64bits(p.Prior.At(row)) != math.Float64bits(want.Prior.At(row)) {
					return fmt.Errorf("%s %s: prior differs", name, p.Query.Key())
				}
				targets[k] = p.Target
			}
			for _, dims := range fact.DimSubsets(free, cfg.MaxFactDims) {
				ks.Reset(rel, dims)
				if _, ok := ks.Dense(view.NumRows()); ok {
					dense++
				} else {
					sorted++
				}
			}
			sets := fact.GenerateTargets(view, targets, fact.GenerateOptions{MaxDims: cfg.MaxFactDims, FreeDims: free})
			for k, p := range s.Problems {
				want := p.GenerateFacts(cfg.MaxFactDims)
				if len(sets[k]) != len(want) {
					return fmt.Errorf("%s %s: %d facts, alone %d", name, p.Query.Key(), len(sets[k]), len(want))
				}
				for i, f := range sets[k] {
					if !f.Scope.Equal(want[i].Scope) || math.Float64bits(f.Value) != math.Float64bits(want[i].Value) {
						return fmt.Errorf("%s %s fact %d: %v, alone %v", name, p.Query.Key(), i, f, want[i])
					}
					if f0 := sets[0][i].Scope; len(f.Scope.Codes) > 0 &&
						(&f.Scope.Codes[0] != &f0.Codes[0] || &f.Scope.Dims[0] != &f0.Dims[0]) {
						return fmt.Errorf("%s %s fact %d: the targets' scopes do not share their arrays", name, p.Query.Key(), i)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for seq, ok := range seen {
			if !ok {
				t.Fatalf("%s: EachSubset never handed out %s", name, problems[seq].Query.Key())
			}
		}
	}
	if dense == 0 || sorted == 0 {
		t.Fatalf("the fact groups took the dense group-by %d times and the sorted one %d times; the sweep must cover both", dense, sorted)
	}
}

// TestMaterializeConcurrently: a shape's partition is built by whichever
// goroutine materializes one of its problems first, and the others wait
// for it — the delta path and a batch's producer may both be that
// goroutine. Run under -race.
func TestMaterializeConcurrently(t *testing.T) {
	rel := dataset.Flights(1500, 1)
	cfg := DefaultConfig(rel)
	cfg.MaxQueryLen = 2
	var lazy []LazyProblem
	if err := EachProblemLazy(rel, cfg, func(lp LazyProblem) error {
		lazy = append(lazy, lp)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range lazy {
				lp := &lazy[(i*7+w*len(lazy)/4)%len(lazy)]
				if p := lp.Materialize(); p.View.NumRows() != lp.Rows {
					t.Errorf("%s: %d rows, want %d", lp.Query.Key(), p.View.NumRows(), lp.Rows)
				}
			}
		}(w)
	}
	wg.Wait()
}

// flightsProblemsByLength returns the first flights problem with zero,
// one and two predicates: the three sizes of view a batch evaluates.
func flightsProblemsByLength(tb testing.TB) (Config, []Problem) {
	tb.Helper()
	rel := dataset.Flights(12000, 1)
	cfg := DefaultConfig(rel)
	cfg.MaxQueryLen = 2
	byLen := make([]Problem, 3)
	found := 0
	err := EachProblem(rel, cfg, func(p Problem) error {
		if n := len(p.Query.Predicates); byLen[n].View == nil {
			byLen[n] = p
			if found++; found == len(byLen) {
				return ErrStopEnumeration
			}
		}
		return nil
	})
	if err != nil || found != len(byLen) {
		tb.Fatalf("flights problems by query length: found %d, err %v", found, err)
	}
	return cfg, byLen
}

// TestEvaluateStageAllocCeiling bounds what one problem's evaluate stage
// allocates — candidate facts, a pooled evaluator's rebuild, the plan
// search — on a fixed flights problem. The ceiling is the count measured
// when the stage went hash-free (85 objects), with headroom for the
// runtime's own variation; the map-and-heap-object version it replaced
// allocated 2,938 here.
func TestEvaluateStageAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	cfg, problems := flightsProblemsByLength(t)
	p := problems[1]
	stage := func() {
		facts := p.GenerateFacts(cfg.MaxFactDims)
		e := summarize.AcquireEvaluator(p.View, p.Target, facts, p.Prior)
		summarize.OptPrune(e)
		summarize.ReleaseEvaluator(e)
	}
	stage() // warm the pools
	const ceiling = 100
	avg := testing.AllocsPerRun(50, stage)
	t.Logf("evaluate stage: %.0f objects per problem (ceiling %d)", avg, ceiling)
	if avg > ceiling {
		t.Errorf("evaluate stage allocates %.0f objects per problem, ceiling %d", avg, ceiling)
	}
}

func BenchmarkFactGenerate(b *testing.B) {
	cfg, problems := flightsProblemsByLength(b)
	for qlen, p := range problems {
		b.Run(fmt.Sprintf("querylen=%d/rows=%d", qlen, p.View.NumRows()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.GenerateFacts(cfg.MaxFactDims)
			}
		})
	}
}

func BenchmarkOptPrune(b *testing.B) {
	cfg, problems := flightsProblemsByLength(b)
	for qlen, p := range problems {
		b.Run(fmt.Sprintf("querylen=%d/rows=%d", qlen, p.View.NumRows()), func(b *testing.B) {
			e := summarize.NewEvaluator(p.View, p.Target, p.GenerateFacts(cfg.MaxFactDims), p.Prior)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				summarize.OptPrune(e)
			}
		})
	}
}
