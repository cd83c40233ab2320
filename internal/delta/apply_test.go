package delta

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/pipeline"
	"cicero/internal/relation"
	"cicero/internal/snapshot"
)

// flightsConfig is the serving benchmark's flights configuration:
// every dimension, two-predicate queries, three facts, both targets.
func flightsConfig(rel *relation.Relation, prior engine.PriorMode) engine.Config {
	cfg := engine.DefaultConfig(rel)
	cfg.MaxQueryLen = 2
	cfg.MaxFacts = 3
	cfg.Prior = prior
	return cfg
}

// bumpBothTargets updates one row's value on both flights targets, which
// moves both full-table means: under the global-mean prior every problem
// is dirty.
func bumpBothTargets(rel *relation.Relation, row int) Batch {
	return Batch{Dataset: rel.Name(), Ops: []Op{{Kind: Update, Row: row, Targets: []float64{
		rel.Target(0).At(row) + 1, rel.Target(1).At(row) + 1,
	}}}}
}

// TestApplySchedulingIndependent re-solves whole targets at several
// worker counts and on one processor: every variant must patch the store
// a rebuild writes, journal the same upserts and removals in the same
// order, and count the same problems. An already-cancelled context
// yields no result.
func TestApplySchedulingIndependent(t *testing.T) {
	ctx := context.Background()
	rel := dataset.Flights(3000, 1)
	cfg := flightsConfig(rel, engine.PriorGlobalMean)
	base, _, err := pipeline.Run(ctx, rel, cfg, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name         string
		batch        Batch
		dirtyTargets int
	}{
		{"one target", Synthesize(rel, 10, 3), 1},
		{"both targets", bumpBothTargets(rel, 17), 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			tab := FromRelation(rel)
			images, err := tab.Apply(c.batch)
			if err != nil {
				t.Fatal(err)
			}
			next := tab.Rel()
			oracle, _, err := pipeline.Run(ctx, next, cfg, testOpts)
			if err != nil {
				t.Fatal(err)
			}
			var first *Result
			for _, v := range []struct {
				name             string
				workers, maxProc int
			}{{"workers=1", 1, 0}, {"workers=2", 2, 0}, {"workers=8", 8, 0}, {"gomaxprocs=1", 2, 1}} {
				res := func() *Result {
					if v.maxProc > 0 {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(v.maxProc))
					}
					opts := testOpts
					opts.Workers = v.workers
					res, err := Apply(ctx, base, rel, next, cfg, opts, images)
					if err != nil {
						t.Fatalf("%s: %v", v.name, err)
					}
					return res
				}()
				storesIdentical(t, res.Store, oracle)
				if len(res.FullDirtyTargets) != c.dirtyTargets ||
					res.DirtyProblems*rel.NumTargets() != c.dirtyTargets*res.TotalProblems {
					t.Fatalf("%s: %d of %d problems dirty, whole targets %v; want %d whole targets",
						v.name, res.DirtyProblems, res.TotalProblems, res.FullDirtyTargets, c.dirtyTargets)
				}
				if first == nil {
					first = res
					continue
				}
				if res.DirtyProblems != first.DirtyProblems || res.Solved != first.Solved || res.Retained != first.Retained {
					t.Errorf("%s: dirty/solved/retained %d/%d/%d, at one worker %d/%d/%d", v.name,
						res.DirtyProblems, res.Solved, res.Retained, first.DirtyProblems, first.Solved, first.Retained)
				}
				if !reflect.DeepEqual(res.Upserts, first.Upserts) {
					t.Errorf("%s: upserts differ from one worker's", v.name)
				}
				if !slices.Equal(res.RemovedKeys, first.RemovedKeys) {
					t.Errorf("%s: removed keys %v, at one worker %v", v.name, res.RemovedKeys, first.RemovedKeys)
				}
			}

			cancelled, cancel := context.WithCancel(ctx)
			cancel()
			if res, err := Apply(cancelled, base, rel, next, cfg, testOpts, images); res != nil || !errors.Is(err, context.Canceled) {
				t.Errorf("Apply on a cancelled context returned (%v, %v), want (nil, context.Canceled)", res, err)
			}
		})
	}
}

// TestPatchBytesRepeat: two applies of the same delta to the same base
// write byte-identical patch artifacts, removed keys included.
func TestPatchBytesRepeat(t *testing.T) {
	ctx := context.Background()
	rel := dataset.Flights(60, 1)
	cfg := flightsConfig(rel, engine.PriorGlobalMean)
	base, _, err := pipeline.Run(ctx, rel, cfg, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	b := Batch{Dataset: rel.Name(), Ops: []Op{{Kind: Delete, Row: 40}, {Kind: Delete, Row: 20}, {Kind: Delete, Row: 10}}}
	var patches [2][]byte
	for i := range patches {
		tab := FromRelation(rel)
		images, err := tab.Apply(b)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Apply(ctx, base, rel, tab.Rel(), cfg, testOpts, images)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.RemovedKeys) < 2 {
			t.Fatalf("the deletes removed %d keys, want several to order", len(res.RemovedKeys))
		}
		var buf bytes.Buffer
		if err := snapshot.WritePatch(&buf, NewPatch("base", "patched", b, res)); err != nil {
			t.Fatal(err)
		}
		patches[i] = buf.Bytes()
	}
	if !bytes.Equal(patches[0], patches[1]) {
		t.Fatal("two applies of one delta wrote different patch bytes")
	}
}

// BenchmarkApply times one publish's incremental apply at two workers:
// a 10-op delta under the global-mean prior, which re-solves the whole
// first target, and under prior zero, which re-solves a few dozen
// problems.
//
//	go test ./internal/delta -run '^$' -bench BenchmarkApply -benchmem
func BenchmarkApply(b *testing.B) {
	for _, bc := range []struct {
		name  string
		rows  int
		prior engine.PriorMode
	}{
		{"global_mean", 12000, engine.PriorGlobalMean},
		{"prior_zero", 5000, engine.PriorZero},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ctx := context.Background()
			rel := dataset.Flights(bc.rows, 1)
			cfg := flightsConfig(rel, bc.prior)
			opts := testOpts
			opts.Workers = 2
			base, _, err := pipeline.Run(ctx, rel, cfg, opts)
			if err != nil {
				b.Fatal(err)
			}
			tab := FromRelation(rel)
			images, err := tab.Apply(Synthesize(rel, 10, 1))
			if err != nil {
				b.Fatal(err)
			}
			next := tab.Rel()
			b.ResetTimer()
			solved := 0
			for i := 0; i < b.N; i++ {
				res, err := Apply(ctx, base, rel, next, cfg, opts, images)
				if err != nil {
					b.Fatal(err)
				}
				solved += res.Solved
			}
			b.ReportMetric(float64(solved)/float64(b.N), "solved/op")
		})
	}
}
