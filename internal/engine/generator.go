package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"cicero/internal/fact"
	"cicero/internal/relation"
)

// Problem is one speech summarization instance ⟨R, F, m⟩ produced by the
// problem generator: the query it answers, the data subset it summarizes,
// and the dimensions facts may restrict.
type Problem struct {
	Query Query
	// View is the data subset selected by the query predicates.
	View *relation.View
	// Target is the target column index.
	Target int
	// FreeDims lists dimension column indices facts may restrict (the
	// configured dimensions minus those fixed by query predicates).
	FreeDims []int
	// Prior is the prior expectation used for this problem.
	Prior fact.Prior
}

// GenerateFacts enumerates the candidate facts for the problem using the
// configured fact width.
func (p *Problem) GenerateFacts(maxFactDims int) []fact.Fact {
	return fact.Generate(p.View, p.Target, fact.GenerateOptions{
		MaxDims:  maxFactDims,
		FreeDims: p.FreeDims,
	})
}

// ErrStopEnumeration tells EachProblem to stop early without error.
var ErrStopEnumeration = fmt.Errorf("engine: stop problem enumeration")

// Problems enumerates every speech summarization problem for the
// configuration and collects them into a slice; see EachProblem for the
// enumeration semantics. Prefer EachProblem when the problems are
// consumed one at a time (the pipeline's generate stage does), which
// bounds memory by one materialized view instead of all of them.
func Problems(rel *relation.Relation, cfg Config) ([]Problem, error) {
	var problems []Problem
	err := EachProblem(rel, cfg, func(p Problem) error {
		problems = append(problems, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return problems, nil
}

// EachProblem streams every speech summarization problem for the
// configuration to fn: one per combination of a target column and a set
// of up to MaxQueryLen equality predicates, considering all value
// combinations that appear in the data (Section III). Queries whose
// subsets have fewer than MinSubsetRows rows are skipped. The enumeration
// order is deterministic. A non-nil error from fn stops the enumeration
// and is returned, except for ErrStopEnumeration which stops it and
// returns nil.
func EachProblem(rel *relation.Relation, cfg Config, fn func(Problem) error) error {
	return EachProblemLazy(rel, cfg, func(lp LazyProblem) error {
		return fn(lp.Materialize())
	})
}

// LazyProblem is one enumerated problem before its data subset is
// materialized: the query, the subset's row count, and a Materialize
// hook that hands out the subset. Enumeration itself costs one grouped
// counting pass per query shape (a set of predicate columns); the first
// Materialize of a shape partitions the relation by that shape's columns
// in one more pass, and every problem of the shape — under every target
// — is a sub-slice of that one row array. The incremental path
// (internal/delta) walks the whole problem space this way and
// materializes only the dirty sliver it re-solves, paying at most one
// pass per shape that has a dirty problem.
type LazyProblem struct {
	Query Query
	// Rows is the subset row count, equal to Materialize().View.NumRows().
	Rows int

	shape      *queryShape
	part       int // index of the problem's combination among the shape's groups
	target     int
	prior      fact.Prior
	subsetMean bool
}

// queryShape is what the problems over one set of predicate columns
// share: the free fact dimensions, the groups of the counting pass, and
// the partition of the relation their views are cut from.
type queryShape struct {
	full     *relation.View
	dims     []int
	freeDims []int
	groups   []relation.Group

	once  sync.Once
	parts []*relation.View
}

// view returns the rows of the shape's i-th combination, ascending, as
// Select would leave them.
func (sh *queryShape) view(i int) *relation.View {
	sh.once.Do(func() { sh.parts = sh.full.Partition(sh.dims) })
	return sh.parts[i]
}

// Materialize completes the Problem exactly as EachProblem builds it.
// It is safe to call from several goroutines.
func (lp *LazyProblem) Materialize() Problem {
	view := lp.shape.view(lp.part)
	prior := lp.prior
	if lp.subsetMean {
		prior = fact.MeanPrior(view, lp.target)
	}
	return Problem{
		Query:    lp.Query,
		View:     view,
		Target:   lp.target,
		FreeDims: lp.shape.freeDims,
		Prior:    prior,
	}
}

// EachProblemLazy streams the same problems as EachProblem, in the same
// order, without materializing their views: subset row counts come from
// one group-by pass per query shape, so consumers that skip most
// problems (internal/delta retains clean speeches by key alone) never
// touch the rows of a shape they skip entirely. The error contract
// matches EachProblem.
func EachProblemLazy(rel *relation.Relation, cfg Config, fn func(LazyProblem) error) error {
	ps, err := newProblemSpace(rel, cfg)
	if err != nil {
		return err
	}
	for ti := range ps.targets {
		err := ps.eachPart(func(sh *queryShape, part int) error {
			return fn(ps.problem(ti, sh, part))
		})
		if errors.Is(err, ErrStopEnumeration) {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Subset is one data subset of the enumeration with its problem under
// every configured target, in target order: the problems share one View
// and one FreeDims. Seqs[k] is Problems[k]'s position in EachProblem's
// order.
type Subset struct {
	Problems []Problem
	Seqs     []int
}

// EachSubset streams the problems of EachProblem grouped by data subset
// — query shape by query shape, part by part, every target of a part
// together — so a consumer can do the target-independent work of a
// subset (candidate-fact scopes, the evaluator's layout) once for all of
// its targets. Each problem is exactly the one EachProblem yields at
// position Seqs[k]. The error contract matches EachProblem.
func EachSubset(rel *relation.Relation, cfg Config, fn func(Subset) error) error {
	ps, err := newProblemSpace(rel, cfg)
	if err != nil {
		return err
	}
	perTarget := ps.parts()
	pos := 0
	err = ps.eachPart(func(sh *queryShape, part int) error {
		sub := Subset{Problems: make([]Problem, len(ps.targets)), Seqs: make([]int, len(ps.targets))}
		for ti := range ps.targets {
			lp := ps.problem(ti, sh, part)
			sub.Problems[ti] = lp.Materialize()
			sub.Seqs[ti] = ti*perTarget + pos
		}
		pos++
		return fn(sub)
	})
	if errors.Is(err, ErrStopEnumeration) {
		return nil
	}
	return err
}

// problemSpace is what both walks of the enumeration read: every query
// shape with its counting pass, and every target with its prior.
type problemSpace struct {
	rel     *relation.Relation
	cfg     Config
	shapes  []queryShape
	targets []targetSpec
}

// targetSpec is one configured target column and the prior its problems
// use (nil under PriorSubsetMean, whose prior depends on the subset).
type targetSpec struct {
	name  string
	index int
	prior fact.Prior
}

// newProblemSpace validates cfg and runs one counting pass per query
// shape.
func newProblemSpace(rel *relation.Relation, cfg Config) (*problemSpace, error) {
	if err := cfg.Validate(rel); err != nil {
		return nil, err
	}
	dimIdx := make([]int, len(cfg.Dimensions))
	for i, d := range cfg.Dimensions {
		dimIdx[i] = rel.Schema().DimIndex(d)
	}
	factDimIdx := make([]int, len(cfg.FactDimensions))
	for i, d := range cfg.FactDimensions {
		factDimIdx[i] = rel.Schema().DimIndex(d)
	}
	full := rel.FullView()

	querySets := fact.DimSubsets(dimIdx, cfg.MaxQueryLen)
	ps := &problemSpace{rel: rel, cfg: cfg, shapes: make([]queryShape, len(querySets))}
	for i, querySet := range querySets {
		free := make([]int, 0, len(factDimIdx))
		for _, d := range factDimIdx {
			if !slices.Contains(querySet, d) {
				free = append(free, d)
			}
		}
		// One counting pass covers every combination of this query
		// shape; Partition cuts its parts in the same order.
		ps.shapes[i] = queryShape{full: full, dims: querySet, freeDims: free, groups: full.GroupBy(querySet, -1)}
	}
	for _, target := range cfg.Targets {
		ts := targetSpec{name: target, index: rel.Schema().TargetIndex(target)}
		switch cfg.Prior {
		case PriorZero:
			ts.prior = fact.ConstantPrior(0)
		case PriorGlobalMean:
			ts.prior = fact.MeanPrior(full, ts.index)
		}
		ps.targets = append(ps.targets, ts)
	}
	return ps, nil
}

// eachPart calls fn for every part of every query shape with at least
// MinSubsetRows rows, in enumeration order, until fn returns an error.
func (ps *problemSpace) eachPart(fn func(sh *queryShape, part int) error) error {
	for si := range ps.shapes {
		sh := &ps.shapes[si]
		for part, g := range sh.groups {
			if g.Count < ps.cfg.MinSubsetRows {
				continue
			}
			if err := fn(sh, part); err != nil {
				return err
			}
		}
	}
	return nil
}

// parts counts the parts eachPart visits: the problems per target.
func (ps *problemSpace) parts() int {
	n := 0
	_ = ps.eachPart(func(*queryShape, int) error {
		n++
		return nil
	})
	return n
}

// problem returns the problem of the ti-th target over a shape's part.
func (ps *problemSpace) problem(ti int, sh *queryShape, part int) LazyProblem {
	g := sh.groups[part]
	named := make([]NamedPredicate, len(sh.dims))
	for i, d := range sh.dims {
		named[i] = NamedPredicate{
			Column: ps.rel.Schema().Dimensions[d],
			Value:  ps.rel.Dim(d).Value(g.Key.Codes[i]),
		}
	}
	ts := &ps.targets[ti]
	return LazyProblem{
		Query:      Query{Target: ts.name, Predicates: named},
		Rows:       g.Count,
		shape:      sh,
		part:       part,
		target:     ts.index,
		prior:      ts.prior,
		subsetMean: ps.cfg.Prior == PriorSubsetMean,
	}
}

// CountProblems returns the number of problems Problems would generate,
// without materializing views, for capacity planning (Theorem 10 bounds
// this by O(t · (d choose l) · n^l)).
func CountProblems(rel *relation.Relation, cfg Config) (int, error) {
	ps, err := newProblemSpace(rel, cfg)
	if err != nil {
		return 0, err
	}
	return ps.parts() * len(ps.targets), nil
}
