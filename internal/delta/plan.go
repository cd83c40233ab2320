package delta

import (
	"cicero/internal/engine"
	"cicero/internal/fact"
	"cicero/internal/relation"
)

// Plan is the dirty set of a delta: which problems must be re-solved
// against the new rows and which retained speeches stay valid. It may
// degrade to coarser granularities when the incremental-correctness
// preconditions do not hold — per-target full re-solve when a prior
// moved, whole-store full re-solve when dictionary codes drifted.
type Plan struct {
	// dirty keys problems (canonical query keys) that must re-solve.
	dirty map[string]bool
	// fullTargets marks targets all of whose problems are dirty.
	fullTargets map[string]bool
	// full marks the whole store dirty (dictionary drift).
	full bool

	// Changed counts the row images the plan was derived from.
	Changed int
}

// Full reports whether the plan dirties every problem.
func (p *Plan) Full() bool { return p.full }

// FullTargets returns the targets dirtied wholesale (prior movement),
// in no particular order.
func (p *Plan) FullTargets() []string {
	out := make([]string, 0, len(p.fullTargets))
	for t := range p.fullTargets {
		out = append(out, t)
	}
	return out
}

// IsDirty reports whether the problem identified by its target and
// canonical query key must be re-solved.
func (p *Plan) IsDirty(target, key string) bool {
	if p.full {
		return true
	}
	if p.fullTargets[target] {
		return true
	}
	return p.dirty[key]
}

// dictsArePrefix reports whether every dimension dictionary of base is
// a prefix of the corresponding dictionary of next. When it holds, all
// dictionary codes of the base relation mean the same values in the
// next relation, so retained speeches — whose fact scopes carry base
// codes — stay valid verbatim. Deletion of a value's last row, or an
// op reordering first appearances, breaks it.
func dictsArePrefix(base, next *relation.Relation) bool {
	if base.NumDims() != next.NumDims() {
		return false
	}
	for d := 0; d < base.NumDims(); d++ {
		bv, nv := base.Dim(d).Values(), next.Dim(d).Values()
		if len(bv) > len(nv) {
			return false
		}
		for i := range bv {
			if bv[i] != nv[i] {
				return false
			}
		}
	}
	return true
}

// PlanDirty derives the dirty set for a delta from the changed row
// images. cfg must already be validated against next (dimension and
// target lists resolved).
//
// The projection mirrors the problem generator exactly: a changed row
// dirties, for each affected target, every query over every subset of
// the configured query dimensions whose predicate values match the
// row image — those are precisely the problems whose data subset
// gained, lost, or re-valued the row. Everything outside that set sees
// an identical row multiset in identical order and is provably clean
// (given the prefix-dictionary and stable-prior preconditions this
// function also checks).
func PlanDirty(base, next *relation.Relation, cfg engine.Config, images []RowImage) *Plan {
	p := &Plan{
		dirty:       map[string]bool{},
		fullTargets: map[string]bool{},
		Changed:     len(images),
	}
	if !dictsArePrefix(base, next) {
		p.full = true
		return p
	}

	// Under the global-mean prior, the full-table mean is an input to
	// every problem of a target: if it moved at all (exact float
	// compare — bit-identity is the bar), that whole target re-solves.
	if cfg.Prior == engine.PriorGlobalMean {
		baseFull, nextFull := base.FullView(), next.FullView()
		for _, target := range cfg.Targets {
			bi, ni := base.Schema().TargetIndex(target), next.Schema().TargetIndex(target)
			if bi < 0 || baseFull.Stats(bi).Mean() != nextFull.Stats(ni).Mean() {
				p.fullTargets[target] = true
			}
		}
	}

	dimIdx := make([]int, len(cfg.Dimensions))
	for i, d := range cfg.Dimensions {
		dimIdx[i] = next.Schema().DimIndex(d)
	}
	querySets := fact.DimSubsets(dimIdx, cfg.MaxQueryLen)

	targets := cfg.Targets
	for _, img := range images {
		affected := targets
		if img.Targets != nil {
			affected = affected[:0:0]
			for _, ti := range img.Targets {
				// Image targets index the schema; restrict to the
				// configured ones.
				name := next.Schema().Targets[ti]
				for _, t := range targets {
					if t == name {
						affected = append(affected, t)
						break
					}
				}
			}
		}
		for _, querySet := range querySets {
			named := make([]engine.NamedPredicate, len(querySet))
			for i, d := range querySet {
				named[i] = engine.NamedPredicate{
					Column: next.Schema().Dimensions[d],
					Value:  img.Dims[d],
				}
			}
			for _, target := range affected {
				if p.fullTargets[target] {
					continue
				}
				q := engine.Query{Target: target, Predicates: named}
				p.dirty[q.Key()] = true
			}
		}
	}
	return p
}
