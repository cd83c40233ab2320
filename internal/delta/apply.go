package delta

import (
	"context"
	"strings"

	"cicero/internal/engine"
	"cicero/internal/fact"
	"cicero/internal/pipeline"
	"cicero/internal/relation"
)

// Result is the outcome of an incremental apply: the patched store
// (bit-identical to a from-scratch rebuild over the same rows) plus the
// bookkeeping the caller needs to publish, benchmark, and journal it.
type Result struct {
	// Store is the patched, frozen speech store.
	Store *engine.Store

	// TotalProblems counts the problems of the new configuration space.
	TotalProblems int
	// DirtyProblems counts problems the plan marked dirty.
	DirtyProblems int
	// Solved counts problems actually re-solved (dirty plus any clean
	// problem absent from the base store, e.g. a subset newly above the
	// MinSubsetRows threshold).
	Solved int
	// Retained counts speeches carried over from the base store.
	Retained int
	// Removed counts base speeches with no problem in the new space.
	Removed int
	// FullDirty reports a dictionary-drift degradation to full rebuild.
	FullDirty bool
	// FullDirtyTargets lists targets degraded wholesale (prior moved).
	FullDirtyTargets []string

	// Upserts are the newly solved speeches in persistence form — with
	// RemovedKeys, the journal half of a snapshot patch artifact: base
	// speeches minus RemovedKeys plus Upserts reconstructs Store.
	Upserts []engine.PersistedSpeech
	// RemovedKeys are canonical keys of base speeches not carried over.
	RemovedKeys []string
}

// cloneSpeech deep-copies a retained speech out of the base store. The
// base may be a zero-copy mmap-backed snapshot view whose strings and
// slices alias the mapping; a patched store outlives any particular
// base (the mapping may be closed after the swap), so retention must
// copy, never alias.
func cloneSpeech(sp *engine.StoredSpeech) *engine.StoredSpeech {
	preds := make([]engine.NamedPredicate, len(sp.Query.Predicates))
	for i, p := range sp.Query.Predicates {
		preds[i] = engine.NamedPredicate{
			Column: strings.Clone(p.Column),
			Value:  strings.Clone(p.Value),
		}
	}
	facts := make([]fact.Fact, len(sp.Facts))
	for i, f := range sp.Facts {
		facts[i] = fact.Fact{
			// NewScope copies both slices (and re-sorts, a no-op for
			// already-canonical scopes).
			Scope: fact.NewScope(f.Scope.Dims, f.Scope.Codes),
			Value: f.Value,
		}
	}
	return &engine.StoredSpeech{
		Query:      engine.Query{Target: strings.Clone(sp.Query.Target), Predicates: preds},
		Facts:      facts,
		Utility:    sp.Utility,
		PriorError: sp.PriorError,
		Text:       strings.Clone(sp.Text),
	}
}

// Apply re-summarizes a relation incrementally: it plans the dirty set
// from the changed row images, deep-copies every clean speech from the
// base store, re-solves only the dirty problems, and freezes the patched
// store. base must have been built from baseRel under the same cfg and
// opts a full pipeline.Run over nextRel would use; the patched store is
// then bit-identical — same speeches, utilities, and texts — to that
// full rebuild.
//
// The dirty problems are solved by one pipeline.RunProblems call: on
// opts.Workers, with each data subset's dirty problems under every
// target sharing one fact enumeration and one evaluator layout, as in a
// rebuild. A whole target dirtied by a moved global mean therefore costs
// about what rebuilding that target costs. Upserts list the solved
// speeches in enumeration order and RemovedKeys the dropped base keys in
// the base store's key order, so equal inputs write equal patches.
func Apply(ctx context.Context, base engine.StoreView, baseRel, nextRel *relation.Relation, cfg engine.Config, opts pipeline.Options, images []RowImage) (*Result, error) {
	// Validate resolves empty target/dimension lists in place; the plan
	// and the enumeration below must see the same resolved lists.
	if err := cfg.Validate(nextRel); err != nil {
		return nil, err
	}
	plan := PlanDirty(baseRel, nextRel, cfg, images)

	baseKeys := make([]string, 0, base.Len())
	baseByKey := make(map[string]*engine.StoredSpeech, base.Len())
	for _, sp := range base.Speeches() {
		key := sp.Query.Key()
		baseKeys = append(baseKeys, key)
		baseByKey[key] = sp
	}

	res := &Result{
		Store:            engine.NewStore(),
		FullDirty:        plan.Full(),
		FullDirtyTargets: plan.FullTargets(),
	}
	// Lazy enumeration: clean problems are retained by query key alone,
	// so only the dirty sliver pays the per-problem selection scan —
	// this is what keeps a small delta's publish cost proportional to
	// the dirty set, not to the problem space. A base key left in
	// baseByKey after the walk has no speech in the patched store.
	var solve []engine.Problem
	err := engine.EachProblemLazy(nextRel, cfg, func(lp engine.LazyProblem) error {
		res.TotalProblems++
		key := lp.Query.Key()
		if plan.IsDirty(lp.Query.Target, key) {
			res.DirtyProblems++
		} else if sp, ok := baseByKey[key]; ok {
			res.Store.Add(cloneSpeech(sp))
			delete(baseByKey, key)
			res.Retained++
			return nil
		}
		// Dirty, or clean but absent from the base (e.g. the subset only
		// now cleared MinSubsetRows): re-solve it.
		solve = append(solve, lp.Materialize())
		return nil
	})
	if err != nil {
		return nil, err
	}

	opts.Checkpoint, opts.Progress = nil, nil
	solved, _, err := pipeline.RunProblems(ctx, nextRel, cfg, solve, opts)
	if err != nil {
		return nil, err
	}
	for _, p := range solve {
		sp, _ := solved.Exact(p.Query)
		res.Store.Add(sp)
		// An upsert replaces any base speech under the same key, so the
		// key is accounted for.
		delete(baseByKey, p.Query.Key())
		res.Solved++
		res.Upserts = append(res.Upserts, sp.Persist(nextRel))
	}

	for _, key := range baseKeys {
		if _, ok := baseByKey[key]; ok {
			res.RemovedKeys = append(res.RemovedKeys, key)
			res.Removed++
		}
	}
	res.Store.Freeze()
	return res, nil
}
