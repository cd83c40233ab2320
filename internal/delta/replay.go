package delta

import (
	"fmt"

	"cicero/internal/engine"
	"cicero/internal/relation"
	"cicero/internal/snapshot"
)

// NewPatch assembles the durable patch artifact for an applied delta:
// the row-op journal of the batch plus the speech journal of the
// result, keyed to the base snapshot's fingerprint. Written with
// snapshot.WritePatchFile, it lets a cold-starting node reconstruct
// the patched generation from base + patch without solving anything.
func NewPatch(baseFingerprint, fingerprint string, b Batch, res *Result) *snapshot.Patch {
	ops := make([]snapshot.PatchOp, len(b.Ops))
	for i, op := range b.Ops {
		ops[i] = snapshot.PatchOp{
			Kind:    string(op.Kind),
			Row:     op.Row,
			Dims:    op.Dims,
			Targets: op.Targets,
		}
	}
	return &snapshot.Patch{
		Dataset:         b.Dataset,
		BaseFingerprint: baseFingerprint,
		Fingerprint:     fingerprint,
		DeltaTag:        b.Tag(),
		Ops:             ops,
		RemovedKeys:     res.RemovedKeys,
		Upserts:         res.Upserts,
	}
}

// BatchOfPatch converts a patch's journal back into an applicable
// batch. Its tag reproduces the original batch's tag, since the op
// fields round-trip exactly.
func BatchOfPatch(p *snapshot.Patch) Batch {
	ops := make([]Op, len(p.Ops))
	for i, op := range p.Ops {
		ops[i] = Op{
			Kind:    OpKind(op.Kind),
			Row:     op.Row,
			Dims:    op.Dims,
			Targets: op.Targets,
		}
	}
	return Batch{Dataset: p.Dataset, Ops: ops}
}

// Replay reconstructs the patched generation from a base store and its
// relation: it re-applies the patch's row journal to get the post-delta
// relation, then assembles the patched store from retained base
// speeches minus RemovedKeys plus Upserts — no solving, so replay cost
// is proportional to the store, not the problem space. The result is
// the same store Apply produced when the patch was written (speech
// persistence is name-resolved, so it survives dictionary
// re-assignment the same way snapshots do).
//
// The caller is responsible for checking p.BaseFingerprint against the
// provenance of base before replaying; Replay itself verifies only the
// dataset identity carried in the journal.
func Replay(base engine.StoreView, baseRel *relation.Relation, p *snapshot.Patch) (*engine.Store, *relation.Relation, error) {
	if p.Dataset != "" && p.Dataset != baseRel.Name() {
		return nil, nil, fmt.Errorf("delta: patch is for dataset %q, base relation is %q", p.Dataset, baseRel.Name())
	}
	tab := FromRelation(baseRel)
	if _, err := tab.Apply(BatchOfPatch(p)); err != nil {
		return nil, nil, fmt.Errorf("delta: replay journal: %w", err)
	}
	next := tab.Rel()

	removed := make(map[string]bool, len(p.RemovedKeys))
	for _, k := range p.RemovedKeys {
		removed[k] = true
	}
	upserted := make(map[string]bool, len(p.Upserts))
	for _, up := range p.Upserts {
		upserted[up.Query.Key()] = true
	}

	store := engine.NewStore()
	for _, sp := range base.Speeches() {
		key := sp.Query.Key()
		if removed[key] || upserted[key] {
			continue
		}
		store.Add(cloneSpeech(sp))
	}
	for i := range p.Upserts {
		sp, err := p.Upserts[i].Restore(next)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: upsert %d: %v", snapshot.ErrCorrupt, i, err)
		}
		store.Add(sp)
	}
	store.Freeze()
	return store, next, nil
}
