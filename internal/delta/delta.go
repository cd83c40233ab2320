// Package delta makes freshness cost proportional to the change, not
// the dataset: it ingests row-level deltas (insert / update / delete
// against a named dataset), maps the changed row images through the
// query/fact-scope structure to the set of dirty problems, re-solves
// only those as one batch on the pipeline's workers
// (pipeline.RunProblems), and assembles a patched store that is
// bit-identical to a from-scratch rebuild over the same post-delta rows
// — ready to publish, together with those rows, as one generation
// through the serving layer's one zero-downtime primitive (SwapData on
// the Answerer, the Registry, or httpserve's SwapDataFor).
//
// The correctness argument rests on two invariants. First, a problem is
// clean exactly when no changed row image (the row as it was before the
// op, and as it is after) matches its query predicates on any affected
// target — such a problem's data subset is the same row multiset in the
// same order, so the deterministic solve (order-stable fact enumeration,
// order-stable kernel sums) reproduces the retained speech bit for bit.
// Second, the planner verifies the preconditions that argument needs
// and degrades honestly to a full re-solve when they fail: a dictionary
// whose code assignment drifted (an old value's code changed under the
// rebuilt rows) dirties everything, and under the global-mean prior a
// target whose full-table mean moved dirties every problem of that
// target, because the prior is an input to every one of them.
//
// A published delta can be made durable as a snapshot patch artifact
// (internal/snapshot.Patch): the base snapshot's fingerprint plus the
// op journal and the solved speech upserts, so a cold-starting node
// replays base + patch in milliseconds instead of re-ingesting.
package delta

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strconv"
)

// OpKind names a row-level change.
type OpKind string

const (
	// Insert appends a row.
	Insert OpKind = "insert"
	// Update replaces a row's dimension values and/or targets.
	Update OpKind = "update"
	// Delete removes a row.
	Delete OpKind = "delete"
)

// Op is one row-level change. Ops of a batch apply in order, each
// against the table state the previous op left behind; Row indexes into
// that state (deletes shift later rows down by one, inserts append).
type Op struct {
	// Kind is the change type.
	Kind OpKind `json:"op"`
	// Row addresses the target row for update/delete.
	Row int `json:"row,omitempty"`
	// Dims carries the row's dimension values: required for insert,
	// optional for update (nil keeps the current values).
	Dims []string `json:"dims,omitempty"`
	// Targets carries the row's target values: required for insert,
	// optional for update (nil keeps the current values).
	Targets []float64 `json:"targets,omitempty"`
}

// Batch is an ordered set of row ops against one dataset.
type Batch struct {
	// Dataset optionally names the dataset the batch is for; Apply
	// refuses a mismatch so a journal cannot be replayed onto the wrong
	// table. Empty matches any dataset.
	Dataset string `json:"dataset,omitempty"`
	// Ops apply in order.
	Ops []Op `json:"ops"`
}

// Tag renders the batch's provenance tag: a short, deterministic
// content hash that identifies which delta a store or patch was built
// against. NewPatch records it as the patch's DeltaTag, and
// pipeline.FingerprintDelta folds it into the patched store's
// fingerprint.
func (b Batch) Tag() string {
	if len(b.Ops) == 0 {
		return ""
	}
	h := fnv.New64a()
	for _, op := range b.Ops {
		h.Write([]byte(op.Kind))
		h.Write([]byte(strconv.Itoa(op.Row)))
		for _, d := range op.Dims {
			h.Write([]byte{0})
			h.Write([]byte(d))
		}
		for _, t := range op.Targets {
			h.Write([]byte{1})
			h.Write([]byte(strconv.FormatFloat(t, 'b', -1, 64)))
		}
		h.Write([]byte{2})
	}
	return fmt.Sprintf("ops=%d,hash=%016x", len(b.Ops), h.Sum64())
}

// LoadBatch decodes a JSON batch: either a full Batch object or a bare
// array of ops.
func LoadBatch(r io.Reader) (Batch, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Batch{}, err
	}
	var b Batch
	if err := json.Unmarshal(data, &b); err != nil {
		var ops []Op
		if aerr := json.Unmarshal(data, &ops); aerr != nil {
			return Batch{}, fmt.Errorf("delta: parse batch: %w", err)
		}
		b = Batch{Ops: ops}
	}
	return b, nil
}

// LoadBatchFile reads a JSON batch from path.
func LoadBatchFile(path string) (Batch, error) {
	f, err := os.Open(path)
	if err != nil {
		return Batch{}, err
	}
	defer f.Close()
	b, err := LoadBatch(f)
	if err != nil {
		return Batch{}, fmt.Errorf("delta: %s: %w", path, err)
	}
	return b, nil
}
