package delta

import (
	"fmt"

	"cicero/internal/relation"
)

// Table is the mutable row-form of a relation: the staging area deltas
// apply to. Relations themselves are immutable by design (the serving
// layer depends on it), so incremental ingestion keeps the current rows
// here, applies each batch, and freezes a fresh Relation per published
// generation.
type Table struct {
	name    string
	schema  relation.Schema
	dims    [][]string  // per row, one value per dimension column
	targets [][]float64 // per row, one value per target column
}

// RowImage is one changed row as the planner sees it: the dimension
// values locating the row in the query space, and which targets the
// change affects. An update that moves a row between subsets produces
// two images (the row where it was, and where it is now); an update
// that only rewrites target values produces one image restricted to the
// targets whose values actually changed — the refinement that keeps the
// dirty set small for the common append/correct workloads.
type RowImage struct {
	// Dims holds the row's dimension values, in schema order.
	Dims []string
	// Targets lists the affected target column indices; nil means all.
	Targets []int
}

// FromRelation decodes a relation back into mutable row form.
func FromRelation(rel *relation.Relation) *Table {
	t := &Table{
		name:    rel.Name(),
		schema:  rel.Schema().Clone(),
		dims:    make([][]string, rel.NumRows()),
		targets: make([][]float64, rel.NumRows()),
	}
	for row := 0; row < rel.NumRows(); row++ {
		dims := make([]string, rel.NumDims())
		for d := 0; d < rel.NumDims(); d++ {
			col := rel.Dim(d)
			dims[d] = col.Value(col.CodeAt(row))
		}
		targets := make([]float64, rel.NumTargets())
		for ti := 0; ti < rel.NumTargets(); ti++ {
			targets[ti] = rel.Target(ti).At(row)
		}
		t.dims[row] = dims
		t.targets[row] = targets
	}
	return t
}

// Apply mutates the table by the batch's ops, in order, and returns the
// row images of every change for dirty-set planning. An op that fails
// validation aborts the whole batch with the table unchanged — a
// half-applied journal could never be re-derived from its tag.
func (t *Table) Apply(b Batch) ([]RowImage, error) {
	if b.Dataset != "" && b.Dataset != t.name {
		return nil, fmt.Errorf("delta: batch targets dataset %q, table is %q", b.Dataset, t.name)
	}
	// Validate against a dry-run row count before touching the rows.
	n := len(t.dims)
	for i, op := range b.Ops {
		switch op.Kind {
		case Insert:
			if len(op.Dims) != len(t.schema.Dimensions) {
				return nil, fmt.Errorf("delta: op %d: insert has %d dimension values, schema has %d", i, len(op.Dims), len(t.schema.Dimensions))
			}
			if len(op.Targets) != len(t.schema.Targets) {
				return nil, fmt.Errorf("delta: op %d: insert has %d target values, schema has %d", i, len(op.Targets), len(t.schema.Targets))
			}
			n++
		case Update:
			if op.Row < 0 || op.Row >= n {
				return nil, fmt.Errorf("delta: op %d: update row %d out of range [0,%d)", i, op.Row, n)
			}
			if op.Dims != nil && len(op.Dims) != len(t.schema.Dimensions) {
				return nil, fmt.Errorf("delta: op %d: update has %d dimension values, schema has %d", i, len(op.Dims), len(t.schema.Dimensions))
			}
			if op.Targets != nil && len(op.Targets) != len(t.schema.Targets) {
				return nil, fmt.Errorf("delta: op %d: update has %d target values, schema has %d", i, len(op.Targets), len(t.schema.Targets))
			}
		case Delete:
			if op.Row < 0 || op.Row >= n {
				return nil, fmt.Errorf("delta: op %d: delete row %d out of range [0,%d)", i, op.Row, n)
			}
			n--
		default:
			return nil, fmt.Errorf("delta: op %d: unknown kind %q", i, op.Kind)
		}
	}

	var images []RowImage
	for _, op := range b.Ops {
		switch op.Kind {
		case Insert:
			t.dims = append(t.dims, append([]string(nil), op.Dims...))
			t.targets = append(t.targets, append([]float64(nil), op.Targets...))
			images = append(images, RowImage{Dims: t.dims[len(t.dims)-1]})
		case Update:
			oldDims, oldTargets := t.dims[op.Row], t.targets[op.Row]
			newDims, newTargets := oldDims, oldTargets
			if op.Dims != nil {
				newDims = append([]string(nil), op.Dims...)
			}
			if op.Targets != nil {
				newTargets = append([]float64(nil), op.Targets...)
			}
			dimsChanged := false
			for d := range oldDims {
				if oldDims[d] != newDims[d] {
					dimsChanged = true
					break
				}
			}
			if dimsChanged {
				// The row leaves one query subset and enters another;
				// every target's problems over either subset see a
				// different row multiset.
				images = append(images,
					RowImage{Dims: oldDims},
					RowImage{Dims: newDims},
				)
			} else {
				var changed []int
				for ti := range oldTargets {
					if oldTargets[ti] != newTargets[ti] {
						changed = append(changed, ti)
					}
				}
				if len(changed) > 0 {
					images = append(images, RowImage{Dims: oldDims, Targets: changed})
				}
				// A no-op update dirties nothing.
			}
			t.dims[op.Row] = newDims
			t.targets[op.Row] = newTargets
		case Delete:
			images = append(images, RowImage{Dims: t.dims[op.Row]})
			t.dims = append(t.dims[:op.Row], t.dims[op.Row+1:]...)
			t.targets = append(t.targets[:op.Row], t.targets[op.Row+1:]...)
		}
	}
	return images, nil
}

// Rel freezes the current rows into an immutable relation. Rows are
// added in table order, so dictionary codes are assigned by first
// appearance — for append-style deltas this keeps the base relation's
// dictionaries as a prefix of the new ones, the property the planner's
// drift check verifies before trusting retained speeches.
func (t *Table) Rel() *relation.Relation {
	b := relation.NewBuilder(t.name, t.schema)
	for i := range t.dims {
		b.MustAddRow(t.dims[i], t.targets[i])
	}
	return b.Freeze()
}
