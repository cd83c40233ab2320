package delta

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/relation"
)

// sameRows reports the first row at which two relations differ in a
// dimension value or a target's bits, or -1 when they hold the same
// rows in the same order.
func sameRows(a, b *relation.Relation) int {
	n := min(a.NumRows(), b.NumRows())
	for row := 0; row < n; row++ {
		for d := 0; d < a.NumDims(); d++ {
			if a.Dim(d).Value(a.Dim(d).CodeAt(row)) != b.Dim(d).Value(b.Dim(d).CodeAt(row)) {
				return row
			}
		}
		for ti := 0; ti < a.NumTargets(); ti++ {
			if math.Float64bits(a.Target(ti).At(row)) != math.Float64bits(b.Target(ti).At(row)) {
				return row
			}
		}
	}
	if a.NumRows() != b.NumRows() {
		return n
	}
	return -1
}

// FuzzBatchApply drives the delta journal loader: a batch file is input
// from disk, decoded by LoadBatch and applied by Table.Apply. Nothing
// may panic; a refused batch leaves the table row for row as it was
// (Apply is all or nothing); an accepted one yields row images the
// planner can read under either prior.
func FuzzBatchApply(f *testing.F) {
	rel := dataset.ACS(40, 3)
	cfgs := []engine.Config{acsConfig(rel, engine.PriorZero), acsConfig(rel, engine.PriorGlobalMean)}
	for i := range cfgs {
		// Apply never changes the schema, so validating against the base
		// relation validates against every next one.
		if err := cfgs[i].Validate(rel); err != nil {
			f.Fatal(err)
		}
	}

	synth, err := json.Marshal(Synthesize(rel, 5, 13))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(synth)
	row0 := FromRelation(rel)
	bare, err := json.Marshal([]Op{
		{Kind: Insert, Dims: row0.dims[0], Targets: row0.targets[0]},
		{Kind: Update, Row: 1, Dims: row0.dims[2]},
		{Kind: Update, Row: 3, Targets: row0.targets[4]},
		{Kind: Delete, Row: 0},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bare)
	f.Add([]byte(`{"dataset":"flights","ops":[{"op":"delete"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := LoadBatch(bytes.NewReader(data))
		if err != nil {
			return
		}
		tab := FromRelation(rel)
		images, err := tab.Apply(b)
		next := tab.Rel()
		if err != nil {
			if row := sameRows(next, rel); row >= 0 {
				t.Fatalf("a refused batch (%v) changed the table at row %d", err, row)
			}
			return
		}
		for _, cfg := range cfgs {
			if p := PlanDirty(rel, next, cfg, images); p.Changed != len(images) {
				t.Fatalf("plan counts %d changed rows, Apply returned %d images", p.Changed, len(images))
			}
		}
	})
}
