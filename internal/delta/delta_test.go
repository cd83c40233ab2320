package delta

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/pipeline"
	"cicero/internal/relation"
)

func acsConfig(rel *relation.Relation, prior engine.PriorMode) engine.Config {
	cfg := engine.DefaultConfig(rel)
	cfg.Targets = []string{"hearing", "visual"}
	cfg.Prior = prior
	return cfg
}

var testOpts = pipeline.Options{
	Solver:   "G-O",
	Template: engine.Template{TargetPhrase: "prevalence"},
}

// storesIdentical asserts bit-identity between two stores: same keys,
// same facts (scopes and values), same utilities, same texts.
func storesIdentical(t *testing.T, got, want engine.StoreView) {
	t.Helper()
	g, w := got.Speeches(), want.Speeches()
	if len(g) != len(w) {
		t.Fatalf("store sizes differ: got %d, want %d", len(g), len(w))
	}
	for i := range g {
		gk, wk := g[i].Query.Key(), w[i].Query.Key()
		if gk != wk {
			t.Fatalf("speech %d: key %q, want %q", i, gk, wk)
		}
		if g[i].Utility != w[i].Utility || g[i].PriorError != w[i].PriorError {
			t.Fatalf("%s: utility/prior %v/%v, want %v/%v",
				gk, g[i].Utility, g[i].PriorError, w[i].Utility, w[i].PriorError)
		}
		if g[i].Text != w[i].Text {
			t.Fatalf("%s: text %q, want %q", gk, g[i].Text, w[i].Text)
		}
		if len(g[i].Facts) != len(w[i].Facts) {
			t.Fatalf("%s: %d facts, want %d", gk, len(g[i].Facts), len(w[i].Facts))
		}
		for j := range g[i].Facts {
			gf, wf := g[i].Facts[j], w[i].Facts[j]
			if gf.Value != wf.Value || len(gf.Scope.Dims) != len(wf.Scope.Dims) {
				t.Fatalf("%s: fact %d differs: %+v vs %+v", gk, j, gf, wf)
			}
			for k := range gf.Scope.Dims {
				if gf.Scope.Dims[k] != wf.Scope.Dims[k] || gf.Scope.Codes[k] != wf.Scope.Codes[k] {
					t.Fatalf("%s: fact %d scope differs: %+v vs %+v", gk, j, gf.Scope, wf.Scope)
				}
			}
		}
	}
}

// applyAndCompare runs the incremental path against the full-rebuild
// oracle for a batch and returns the incremental result.
func applyAndCompare(t *testing.T, rel *relation.Relation, cfg engine.Config, b Batch) *Result {
	t.Helper()
	ctx := context.Background()
	base, _, err := pipeline.Run(ctx, rel, cfg, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	tab := FromRelation(rel)
	images, err := tab.Apply(b)
	if err != nil {
		t.Fatal(err)
	}
	next := tab.Rel()

	res, err := Apply(ctx, base, rel, next, cfg, testOpts, images)
	if err != nil {
		t.Fatal(err)
	}
	oracle, _, err := pipeline.Run(ctx, next, cfg, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	storesIdentical(t, res.Store, oracle)
	return res
}

// TestApplyParityTargetUpdates is the core tentpole property: a small
// clustered target-value delta yields a patched store bit-identical to
// a from-scratch rebuild, while re-solving only a fraction of the
// problem space.
func TestApplyParityTargetUpdates(t *testing.T) {
	rel := dataset.ACS(600, 1)
	cfg := acsConfig(rel, engine.PriorZero)
	b := Synthesize(rel, 6, 7)
	if len(b.Ops) != 6 {
		t.Fatalf("synthesized %d ops, want 6", len(b.Ops))
	}

	res := applyAndCompare(t, rel, cfg, b)
	if res.FullDirty {
		t.Fatal("target-only updates must not degrade to a full rebuild")
	}
	if len(res.FullDirtyTargets) != 0 {
		t.Fatalf("zero prior must not dirty whole targets, got %v", res.FullDirtyTargets)
	}
	if res.Retained == 0 {
		t.Fatal("no speeches retained: the delta path re-solved everything")
	}
	if res.Solved >= res.TotalProblems/2 {
		t.Fatalf("clustered delta solved %d of %d problems; locality lost", res.Solved, res.TotalProblems)
	}
	// Synthesize only touches target 0 of the schema ("hearing"): no
	// "visual" problem may re-solve.
	for _, up := range res.Upserts {
		if up.Query.Target != "hearing" {
			t.Fatalf("re-solved a problem of untouched target %q", up.Query.Target)
		}
	}
}

// TestApplyParityGlobalMeanPrior pins the honest degradation: moving a
// target value moves that target's full-table mean, which is an input
// to every problem of the target under the global-mean prior, so the
// whole target re-solves — and the result still matches the oracle.
func TestApplyParityGlobalMeanPrior(t *testing.T) {
	rel := dataset.ACS(400, 2)
	cfg := acsConfig(rel, engine.PriorGlobalMean)
	res := applyAndCompare(t, rel, cfg, Synthesize(rel, 4, 3))
	if res.FullDirty {
		t.Fatal("prior movement must degrade per-target, not to a full rebuild")
	}
	found := false
	for _, tgt := range res.FullDirtyTargets {
		if tgt == "hearing" {
			found = true
		}
		if tgt == "visual" {
			t.Fatal("untouched target's mean cannot have moved")
		}
	}
	if !found {
		t.Fatalf("expected hearing in FullDirtyTargets, got %v", res.FullDirtyTargets)
	}
	if res.Retained == 0 {
		t.Fatal("visual speeches should have been retained")
	}
}

// TestApplyParityStructuralOps exercises inserts (including a brand-new
// dimension value), a dimension-moving update, and the journal halves
// (upserts + removals) against the oracle.
func TestApplyParityStructuralOps(t *testing.T) {
	rel := dataset.ACS(400, 4)
	b := Batch{Dataset: "acs", Ops: []Op{
		// New rows, one introducing a new borough value (appended to the
		// dictionary, so codes stay a prefix — no full rebuild).
		{Kind: Insert, Dims: []string{"Bronx", "elder", "Female"}, Targets: []float64{70, 90, 50, 160, 55, 120}},
		{Kind: Insert, Dims: []string{"Yonkers", "adult", "Male"}, Targets: []float64{12, 17, 30, 35, 10, 25}},
		// Move a row between subsets.
		{Kind: Update, Row: 10, Dims: []string{"Queens", "teen", "Male"}},
	}}
	res := applyAndCompare(t, rel, acsConfig(rel, engine.PriorZero), b)
	if res.FullDirty {
		t.Fatal("append-style structural delta must not degrade to full rebuild")
	}
	if res.Retained == 0 || res.Solved == 0 {
		t.Fatalf("expected a mix of retained and solved, got retained=%d solved=%d", res.Retained, res.Solved)
	}
}

// TestApplyDictionaryDriftFallsBackToFull pins the drift guard: deleting
// the first-appearance row of a dictionary value reorders codes in the
// rebuilt relation, which invalidates every retained fact scope — the
// planner must fall back to a full re-solve, and parity must still hold.
func TestApplyDictionaryDriftFallsBackToFull(t *testing.T) {
	rel := dataset.ACS(300, 5)
	res := applyAndCompare(t, rel, acsConfig(rel, engine.PriorZero),
		Batch{Ops: []Op{{Kind: Delete, Row: 0}}})
	if !res.FullDirty {
		t.Skip("row 0 deletion did not drift the dictionaries for this seed")
	}
	if res.Retained != 0 {
		t.Fatalf("full-dirty plan retained %d speeches", res.Retained)
	}
}

// TestPlanPerTargetRefinement checks the planner's dirty-set shape
// directly on a tiny relation.
func TestPlanPerTargetRefinement(t *testing.T) {
	b := relation.NewBuilder("tiny", relation.Schema{
		Dimensions: []string{"d"},
		Targets:    []string{"x", "y"},
	})
	b.MustAddRow([]string{"a"}, []float64{1, 10})
	b.MustAddRow([]string{"b"}, []float64{2, 20})
	rel := b.Freeze()
	cfg := engine.DefaultConfig(rel)
	cfg.Prior = engine.PriorZero
	if err := cfg.Validate(rel); err != nil {
		t.Fatal(err)
	}

	tab := FromRelation(rel)
	images, err := tab.Apply(Batch{Ops: []Op{{Kind: Update, Row: 0, Targets: []float64{5, 10}}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(images) != 1 || len(images[0].Targets) != 1 || images[0].Targets[0] != 0 {
		t.Fatalf("image = %+v, want one image affecting target 0 only", images)
	}
	plan := PlanDirty(rel, tab.Rel(), cfg, images)
	for _, tc := range []struct {
		target, key string
		dirty       bool
	}{
		{"x", engine.Query{Target: "x"}.Key(), true},
		{"x", engine.Query{Target: "x", Predicates: []engine.NamedPredicate{{Column: "d", Value: "a"}}}.Key(), true},
		{"x", engine.Query{Target: "x", Predicates: []engine.NamedPredicate{{Column: "d", Value: "b"}}}.Key(), false},
		{"y", engine.Query{Target: "y"}.Key(), false},
		{"y", engine.Query{Target: "y", Predicates: []engine.NamedPredicate{{Column: "d", Value: "a"}}}.Key(), false},
	} {
		if got := plan.IsDirty(tc.target, tc.key); got != tc.dirty {
			t.Errorf("IsDirty(%s, %s) = %v, want %v", tc.target, tc.key, got, tc.dirty)
		}
	}
}

// TestTableApplyValidationAborts pins all-or-nothing batch semantics.
func TestTableApplyValidationAborts(t *testing.T) {
	rel := dataset.ACS(50, 1)
	tab := FromRelation(rel)
	_, err := tab.Apply(Batch{Ops: []Op{
		{Kind: Delete, Row: 0},
		{Kind: Delete, Row: 49}, // out of range after the first delete
	}})
	if err == nil {
		t.Fatal("expected out-of-range error")
	}
	if len(tab.dims) != 50 {
		t.Fatalf("failed batch mutated the table: %d rows", len(tab.dims))
	}
	if _, err := tab.Apply(Batch{Dataset: "flights", Ops: []Op{{Kind: Delete, Row: 0}}}); err == nil ||
		!strings.Contains(err.Error(), "dataset") {
		t.Fatalf("dataset mismatch not refused: %v", err)
	}
}

// TestTableRoundTrip: decoding a relation and freezing it unchanged
// reproduces identical dictionaries and rows.
func TestTableRoundTrip(t *testing.T) {
	rel := dataset.ACS(200, 9)
	got := FromRelation(rel).Rel()
	if got.NumRows() != rel.NumRows() {
		t.Fatalf("rows = %d, want %d", got.NumRows(), rel.NumRows())
	}
	for d := 0; d < rel.NumDims(); d++ {
		gv, wv := got.Dim(d).Values(), rel.Dim(d).Values()
		if len(gv) != len(wv) {
			t.Fatalf("dim %d: %d values, want %d", d, len(gv), len(wv))
		}
		for i := range gv {
			if gv[i] != wv[i] {
				t.Fatalf("dim %d: dictionary drifted at %d: %q vs %q", d, i, gv[i], wv[i])
			}
		}
	}
	for ti := 0; ti < rel.NumTargets(); ti++ {
		for row := 0; row < rel.NumRows(); row++ {
			if got.Target(ti).At(row) != rel.Target(ti).At(row) {
				t.Fatalf("target %d row %d differs", ti, row)
			}
		}
	}
}

// TestBatchTagAndJSON: the provenance tag is deterministic, sensitive to
// content, and batches survive a JSON round trip in both encodings.
func TestBatchTagAndJSON(t *testing.T) {
	b := Batch{Dataset: "acs", Ops: []Op{
		{Kind: Update, Row: 3, Targets: []float64{1, 2, 3, 4, 5, 6}},
		{Kind: Delete, Row: 7},
	}}
	if b.Tag() == "" || b.Tag() != b.Tag() {
		t.Fatalf("tag unstable: %q", b.Tag())
	}
	if (Batch{}).Tag() != "" {
		t.Fatal("empty batch must have an empty tag")
	}
	b2 := b
	b2.Ops = append([]Op(nil), b.Ops...)
	b2.Ops[1].Row = 8
	if b.Tag() == b2.Tag() {
		t.Fatal("different batches share a tag")
	}

	data, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/ops.json"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBatchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tag() != b.Tag() || got.Dataset != "acs" {
		t.Fatalf("round trip changed the batch: %+v", got)
	}
	bare, err := LoadBatch(strings.NewReader(`[{"op":"delete","row":1}]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(bare.Ops) != 1 || bare.Ops[0].Kind != Delete {
		t.Fatalf("bare array decode = %+v", bare)
	}
}
