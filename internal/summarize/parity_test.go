package summarize

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"cicero/internal/fact"
)

// This file pins the kernel's observable semantics: seeded scenario
// sweeps across fact counts, dimensionalities and pruning modes are
// compared against golden records captured from the reference
// implementation (the pre-optimization kernel). Any change to selected
// facts, utilities, or pruning counters is a regression, not a tuning
// artifact: the allocation-free kernel must be a pure performance
// transformation.
//
// Regenerate the goldens with:
//
//	PARITY_UPDATE=1 go test ./internal/summarize/ -run TestKernelParity

const parityGoldenPath = "testdata/parity_golden.json"

// parityScenario is one problem shape of the sweep.
type parityScenario struct {
	Name      string
	Rows      int
	MaxDims   int
	MaxFacts  int
	Seed      int64
	ZeroPrior bool
}

func parityScenarios() []parityScenario {
	return []parityScenario{
		{Name: "tiny-1d", Rows: 40, MaxDims: 1, MaxFacts: 2, Seed: 101},
		{Name: "small-2d", Rows: 90, MaxDims: 2, MaxFacts: 3, Seed: 202},
		{Name: "small-2d-zero-prior", Rows: 90, MaxDims: 2, MaxFacts: 3, Seed: 202, ZeroPrior: true},
		{Name: "mid-2d", Rows: 220, MaxDims: 2, MaxFacts: 3, Seed: 303},
		{Name: "mid-3d", Rows: 160, MaxDims: 3, MaxFacts: 3, Seed: 404},
		{Name: "wide-3d-m2", Rows: 260, MaxDims: 3, MaxFacts: 2, Seed: 505},
		{Name: "deep-3d-m4", Rows: 120, MaxDims: 3, MaxFacts: 4, Seed: 606},
	}
}

// parityCounters is the subset of RunStats that must match exactly.
type parityCounters struct {
	FactsEvaluated    int
	GroupsPruned      int
	BoundsComputed    int
	NodesExpanded     int64
	SpeechesEvaluated int64
	JoinedRows        int64
}

func countersOf(s RunStats) parityCounters {
	return parityCounters{
		FactsEvaluated:    s.FactsEvaluated,
		GroupsPruned:      s.GroupsPruned,
		BoundsComputed:    s.BoundsComputed,
		NodesExpanded:     s.NodesExpanded,
		SpeechesEvaluated: s.SpeechesEvaluated,
		JoinedRows:        s.JoinedRows,
	}
}

// parityRun is one (scenario, algorithm) golden record.
type parityRun struct {
	Scenario   string
	Alg        string
	FactIdx    []int32
	Utility    float64
	PriorError float64
	Counters   parityCounters
}

// parityBuild pins the evaluator build itself: the join output sizes and
// group structure.
type parityBuild struct {
	Scenario     string
	NumFacts     int
	NumGroups    int
	GroupFacts   []int
	PostingSizes []int
	JoinedRows   int64
	PriorError   float64
}

type parityGolden struct {
	Builds []parityBuild
	Runs   []parityRun
}

func parityEval(sc parityScenario) *Evaluator {
	rng := rand.New(rand.NewSource(sc.Seed))
	rel := randomRelation(rng, sc.Rows)
	view := rel.FullView()
	facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: sc.MaxDims})
	var prior fact.Prior = fact.MeanPrior(view, 0)
	if sc.ZeroPrior {
		prior = fact.ConstantPrior(0)
	}
	return NewEvaluator(view, 0, facts, prior)
}

// computeParity runs the full sweep with the current kernel.
func computeParity() parityGolden {
	var g parityGolden
	for _, sc := range parityScenarios() {
		e := parityEval(sc)
		build := parityBuild{
			Scenario:   sc.Name,
			NumFacts:   e.NumFacts(),
			NumGroups:  len(e.Groups()),
			JoinedRows: e.JoinedRows,
			PriorError: e.PriorError(),
		}
		for gi := range e.Groups() {
			build.GroupFacts = append(build.GroupFacts, len(e.Groups()[gi].Facts))
		}
		for fi := 0; fi < e.NumFacts(); fi++ {
			build.PostingSizes = append(build.PostingSizes, len(e.posting(fi)))
		}
		g.Builds = append(g.Builds, build)

		for _, mode := range []PruningMode{PruneNone, PruneNaive, PruneOptimized} {
			e := parityEval(sc)
			joined0 := e.JoinedRows
			sum := Greedy(e, Options{MaxFacts: sc.MaxFacts, Pruning: mode})
			_ = joined0
			g.Runs = append(g.Runs, parityRun{
				Scenario: sc.Name, Alg: mode.String(),
				FactIdx:    append([]int32{}, sum.FactIdx...),
				Utility:    sum.Utility,
				PriorError: sum.PriorError,
				Counters:   countersOf(sum.Stats),
			})
		}
		// E runs greedy for the lower bound, then the exact enumeration,
		// on one shared evaluator — the engine.Solve shape.
		e = parityEval(sc)
		seed := Greedy(e, Options{MaxFacts: sc.MaxFacts})
		sum := Exact(e, Options{MaxFacts: sc.MaxFacts, LowerBound: seed.Utility})
		g.Runs = append(g.Runs, parityRun{
			Scenario: sc.Name, Alg: "E",
			FactIdx:    append([]int32{}, sum.FactIdx...),
			Utility:    sum.Utility,
			PriorError: sum.PriorError,
			Counters:   countersOf(sum.Stats),
		})
	}
	return g
}

// TestKernelParity compares the current kernel against the golden
// records. Utilities are compared with a 1e-9 tolerance (summation order
// inside a utility computation is not pinned); selected facts and every
// work counter must match exactly.
func TestKernelParity(t *testing.T) {
	got := computeParity()
	if os.Getenv("PARITY_UPDATE") == "1" {
		data, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(parityGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parityGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %d builds, %d runs", parityGoldenPath, len(got.Builds), len(got.Runs))
		return
	}
	data, err := os.ReadFile(parityGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with PARITY_UPDATE=1): %v", err)
	}
	var want parityGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	if len(got.Builds) != len(want.Builds) {
		t.Fatalf("builds: got %d, want %d", len(got.Builds), len(want.Builds))
	}
	for i, wb := range want.Builds {
		gb := got.Builds[i]
		if gb.Scenario != wb.Scenario || gb.NumFacts != wb.NumFacts || gb.NumGroups != wb.NumGroups {
			t.Errorf("build %s: shape got %+v want %+v", wb.Scenario, gb, wb)
			continue
		}
		if gb.JoinedRows != wb.JoinedRows {
			t.Errorf("build %s: JoinedRows got %d want %d", wb.Scenario, gb.JoinedRows, wb.JoinedRows)
		}
		if math.Abs(gb.PriorError-wb.PriorError) > 1e-9 {
			t.Errorf("build %s: PriorError got %v want %v", wb.Scenario, gb.PriorError, wb.PriorError)
		}
		for j := range wb.GroupFacts {
			if gb.GroupFacts[j] != wb.GroupFacts[j] {
				t.Errorf("build %s: group %d facts got %d want %d", wb.Scenario, j, gb.GroupFacts[j], wb.GroupFacts[j])
			}
		}
		for j := range wb.PostingSizes {
			if gb.PostingSizes[j] != wb.PostingSizes[j] {
				t.Errorf("build %s: posting %d size got %d want %d", wb.Scenario, j, gb.PostingSizes[j], wb.PostingSizes[j])
			}
		}
	}

	if len(got.Runs) != len(want.Runs) {
		t.Fatalf("runs: got %d, want %d", len(got.Runs), len(want.Runs))
	}
	for i, wr := range want.Runs {
		gr := got.Runs[i]
		name := wr.Scenario + "/" + wr.Alg
		if gr.Scenario != wr.Scenario || gr.Alg != wr.Alg {
			t.Fatalf("run %d: got %s/%s want %s", i, gr.Scenario, gr.Alg, name)
		}
		if len(gr.FactIdx) != len(wr.FactIdx) {
			t.Errorf("%s: FactIdx got %v want %v", name, gr.FactIdx, wr.FactIdx)
		} else {
			for j := range wr.FactIdx {
				if gr.FactIdx[j] != wr.FactIdx[j] {
					t.Errorf("%s: FactIdx got %v want %v", name, gr.FactIdx, wr.FactIdx)
					break
				}
			}
		}
		if math.Abs(gr.Utility-wr.Utility) > 1e-9 {
			t.Errorf("%s: Utility got %v want %v", name, gr.Utility, wr.Utility)
		}
		if math.Abs(gr.PriorError-wr.PriorError) > 1e-9 {
			t.Errorf("%s: PriorError got %v want %v", name, gr.PriorError, wr.PriorError)
		}
		if gr.Counters != wr.Counters {
			t.Errorf("%s: counters got %+v want %+v", name, gr.Counters, wr.Counters)
		}
	}
}

// TestParityDeterminism guards the golden harness itself: two sweeps in
// one process must agree exactly on facts and counters, otherwise the
// goldens would be unstable by construction.
func TestParityDeterminism(t *testing.T) {
	a, b := computeParity(), computeParity()
	if len(a.Runs) != len(b.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(a.Runs), len(b.Runs))
	}
	for i := range a.Runs {
		ra, rb := a.Runs[i], b.Runs[i]
		if ra.Counters != rb.Counters {
			t.Errorf("%s/%s: counters not deterministic: %+v vs %+v", ra.Scenario, ra.Alg, ra.Counters, rb.Counters)
		}
		if len(ra.FactIdx) != len(rb.FactIdx) {
			t.Errorf("%s/%s: fact counts differ", ra.Scenario, ra.Alg)
			continue
		}
		for j := range ra.FactIdx {
			if ra.FactIdx[j] != rb.FactIdx[j] {
				t.Errorf("%s/%s: FactIdx not deterministic", ra.Scenario, ra.Alg)
				break
			}
		}
	}
}
