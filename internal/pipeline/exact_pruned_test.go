package pipeline

import (
	"context"
	"testing"
	"time"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/summarize"
)

// TestExactPrunedSolverMatchesExact is the end-to-end parity check
// behind the E-P registry entry: the submodular path bound must produce
// a store identical to solver E's, speech for speech, with fewer nodes
// expanded over the batch.
func TestExactPrunedSolverMatchesExact(t *testing.T) {
	rel := dataset.Flights(1500, 1)
	cfg := flightsConfig(rel)
	tmpl := engine.Template{TargetPhrase: "cancellation probability", Percent: true}
	run := func(solver string) (*engine.Store, Stats) {
		t.Helper()
		store, stats, err := Run(context.Background(), rel, cfg, Options{
			Solver: solver, Workers: 2, Template: tmpl,
			Solve: summarize.Options{Timeout: 5 * time.Second},
		})
		if err != nil {
			t.Fatalf("%s: %v", solver, err)
		}
		return store, stats
	}
	want, wantStats := run("E")
	got, gotStats := run("E-P")
	if gotStats.Problems == 0 || gotStats.Problems != wantStats.Problems {
		t.Fatalf("E-P solved %d problems, E %d", gotStats.Problems, wantStats.Problems)
	}
	ws, gs := want.Speeches(), got.Speeches()
	if len(ws) != len(gs) {
		t.Fatalf("store sizes differ: %d vs %d", len(gs), len(ws))
	}
	for i := range ws {
		if gs[i].Query.Key() != ws[i].Query.Key() ||
			gs[i].Text != ws[i].Text ||
			gs[i].Utility != ws[i].Utility {
			t.Fatalf("speech %d differs:\n  E-P %s u=%v: %q\n  E   %s u=%v: %q",
				i, gs[i].Query.Key(), gs[i].Utility, gs[i].Text,
				ws[i].Query.Key(), ws[i].Utility, ws[i].Text)
		}
	}
	if gotStats.NodesExpanded >= wantStats.NodesExpanded {
		t.Errorf("E-P expanded %d nodes, E %d: want fewer", gotStats.NodesExpanded, wantStats.NodesExpanded)
	}
}
