package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"cicero/internal/engine"
	"cicero/internal/voice"
)

// fastParams keeps scenario experiments small for unit testing.
func fastParams() ScenarioParams {
	return ScenarioParams{
		Seed:          1,
		SampleQueries: 3,
		ExactTimeout:  200 * time.Millisecond,
		MaxQueryLen:   1,
		MaxFactDims:   1,
		MaxFacts:      2,
	}
}

func TestTable1(t *testing.T) {
	res := Table1(1)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	wantDims := map[string]int{"ACS NY": 3, "Stack Overflow": 7, "Flights": 6, "Primaries": 5}
	for _, row := range res.Rows {
		if row.Dims != wantDims[row.Name] {
			t.Errorf("%s dims = %d, want %d", row.Name, row.Dims, wantDims[row.Name])
		}
		if row.SizeMB <= 0 || row.Rows <= 0 {
			t.Errorf("%s has empty size/rows", row.Name)
		}
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "Table I") || !strings.Contains(sb.String(), "Stack Overflow") {
		t.Errorf("render = %q", sb.String())
	}
}

func TestFigure3SmallRun(t *testing.T) {
	// Three-fact speeches give the exact searches a tree to prune.
	p := fastParams()
	p.MaxFacts = 3
	res, err := Figure3(p)
	if err != nil {
		t.Fatal(err)
	}
	// 8 scenarios × 5 algorithms (E, E-P, G-B, G-P, G-O).
	if len(res.Rows) != 40 {
		t.Fatalf("rows = %d, want 40", len(res.Rows))
	}
	// Greedy variants must agree on utility; exact at least as good.
	// E-P's path bound never expands more nodes than E's Lemma 1, and
	// somewhere it expands fewer.
	byScenario := map[string]map[string]Figure3Row{}
	fewer := 0
	for _, row := range res.Rows {
		if byScenario[row.Scenario] == nil {
			byScenario[row.Scenario] = map[string]Figure3Row{}
		}
		byScenario[row.Scenario][string(row.Algorithm)] = row
	}
	for sc, algs := range byScenario {
		gb, gp, gopt := algs["G-B"], algs["G-P"], algs["G-O"]
		if diff := gb.AvgScaledUtility - gp.AvgScaledUtility; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: G-B %v vs G-P %v", sc, gb.AvgScaledUtility, gp.AvgScaledUtility)
		}
		if diff := gb.AvgScaledUtility - gopt.AvgScaledUtility; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s: G-B %v vs G-O %v", sc, gb.AvgScaledUtility, gopt.AvgScaledUtility)
		}
		e, ep := algs["E"], algs["E-P"]
		if e.AvgScaledUtility < gb.AvgScaledUtility-1e-9 {
			t.Errorf("%s: exact %v below greedy %v", sc, e.AvgScaledUtility, gb.AvgScaledUtility)
		}
		if ep.AvgScaledUtility < gb.AvgScaledUtility-1e-9 {
			t.Errorf("%s: pruned exact %v below greedy %v", sc, ep.AvgScaledUtility, gb.AvgScaledUtility)
		}
		if ep.NodesExpanded > e.NodesExpanded {
			t.Errorf("%s: E-P expanded %d nodes, E %d", sc, ep.NodesExpanded, e.NodesExpanded)
		}
		if ep.NodesExpanded < e.NodesExpanded {
			fewer++
		}
		if e.JoinedRows == 0 || gb.JoinedRows == 0 {
			t.Errorf("%s: joined rows E %d, G-B %d", sc, e.JoinedRows, gb.JoinedRows)
		}
		// With no timeouts both exact solvers return the same speeches,
		// so their averages agree bit for bit.
		if e.TimedOut == 0 && ep.TimedOut == 0 && e.AvgScaledUtility != ep.AvgScaledUtility {
			t.Errorf("%s: E %v vs E-P %v", sc, e.AvgScaledUtility, ep.AvgScaledUtility)
		}
		// Utility within [0, 1].
		for alg, row := range algs {
			if row.AvgScaledUtility < 0 || row.AvgScaledUtility > 1+1e-9 {
				t.Errorf("%s/%s scaled utility %v out of range", sc, alg, row.AvgScaledUtility)
			}
		}
	}
	if fewer == 0 {
		t.Error("E-P expanded as many nodes as E in every scenario")
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "F-C") || !strings.Contains(sb.String(), "S-S") || !strings.Contains(sb.String(), "Nodes") {
		t.Errorf("render missing scenarios or counters: %q", sb.String())
	}
}

func TestFigure4SmallRun(t *testing.T) {
	p := fastParams()
	p.SampleQueries = 2
	res, err := Figure4(p)
	if err != nil {
		t.Fatal(err)
	}
	// 3 scenarios × 2 algorithms × (3 lengths + 3 dims) = 36 rows.
	if len(res.Rows) != 36 {
		t.Fatalf("rows = %d, want 36", len(res.Rows))
	}
	var sb strings.Builder
	res.Render(&sb)
	for _, want := range []string{"A-H", "F-C", "S-O", "length", "dims"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable2(t *testing.T) {
	res, err := Table2(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestUtility <= res.WorstUtility {
		t.Errorf("best utility %v not above worst %v", res.BestUtility, res.WorstUtility)
	}
	if res.WorstText == "" || res.BestText == "" {
		t.Error("speech texts empty")
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "Table II") {
		t.Error("render header missing")
	}
}

func TestFigure5(t *testing.T) {
	res, err := Figure5(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 3 {
		t.Fatalf("results = %d", len(res.Results))
	}
	if !res.Ordered {
		t.Error("ratings should preserve the model's quality order")
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "Worst") || !strings.Contains(sb.String(), "Best") {
		t.Error("render incomplete")
	}
}

func TestFigure6(t *testing.T) {
	res, err := Figure6(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Worst) != 15 || len(res.Best) != 15 {
		t.Fatalf("points = %d/%d, want 15", len(res.Worst), len(res.Best))
	}
	if res.BestErr >= res.WorstErr {
		t.Errorf("best-speech error %v not below worst %v", res.BestErr, res.WorstErr)
	}
}

func TestFigure7(t *testing.T) {
	res, err := Figure7(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ACS) != 4 || len(res.Flights) != 4 {
		t.Fatalf("models = %d/%d", len(res.ACS), len(res.Flights))
	}
	// Closest yields the lowest error on both data sets.
	for _, series := range [][]int{} {
		_ = series
	}
	check := func(name string, errs []float64, models []string) {
		closestIdx := -1
		for i, m := range models {
			if m == "Closest" {
				closestIdx = i
			}
		}
		for i := range errs {
			if i != closestIdx && errs[i] < errs[closestIdx] {
				t.Errorf("%s: model %s error %v below Closest %v",
					name, models[i], errs[i], errs[closestIdx])
			}
		}
	}
	var acsErrs, flErrs []float64
	var models []string
	for i := range res.ACS {
		acsErrs = append(acsErrs, res.ACS[i].MedianError)
		flErrs = append(flErrs, res.Flights[i].MedianError)
		models = append(models, res.ACS[i].Model.String())
	}
	check("ACS", acsErrs, models)
	check("Flights", flErrs, models)
}

func TestFigure8(t *testing.T) {
	res := Figure8(1)
	if len(res.Participants) != 10 {
		t.Fatalf("participants = %d", len(res.Participants))
	}
	if res.FasterByVoice < 6 {
		t.Errorf("faster by voice = %d, want majority", res.FasterByVoice)
	}
}

func TestTable3(t *testing.T) {
	res := Table3(1)
	if len(res.Counts) != 3 {
		t.Fatalf("deployments = %d", len(res.Counts))
	}
	for _, name := range res.Deployments {
		total := 0
		for _, c := range res.Counts[name] {
			total += c
		}
		if total != 50 {
			t.Errorf("%s classified %d requests, want 50", name, total)
		}
		// The dominant classes of the paper appear: many S-Queries for
		// every deployment.
		if res.Counts[name][voice.SQuery] == 0 {
			t.Errorf("%s has no supported queries", name)
		}
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "S-Query") {
		t.Error("render incomplete")
	}
}

func TestFigure9(t *testing.T) {
	res := Figure9(1)
	totalPreds := res.ByPredicates[0] + res.ByPredicates[1] + res.ByPredicates[2]
	if totalPreds == 0 {
		t.Fatal("no classified retrieval queries")
	}
	// Figure 9a shape: one-predicate queries dominate.
	if res.ByPredicates[1] <= res.ByPredicates[2] {
		t.Errorf("one-predicate queries (%d) should outnumber two-predicate (%d)",
			res.ByPredicates[1], res.ByPredicates[2])
	}
	// Figure 9b shape: retrieval dominates comparisons and extrema.
	if res.ByKind[0] <= res.ByKind[1] || res.ByKind[0] <= res.ByKind[2] {
		t.Errorf("retrieval should dominate: %v", res.ByKind)
	}
}

func TestFigure10(t *testing.T) {
	res, err := Figure10(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Queries == 0 {
			t.Errorf("%s: no supported queries measured", row.Dataset)
			continue
		}
		// The headline result: lookup latency is far below the
		// baseline's total processing time.
		if row.OursLatency*10 > row.BaselineTotal {
			t.Errorf("%s: ours latency %v not ≪ baseline total %v",
				row.Dataset, row.OursLatency, row.BaselineTotal)
		}
		// Baseline latency is below its total (speech overlap).
		if row.BaselineLatency > row.BaselineTotal {
			t.Errorf("%s: baseline latency %v above total %v",
				row.Dataset, row.BaselineLatency, row.BaselineTotal)
		}
	}
}

func TestFigure11(t *testing.T) {
	res, err := Figure11(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 2 {
		t.Fatalf("results = %d", len(res.Results))
	}
	// Ours wins on Precise and Informative (the paper's explanation:
	// precise values beat ranges on those adjectives).
	var base, ours *struct {
		ratings map[string]float64
	}
	_ = base
	_ = ours
	var baseR, oursR map[string]float64
	for _, r := range res.Results {
		if r.Name == "Baseline" {
			baseR = r.AvgRating
		} else {
			oursR = r.AvgRating
		}
	}
	for _, adj := range []string{"Precise", "Informative"} {
		if oursR[adj] <= baseR[adj] {
			t.Errorf("%s: ours %.2f not above baseline %.2f", adj, oursR[adj], baseR[adj])
		}
	}
}

func TestMLExperiment(t *testing.T) {
	res, err := MLExperiment(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainPairs == 0 || res.TestPairs == 0 {
		t.Fatalf("train/test = %d/%d", res.TrainPairs, res.TestPairs)
	}
	// The paper's finding: ML speeches rank below the optimizer's.
	if res.AvgUtilityML > res.AvgUtilityOurs+1e-9 {
		t.Errorf("ML utility %.3f above ours %.3f", res.AvgUtilityML, res.AvgUtilityOurs)
	}
	var mlGood, oursGood float64
	for _, r := range res.Ratings {
		if r.Name == "ML" {
			mlGood = r.AvgRating["Good"]
		} else {
			oursGood = r.AvgRating["Good"]
		}
	}
	if mlGood > oursGood {
		t.Errorf("ML rating %.2f above ours %.2f", mlGood, oursGood)
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "ML experiment") {
		t.Error("render incomplete")
	}
}

func TestSubsample(t *testing.T) {
	problems := make([]engine.Problem, 10)
	for i := range problems {
		problems[i].Query.Target = fmt.Sprint(i)
	}
	var got []string
	for _, p := range subsample(problems, 4) {
		got = append(got, p.Query.Target)
	}
	if want := []string{"0", "2", "5", "7"}; !slices.Equal(got, want) {
		t.Errorf("subsample(10 problems, 4) = %v, want %v", got, want)
	}
	for _, n := range []int{0, -1, 10, 11} {
		if got := subsample(problems, n); len(got) != len(problems) {
			t.Errorf("subsample(10 problems, %d) kept %d, want all 10", n, len(got))
		}
	}
}
