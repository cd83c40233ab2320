// Package experiments regenerates every table and figure of the paper's
// evaluation section (Section VIII) on the synthetic data substrate. Each
// experiment function returns a result struct with a Render method that
// prints the same rows/series the paper reports.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/pipeline"
	"cicero/internal/relation"
	"cicero/internal/summarize"
)

// Scenario identifies one evaluated (data set, target) pair with the
// code used on the Figure 3 x-axis.
type Scenario struct {
	Code    string
	Dataset string
	Target  string
}

// Figure3Scenarios lists the eight scenarios of Figure 3 in plot order.
func Figure3Scenarios() []Scenario {
	return []Scenario{
		{Code: "F-C", Dataset: "flights", Target: "cancelled"},
		{Code: "F-D", Dataset: "flights", Target: "delay"},
		{Code: "A-H", Dataset: "acs", Target: "hearing"},
		{Code: "A-V", Dataset: "acs", Target: "visual"},
		{Code: "A-C", Dataset: "acs", Target: "cognitive"},
		{Code: "S-C", Dataset: "stackoverflow", Target: "competence"},
		{Code: "S-O", Dataset: "stackoverflow", Target: "optimism"},
		{Code: "S-S", Dataset: "stackoverflow", Target: "job_satisfaction"},
	}
}

// ScenarioParams controls the cost of a scenario run. The paper
// pre-processes every query (8,500–11,300 speeches per scenario) with a
// 48-hour timeout; the defaults here subsample queries and tighten the
// exact-algorithm timeout so a full sweep stays in the minutes range.
// Raise SampleQueries/ExactTimeout to approach the paper's full setting.
type ScenarioParams struct {
	// Seed drives data generation.
	Seed int64
	// SampleQueries bounds the number of summarization problems solved
	// per scenario (0 = all problems).
	SampleQueries int
	// ExactTimeout bounds the exact algorithm per problem (0 = none).
	ExactTimeout time.Duration
	// MaxQueryLen, MaxFactDims, MaxFacts mirror the configuration file.
	MaxQueryLen, MaxFactDims, MaxFacts int
	// Workers bounds concurrent problem solving in the pre-processing
	// pipeline (0 or 1 = sequential).
	Workers int
}

// DefaultScenarioParams returns the scaled-down default setting.
func DefaultScenarioParams() ScenarioParams {
	return ScenarioParams{
		Seed:          1,
		SampleQueries: 24,
		ExactTimeout:  2 * time.Second,
		MaxQueryLen:   2,
		MaxFactDims:   2,
		MaxFacts:      3,
	}
}

// relCache avoids regenerating data sets across scenarios of one run.
type relCache map[string]*relation.Relation

func (c relCache) get(name string, seed int64) *relation.Relation {
	key := fmt.Sprintf("%s/%d", name, seed)
	if r, ok := c[key]; ok {
		return r
	}
	r := dataset.ByName(name, seed)
	c[key] = r
	return r
}

// subsample picks at most n problems evenly spread over the list,
// deterministically, so both trivial (few-row) and large subsets appear.
func subsample(problems []engine.Problem, n int) []engine.Problem {
	if n <= 0 || n >= len(problems) {
		return problems
	}
	out := make([]engine.Problem, 0, n)
	step := float64(len(problems)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, problems[int(float64(i)*step)])
	}
	return out
}

// scenarioProblems generates (and subsamples) the problems of a scenario.
func scenarioProblems(rel *relation.Relation, sc Scenario, p ScenarioParams) ([]engine.Problem, error) {
	cfg := engine.Config{
		Dataset:     sc.Dataset,
		Targets:     []string{sc.Target},
		MaxQueryLen: p.MaxQueryLen,
		MaxFactDims: p.MaxFactDims,
		MaxFacts:    p.MaxFacts,
		Prior:       engine.PriorGlobalMean,
	}
	problems, err := engine.Problems(rel, cfg)
	if err != nil {
		return nil, err
	}
	return subsample(problems, p.SampleQueries), nil
}

// Figure3Row is one (scenario, algorithm) measurement.
type Figure3Row struct {
	Scenario  string
	Algorithm engine.Algorithm
	// TotalTime is accumulated pre-processing time over the sampled
	// problems.
	TotalTime time.Duration
	// AvgScaledUtility is utility scaled to [0,1] per problem, averaged.
	AvgScaledUtility float64
	// Problems and TimedOut count solved and timeout-hit problems.
	Problems, TimedOut int
	// NodesExpanded and JoinedRows are the run's work counters
	// (pipeline.Stats): exact on any host, where the time is not.
	NodesExpanded, JoinedRows int64
}

// Figure3Result holds the full Figure 3 data: computation time and
// scaled utility per scenario and algorithm.
type Figure3Result struct {
	Rows   []Figure3Row
	Params ScenarioParams
}

// Figure3 runs the pre-processing comparison of Figure 3: the exact
// algorithms E and E-P (E under the submodular path bound) against the
// greedy variants G-B, G-P and G-O on eight scenario/target
// combinations.
func Figure3(params ScenarioParams) (*Figure3Result, error) {
	cache := relCache{}
	res := &Figure3Result{Params: params}
	for _, sc := range Figure3Scenarios() {
		rel := cache.get(sc.Dataset, params.Seed)
		problems, err := scenarioProblems(rel, sc, params)
		if err != nil {
			return nil, err
		}
		for _, alg := range engine.Algorithms() {
			cfg := engine.Config{
				Dataset: sc.Dataset, Targets: []string{sc.Target},
				MaxQueryLen: params.MaxQueryLen, MaxFactDims: params.MaxFactDims,
				MaxFacts: params.MaxFacts, Prior: engine.PriorGlobalMean,
			}
			_, stats, err := pipeline.RunProblems(context.Background(), rel, cfg, problems, pipeline.Options{
				Solver:  string(alg),
				Workers: params.Workers,
				Solve:   summarize.Options{Timeout: params.ExactTimeout},
			})
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, Figure3Row{
				Scenario:         sc.Code,
				Algorithm:        alg,
				TotalTime:        stats.Elapsed,
				AvgScaledUtility: stats.AvgScaledUtility(),
				Problems:         stats.Problems,
				TimedOut:         stats.TimedOut,
				NodesExpanded:    stats.NodesExpanded,
				JoinedRows:       stats.JoinedRows,
			})
		}
	}
	return res, nil
}

// Render prints the Figure 3 series: one block per scenario with time,
// scaled utility and the work counters per algorithm.
func (r *Figure3Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 3: pre-processing methods (sampled %d queries/scenario, exact timeout %v)\n",
		r.Params.SampleQueries, r.Params.ExactTimeout)
	fmt.Fprintf(w, "%-9s %-5s %14s %10s %9s %12s %14s\n", "Scenario", "Alg", "Time", "Utility", "Timeouts", "Nodes", "Joined rows")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-9s %-5s %14v %10.3f %6d/%d %12d %14d\n",
			row.Scenario, row.Algorithm, row.TotalTime.Round(time.Millisecond),
			row.AvgScaledUtility, row.TimedOut, row.Problems, row.NodesExpanded, row.JoinedRows)
	}
}

// Figure4Row is one scaling measurement.
type Figure4Row struct {
	Scenario  string
	Algorithm engine.Algorithm
	// Param is "length" (speech length sweep) or "dims" (fact width).
	Param string
	Value int
	Time  time.Duration
}

// Figure4Result holds the Figure 4 scaling series.
type Figure4Result struct {
	Rows   []Figure4Row
	Params ScenarioParams
}

// figure4Scenarios are the three scenarios of Figure 4.
func figure4Scenarios() []Scenario {
	return []Scenario{
		{Code: "A-H", Dataset: "acs", Target: "hearing"},
		{Code: "F-C", Dataset: "flights", Target: "cancelled"},
		{Code: "S-O", Dataset: "stackoverflow", Target: "optimism"},
	}
}

// Figure4 reproduces the scaling study: G-O and G-P pre-processing time
// as speech length grows from 2 to 4 facts, and as the number of
// dimensions per fact grows from 1 to 3.
func Figure4(params ScenarioParams) (*Figure4Result, error) {
	cache := relCache{}
	res := &Figure4Result{Params: params}
	algs := []engine.Algorithm{engine.AlgGreedyOpt, engine.AlgGreedyPrune}
	run := func(sc Scenario, alg engine.Algorithm, p ScenarioParams, param string, value int) error {
		rel := cache.get(sc.Dataset, p.Seed)
		problems, err := scenarioProblems(rel, sc, p)
		if err != nil {
			return err
		}
		cfg := engine.Config{
			Dataset: sc.Dataset, Targets: []string{sc.Target},
			MaxQueryLen: p.MaxQueryLen, MaxFactDims: p.MaxFactDims,
			MaxFacts: p.MaxFacts, Prior: engine.PriorGlobalMean,
		}
		_, stats, err := pipeline.RunProblems(context.Background(), rel, cfg, problems, pipeline.Options{
			Solver: string(alg), Workers: p.Workers,
		})
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, Figure4Row{
			Scenario: sc.Code, Algorithm: alg, Param: param, Value: value, Time: stats.Elapsed,
		})
		return nil
	}
	for _, sc := range figure4Scenarios() {
		for _, alg := range algs {
			for length := 2; length <= 4; length++ {
				p := params
				p.MaxFacts = length
				if err := run(sc, alg, p, "length", length); err != nil {
					return nil, err
				}
			}
			for dims := 1; dims <= 3; dims++ {
				p := params
				p.MaxFactDims = dims
				if err := run(sc, alg, p, "dims", dims); err != nil {
					return nil, err
				}
			}
		}
	}
	return res, nil
}

// Render prints the Figure 4 series grouped by scenario and parameter.
func (r *Figure4Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 4: scaling speech length and fact dimensions (G-O vs G-P)")
	fmt.Fprintf(w, "%-9s %-7s %-7s %6s %14s\n", "Scenario", "Param", "Alg", "Value", "Time")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-9s %-7s %-7s %6d %14v\n",
			row.Scenario, row.Param, row.Algorithm, row.Value, row.Time.Round(time.Millisecond))
	}
}
