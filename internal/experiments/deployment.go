package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"cicero/internal/baseline"
	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/pipeline"
	"cicero/internal/voice"
)

// Deployments builds the three public-deployment simulations of Section
// VIII-D: primaries, flights and developers (Stack Overflow), each with a
// trained extractor.
func Deployments(seed int64) []*voice.Deployment {
	pr := dataset.Primaries(dataset.DefaultRows["primaries"], seed)
	fl := dataset.Flights(dataset.DefaultRows["flights"], seed)
	so := dataset.StackOverflow(dataset.DefaultRows["stackoverflow"], seed)
	return []*voice.Deployment{
		{
			Name: "Primaries", Rel: pr,
			Extractor: voice.NewExtractor(pr, []voice.Sample{
				{Phrase: "polling", Target: "pct"},
				{Phrase: "poll numbers", Target: "pct"},
				{Phrase: "support", Target: "pct"},
			}, 2),
			TargetPhrases: map[string][]string{"pct": {"polling", "support", "poll numbers"}},
		},
		{
			Name: "Flights", Rel: fl,
			Extractor: voice.NewExtractor(fl, []voice.Sample{
				{Phrase: "cancellations", Target: "cancelled"},
				{Phrase: "cancellation probability", Target: "cancelled"},
				{Phrase: "delays", Target: "delay"},
				{Phrase: "flight delays", Target: "delay"},
			}, 2),
			TargetPhrases: map[string][]string{
				"cancelled": {"cancellations", "cancellation probability"},
				"delay":     {"delays", "flight delays"},
			},
		},
		{
			Name: "Developers", Rel: so,
			Extractor: voice.NewExtractor(so, []voice.Sample{
				{Phrase: "job satisfaction", Target: "job_satisfaction"},
				{Phrase: "optimism", Target: "optimism"},
				{Phrase: "competence", Target: "competence"},
				{Phrase: "salary", Target: "salary_k"},
			}, 2),
			TargetPhrases: map[string][]string{
				"job_satisfaction": {"job satisfaction"},
				"optimism":         {"optimism"},
				"competence":       {"competence"},
			},
		},
	}
}

// Table3Result holds the classified request distribution per deployment.
type Table3Result struct {
	// Counts maps deployment name → request type → classified count.
	Counts map[string]map[voice.RequestType]int
	// Deployments preserves Table III column order.
	Deployments []string
}

// Table3 regenerates the request classification: each deployment's
// simulated log of 50 requests (drawn with the paper's Table III intent
// distribution) is classified by the live classifier; the table reports
// the classified counts.
func Table3(seed int64) *Table3Result {
	res := &Table3Result{
		Counts:      map[string]map[voice.RequestType]int{},
		Deployments: []string{"Primaries", "Flights", "Developers"},
	}
	paper := voice.Table3Counts()
	for i, dep := range Deployments(seed) {
		log := dep.SimulateLog(paper[dep.Name], seed+int64(i))
		counts := map[voice.RequestType]int{}
		for _, entry := range log {
			counts[voice.Classify(entry.Text, dep.Extractor).Type]++
		}
		res.Counts[dep.Name] = counts
	}
	return res
}

// Render prints Table III.
func (r *Table3Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Table III: classification of last 50 voice requests per deployment")
	fmt.Fprintf(w, "%-14s", "Request Type")
	for _, d := range r.Deployments {
		fmt.Fprintf(w, " %11s", d)
	}
	fmt.Fprintln(w)
	for _, rt := range voice.RequestTypes() {
		fmt.Fprintf(w, "%-14s", rt.String())
		for _, d := range r.Deployments {
			fmt.Fprintf(w, " %11d", r.Counts[d][rt])
		}
		fmt.Fprintln(w)
	}
}

// Figure9Result holds the query-complexity and query-type distributions.
type Figure9Result struct {
	// ByPredicates counts data-access queries restricting 0, 1 and 2
	// dimension columns (Figure 9a).
	ByPredicates [3]int
	// ByKind counts retrieval, comparison and extremum queries
	// (Figure 9b).
	ByKind [3]int
}

// Figure9 classifies the data-access queries from all three simulated
// deployment logs by size and type.
func Figure9(seed int64) *Figure9Result {
	res := &Figure9Result{}
	paper := voice.Table3Counts()
	for i, dep := range Deployments(seed) {
		log := dep.SimulateLog(paper[dep.Name], seed+int64(i))
		for _, entry := range log {
			c := voice.Classify(entry.Text, dep.Extractor)
			if c.Type != voice.SQuery && c.Type != voice.UQuery {
				continue
			}
			if c.Kind == voice.Retrieval {
				if c.Predicates >= 0 && c.Predicates <= 2 {
					res.ByPredicates[c.Predicates]++
				}
			}
			res.ByKind[int(c.Kind)]++
		}
	}
	return res
}

// Render prints the two pie-chart series of Figure 9.
func (r *Figure9Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 9(a): data-access queries by complexity (#predicates)")
	for i, c := range r.ByPredicates {
		fmt.Fprintf(w, "  %d predicates: %d\n", i, c)
	}
	fmt.Fprintln(w, "Figure 9(b): queries by type")
	kinds := []voice.QueryKind{voice.Retrieval, voice.Comparison, voice.Extremum}
	for i, k := range kinds {
		fmt.Fprintf(w, "  %s: %d\n", k.String(), r.ByKind[i])
	}
}

// Figure10Row is one deployment's latency/processing measurement.
type Figure10Row struct {
	Dataset string
	// OursLatency is the run-time lookup latency of the pre-processing
	// approach; OursPreprocess is the per-query share of pre-processing.
	OursLatency, OursPreprocess time.Duration
	// BaselineLatency is time-to-first-sentence of the sampling
	// baseline; BaselineTotal its full processing time.
	BaselineLatency, BaselineTotal time.Duration
	// Queries is the number of supported queries measured.
	Queries int
}

// Figure10Result compares run-time characteristics against the baseline.
type Figure10Result struct {
	Rows []Figure10Row
}

// Figure10 reproduces the latency comparison: for each deployment, the
// supported queries of the simulated logs are answered (a) by lookup in a
// pre-processed speech store and (b) by the run-time sampling baseline.
// The pre-processing approach answers in microseconds; the baseline pays
// sampling time on every query but starts speaking after the first
// sentence is selected.
func Figure10(seed int64) (*Figure10Result, error) {
	res := &Figure10Result{}
	paper := voice.Table3Counts()
	for i, dep := range Deployments(seed) {
		// Pre-process a one-predicate speech store for the deployment's
		// primary target to measure per-query pre-processing cost.
		primaryTarget := dep.Rel.Schema().Targets[0]
		cfg := engine.Config{
			Dataset: dep.Rel.Name(), Targets: []string{primaryTarget},
			MaxQueryLen: 1, MaxFactDims: 2, MaxFacts: 3,
			Prior: engine.PriorGlobalMean,
		}
		store, stats, err := pipeline.Run(context.Background(), dep.Rel, cfg, pipeline.Options{
			Solver: string(engine.AlgGreedyOpt),
		})
		if err != nil {
			return nil, err
		}

		log := dep.SimulateLog(paper[dep.Name], seed+int64(i))
		var row Figure10Row
		row.Dataset = dep.Name
		row.OursPreprocess = stats.PerQuery
		var latSum, bLatSum, bTotSum time.Duration
		for _, entry := range log {
			c := voice.Classify(entry.Text, dep.Extractor)
			if c.Type != voice.SQuery {
				continue
			}
			q := c.Query
			q.Target = primaryTarget // the store covers the primary target
			lookupStart := time.Now()
			store.Lookup(q)
			latSum += time.Since(lookupStart)

			ti, preds, err := q.Resolve(dep.Rel)
			if err != nil {
				continue
			}
			view := dep.Rel.FullView().Select(preds)
			if view.NumRows() == 0 {
				view = dep.Rel.FullView()
			}
			b := baseline.SamplingAnswer(view, ti, nil, baseline.SamplingOptions{
				MaxFacts: 3, Seed: seed,
			})
			bLatSum += b.Latency
			bTotSum += b.Total
			row.Queries++
		}
		if row.Queries > 0 {
			row.OursLatency = latSum / time.Duration(row.Queries)
			row.BaselineLatency = bLatSum / time.Duration(row.Queries)
			row.BaselineTotal = bTotSum / time.Duration(row.Queries)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the Figure 10 comparison.
func (r *Figure10Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 10: average latency and per-query processing time")
	fmt.Fprintf(w, "%-11s %8s %14s %14s %14s %14s\n",
		"Deployment", "Queries", "Ours-latency", "Ours-preproc", "Base-latency", "Base-total")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-11s %8d %14v %14v %14v %14v\n",
			row.Dataset, row.Queries, row.OursLatency, row.OursPreprocess.Round(time.Microsecond),
			row.BaselineLatency.Round(time.Microsecond), row.BaselineTotal.Round(time.Microsecond))
	}
}
