package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/fact"
	"cicero/internal/relation"
	"cicero/internal/userstudy"
)

// Table1Row describes one data set (Table I of the paper).
type Table1Row struct {
	Name    string
	SizeMB  float64
	Rows    int
	Dims    int
	Targets int
}

// Table1Result is the data-set overview.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 regenerates the data-set overview with the synthetic substrate.
// Sizes are in-memory footprints of the scaled-down relations; dimension
// and target counts match the paper (flights carries both evaluation
// targets, cancellation and delay, in one relation).
func Table1(seed int64) *Table1Result {
	res := &Table1Result{}
	order := []string{"acs", "stackoverflow", "flights", "primaries"}
	display := map[string]string{
		"acs": "ACS NY", "stackoverflow": "Stack Overflow",
		"flights": "Flights", "primaries": "Primaries",
	}
	for _, name := range order {
		rel := dataset.ByName(name, seed)
		res.Rows = append(res.Rows, Table1Row{
			Name:    display[name],
			SizeMB:  float64(rel.SizeBytes()) / (1 << 20),
			Rows:    rel.NumRows(),
			Dims:    rel.NumDims(),
			Targets: rel.NumTargets(),
		})
	}
	return res
}

// Render prints Table I.
func (r *Table1Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Table I: overview of data sets used for experiments")
	fmt.Fprintf(w, "%-15s %9s %8s %6s %8s\n", "Data Set", "Size", "Rows", "#Dims", "#Targets")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-15s %7.2fMB %8d %6d %8d\n", row.Name, row.SizeMB, row.Rows, row.Dims, row.Targets)
	}
}

// randomSpeeches draws n random speeches of the given length from the
// candidate facts and scores each with the utility model — the speech
// pool construction of the Figure 5 and Table II studies.
func randomSpeeches(view *relation.View, target int, candidates []fact.Fact, prior fact.Prior, n, length int, seed int64) ([][]fact.Fact, []float64) {
	rng := rand.New(rand.NewSource(seed))
	speeches := make([][]fact.Fact, n)
	utilities := make([]float64, n)
	for i := 0; i < n; i++ {
		seen := map[int]bool{}
		var speech []fact.Fact
		for len(speech) < length && len(seen) < len(candidates) {
			j := rng.Intn(len(candidates))
			if seen[j] {
				continue
			}
			seen[j] = true
			speech = append(speech, candidates[j])
		}
		speeches[i] = speech
		utilities[i] = fact.Utility(view, speech, prior, target)
	}
	return speeches, utilities
}

// Table2Result holds the worst- and best-ranked speeches of the ACS
// visual-impairment scenario (Table II of the paper).
type Table2Result struct {
	WorstText, BestText       string
	WorstUtility, BestUtility float64
}

// Table2 regenerates the two alternative speech descriptions: 100 random
// three-fact speeches for the visual-impairment query are ranked by the
// utility model; the worst and best are rendered. The paper's best speech
// spans the age dimension ("About 80 out of 1000 elder persons...") while
// the worst wastes facts on near-identical borough values.
func Table2(seed int64) (*Table2Result, error) {
	rel := dataset.ACS(dataset.DefaultRows["acs"], seed)
	view := rel.FullView()
	target := rel.Schema().TargetIndex("visual")
	prior := fact.MeanPrior(view, target)
	candidates := fact.Generate(view, target, fact.GenerateOptions{MaxDims: 2})

	speeches, utilities := randomSpeeches(view, target, candidates, prior, 100, 3, seed)
	worst, _, best := userstudy.RankSpeeches(utilities)

	tpl := engine.Template{TargetPhrase: "rate of visual impairment per 1000 persons"}
	q := engine.Query{Target: "visual"}
	priorErr := fact.Deviation(view, nil, prior, target)
	return &Table2Result{
		WorstText:    tpl.Render(rel, q, speeches[worst]),
		BestText:     tpl.Render(rel, q, speeches[best]),
		WorstUtility: utilities[worst] / priorErr,
		BestUtility:  utilities[best] / priorErr,
	}, nil
}

// Render prints Table II.
func (r *Table2Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Table II: comparing two alternative speech descriptions")
	fmt.Fprintf(w, "Worst speech (scaled utility %.3f):\n  %s\n", r.WorstUtility, r.WorstText)
	fmt.Fprintf(w, "Best speech (scaled utility %.3f):\n  %s\n", r.BestUtility, r.BestText)
}
