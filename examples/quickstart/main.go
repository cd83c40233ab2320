// Quickstart: build a small relation, enumerate candidate facts, and let
// the greedy summarizer pick the three facts that best correct a
// listener's expectations.
package main

import (
	"context"
	"fmt"

	"cicero"
)

func main() {
	// A relation of coffee prices by city and roast.
	b := cicero.NewBuilder("coffee", cicero.Schema{
		Dimensions: []string{"city", "roast"},
		Targets:    []string{"price"},
	})
	type row struct {
		city, roast string
		price       float64
	}
	rows := []row{
		{"Berlin", "light", 3.2}, {"Berlin", "dark", 3.0},
		{"Zurich", "light", 5.9}, {"Zurich", "dark", 5.6},
		{"Lisbon", "light", 2.1}, {"Lisbon", "dark", 2.0},
		{"Oslo", "light", 5.8}, {"Oslo", "dark", 5.5},
	}
	for _, r := range rows {
		b.MustAddRow([]string{r.city, r.roast}, []float64{r.price})
	}
	rel := b.Freeze()
	view := rel.FullView()

	// Candidate facts: averages for every city, roast, and combination.
	facts := cicero.GenerateFacts(view, 0, cicero.GenerateOptions{MaxDims: 2})
	fmt.Printf("candidate facts: %d\n", len(facts))

	// Listeners expect the global average price by default; pick up to
	// three facts minimizing the expected estimation error.
	prior := cicero.MeanPrior(view, 0)
	e := cicero.NewEvaluator(view, 0, facts, prior)
	summary := cicero.Greedy(e, cicero.Options{MaxFacts: 3})

	fmt.Printf("prior error: %.2f, speech utility: %.2f (%.0f%% of error removed)\n",
		summary.PriorError, summary.Utility, 100*summary.ScaledUtility())
	tpl := cicero.Template{Unit: "euros"}
	fmt.Println(tpl.Render(rel, cicero.Query{Target: "price"}, summary.Facts))

	// Serving: pre-generate speeches for every supported query, then
	// answer voice requests through the unified serving layer.
	cfg := cicero.DefaultConfig(rel)
	cfg.MaxQueryLen = 1
	store, _, err := cicero.Preprocess(context.Background(), rel, cfg, cicero.PipelineOptions{Template: tpl})
	if err != nil {
		panic(err)
	}
	ex := cicero.NewVoiceExtractor(rel, nil, cfg.MaxQueryLen)
	// The toy relation has two rows per city, so lower the extremum
	// group-size floor accordingly.
	answerer := cicero.NewAnswerer(rel, store, ex, cicero.ServeOptions{MinExtremumRows: 1})
	for _, q := range []string{"price in Berlin", "which city has the highest price"} {
		ans := answerer.Answer(q)
		fmt.Printf("Q: %s\nA: %s  [%s, %v]\n", q, ans.Text, ans.Kind, ans.Latency)
	}
}
