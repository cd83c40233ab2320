// Package baseline implements the two comparison methods of the paper's
// evaluation: the sampling-based data vocalization approach of prior work
// (CiceroDB, compared in Section VIII-E, Figures 10 and 11) and a
// machine-learning summarizer standing in for the paper's
// Simpletransformers seq2seq experiment.
package baseline

import (
	"math"
	"math/rand"
	"time"

	"cicero/internal/fact"
	"cicero/internal/relation"
)

// RangeFact is a fact whose typical value is reported as a range rather
// than a point estimate, accounting for sampling imprecision — the output
// form of the sampling baseline ("the cancellation probability is between
// 5 and 10%" as opposed to "is 6%").
type RangeFact struct {
	Scope fact.Scope
	Lo    float64
	Hi    float64
}

// Mid returns the range midpoint, used when simulated listeners turn the
// range into a point expectation.
func (r RangeFact) Mid() float64 { return (r.Lo + r.Hi) / 2 }

// Width returns the range width, the imprecision penalty in user studies.
func (r RangeFact) Width() float64 { return r.Hi - r.Lo }

// SamplingOptions configures the sampling vocalizer.
type SamplingOptions struct {
	// MaxFacts is the number of sentences to produce.
	MaxFacts int
	// SampleSize is the number of rows drawn per sampling round.
	SampleSize int
	// Rounds is the number of sampling rounds per candidate evaluation.
	Rounds int
	// MaxDims bounds the dimensions per fact scope.
	MaxDims int
	// Seed drives the sampling RNG.
	Seed int64
}

func (o SamplingOptions) withDefaults() SamplingOptions {
	if o.MaxFacts <= 0 {
		o.MaxFacts = 3
	}
	if o.SampleSize <= 0 {
		o.SampleSize = 64
	}
	if o.Rounds <= 0 {
		o.Rounds = 12
	}
	if o.MaxDims <= 0 {
		o.MaxDims = 1
	}
	return o
}

// SamplingResult is the baseline's answer to one query.
type SamplingResult struct {
	Facts []RangeFact
	// Latency is the time until the first sentence is ready (the system
	// starts speaking); the remaining sampling overlaps with speech
	// output, so latency ≪ total processing time.
	Latency time.Duration
	// Total is the full processing time across all sentences.
	Total time.Duration
	// SampledRows counts rows processed, the work metric.
	SampledRows int
}

// SamplingAnswer emulates the run-time behaviour of the prior
// data-vocalization work: for each of MaxFacts sentence slots it
// estimates, via repeated sampling, which candidate scope reduces the
// listener's error most, and emits the estimated average as a confidence
// range. All estimation happens at query time — there is no
// pre-processing — which is exactly the latency trade-off Figure 10
// measures.
func SamplingAnswer(view *relation.View, target int, freeDims []int, opts SamplingOptions) SamplingResult {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	start := time.Now()
	var res SamplingResult

	n := view.NumRows()
	if n == 0 {
		return res
	}
	if freeDims == nil {
		freeDims = make([]int, view.Rel.NumDims())
		for i := range freeDims {
			freeDims[i] = i
		}
	}

	// Candidate scopes: the overall scope plus every value of every free
	// dimension (the prior work vocalizes one aggregate per sentence).
	type candidate struct {
		scope fact.Scope
	}
	var candidates []candidate
	candidates = append(candidates, candidate{scope: fact.NewScope(nil, nil)})
	for _, d := range freeDims {
		col := view.Rel.Dim(d)
		for code := int32(0); code < int32(col.Cardinality()); code++ {
			candidates = append(candidates, candidate{
				scope: fact.NewScope([]int{d}, []int32{code}),
			})
		}
	}

	chosen := map[string]bool{}
	for slot := 0; slot < opts.MaxFacts; slot++ {
		bestIdx := -1
		var bestRange RangeFact
		bestScore := -1.0
		for ci, c := range candidates {
			if chosen[c.scope.Key()] {
				continue
			}
			mean, half, matched := sampleEstimate(view, target, c.scope, opts, rng, &res.SampledRows)
			if matched == 0 {
				continue
			}
			// Score: coverage-weighted spread from the global estimate —
			// the "interesting aggregate" heuristic of the prior work.
			score := float64(matched) * (math.Abs(mean) + half)
			if score > bestScore {
				bestScore = score
				bestIdx = ci
				bestRange = RangeFact{Scope: c.scope, Lo: mean - half, Hi: mean + half}
			}
		}
		if bestIdx < 0 {
			break
		}
		chosen[candidates[bestIdx].scope.Key()] = true
		res.Facts = append(res.Facts, bestRange)
		if slot == 0 {
			res.Latency = time.Since(start)
		}
	}
	res.Total = time.Since(start)
	if res.Latency == 0 {
		res.Latency = res.Total
	}
	return res
}

// sampleEstimate estimates the mean target value within a scope via
// repeated random samples, returning the mean, the half-width of a
// 2-sigma confidence range, and the number of matching sampled rows.
func sampleEstimate(view *relation.View, target int, scope fact.Scope, opts SamplingOptions, rng *rand.Rand, rowCounter *int) (mean, half float64, matched int) {
	n := view.NumRows()
	col := view.Rel.Target(target)
	var sum, sumSq float64
	for round := 0; round < opts.Rounds; round++ {
		for s := 0; s < opts.SampleSize; s++ {
			i := rng.Intn(n)
			row := view.Row(i)
			*rowCounter++
			if !scope.Matches(view.Rel, row) {
				continue
			}
			v := col.At(int(row))
			sum += v
			sumSq += v * v
			matched++
		}
	}
	if matched == 0 {
		return 0, 0, 0
	}
	mean = sum / float64(matched)
	variance := sumSq/float64(matched) - mean*mean
	if variance < 0 {
		variance = 0
	}
	half = 2 * math.Sqrt(variance/float64(matched))
	return mean, half, matched
}
