// Package load synthesizes the voice-query traffic the benchmark
// (bench/) replays: Generate renders a mixed one-shot workload over a
// relation — summaries, extrema, comparisons, and repeat requests, with
// configurable zipf popularity skew — and GenerateDialogues renders
// multi-turn sessions of an opening question plus elliptical
// follow-ups. Both are deterministic in their seed, and golden digests
// pin what they emit. The package only writes texts; sending them and
// measuring the replies is bench/'s job.
package load

import (
	"fmt"
	"math/rand"
	"strings"

	"cicero/internal/relation"
)

// Mix weighs the request kinds of a synthesized workload. Zero-valued
// kinds are omitted; the zero Mix gets production-log-shaped defaults.
type Mix struct {
	Summary    int `json:"summary"`
	Extremum   int `json:"extremum"`
	Comparison int `json:"comparison"`
	Repeat     int `json:"repeat"`
}

func (m Mix) total() int { return m.Summary + m.Extremum + m.Comparison + m.Repeat }

// DefaultMix mirrors the deployment logs: summaries dominate, extrema
// and comparisons are the common unsupported kinds, repeats trail.
var DefaultMix = Mix{Summary: 70, Extremum: 12, Comparison: 10, Repeat: 8}

// Options shapes workload generation.
type Options struct {
	// Requests is the total number of requests (default 1000).
	Requests int
	// Distinct bounds the pool of distinct utterances per kind
	// (default 64): the knob that, with Zipf, controls how cacheable
	// the workload is.
	Distinct int
	// Zipf is the popularity skew exponent s > 1 of the rank
	// distribution over each pool (default 1.3); larger means a few
	// hot queries dominate.
	Zipf float64
	// Seed makes generation deterministic.
	Seed int64
	// Mix weighs the request kinds (default DefaultMix).
	Mix Mix
	// TargetPhrases lists spoken names per target column (e.g.
	// "cancellations" for "cancelled"); column names are used when
	// empty.
	TargetPhrases map[string][]string
}

func (o Options) withDefaults() Options {
	if o.Requests <= 0 {
		o.Requests = 1000
	}
	if o.Distinct <= 0 {
		o.Distinct = 64
	}
	if o.Zipf <= 1 {
		o.Zipf = 1.3
	}
	if o.Mix.total() == 0 {
		o.Mix = DefaultMix
	}
	return o
}

// Generate synthesizes the request texts of a mixed workload over rel.
// Each kind draws from a bounded pool of distinct utterances with
// zipf-distributed popularity, so replays exercise both the cache-hit
// and the cache-miss path in controlled proportion.
func Generate(rel *relation.Relation, opts Options) []string {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))

	pools := [][]string{
		summaryPool(rel, rng, opts),
		extremumPool(rel, rng, opts),
		comparisonPool(rel, rng, opts),
		{"repeat that", "say that again please", "come again", "once more please"},
	}
	weights := []int{opts.Mix.Summary, opts.Mix.Extremum, opts.Mix.Comparison, opts.Mix.Repeat}
	// An empty pool contributes nothing; zero its weight so the sampler
	// never spins on it (a relation can be too small for some kind).
	total := 0
	zipfs := make([]*rand.Zipf, len(pools))
	for i, pool := range pools {
		if len(pool) == 0 {
			weights[i] = 0
		}
		if weights[i] > 0 {
			zipfs[i] = rand.NewZipf(rng, opts.Zipf, 1, uint64(len(pool)-1))
		}
		total += weights[i]
	}
	if total == 0 {
		return nil
	}

	texts := make([]string, 0, opts.Requests)
	for len(texts) < opts.Requests {
		k, pick := 0, rng.Intn(total)
		for pick >= weights[k] {
			pick -= weights[k]
			k++
		}
		texts = append(texts, pools[k][zipfs[k].Uint64()])
	}
	return texts
}

// spokenTarget names a target column the way a user would say it.
func spokenTarget(rng *rand.Rand, opts Options, target string) string {
	if phrases := opts.TargetPhrases[target]; len(phrases) > 0 {
		return phrases[rng.Intn(len(phrases))]
	}
	return strings.ReplaceAll(target, "_", " ")
}

// randomDimValue picks a random (dimension index, value).
func randomDimValue(rel *relation.Relation, rng *rand.Rand) (int, string) {
	for tries := 0; tries < 32; tries++ {
		d := rng.Intn(rel.NumDims())
		if vals := rel.Dim(d).Values(); len(vals) > 0 {
			return d, vals[rng.Intn(len(vals))]
		}
	}
	return -1, ""
}

func summaryPool(rel *relation.Relation, rng *rand.Rand, opts Options) []string {
	forms := []string{"%s in %s", "what is the %s for %s", "tell me the %s for %s"}
	pool := make([]string, 0, opts.Distinct)
	seen := map[string]bool{}
	targets := rel.Schema().Targets
	// The attempt cap ends generation early when the relation's distinct
	// utterance space is smaller than the requested pool.
	for i := 0; len(pool) < opts.Distinct && i < opts.Distinct*8; i++ {
		target := spokenTarget(rng, opts, targets[rng.Intn(len(targets))])
		var text string
		if rng.Intn(8) == 0 {
			text = fmt.Sprintf("what is the average %s", target)
		} else {
			_, v := randomDimValue(rel, rng)
			if v == "" {
				break
			}
			text = fmt.Sprintf(forms[rng.Intn(len(forms))], target, v)
		}
		if !seen[text] {
			seen[text] = true
			pool = append(pool, text)
		}
	}
	return pool
}

func extremumPool(rel *relation.Relation, rng *rand.Rand, opts Options) []string {
	words := []string{"highest", "lowest", "most", "fewest", "largest", "smallest"}
	pool := make([]string, 0, opts.Distinct)
	seen := map[string]bool{}
	targets := rel.Schema().Targets
	dims := rel.Schema().Dimensions
	for i := 0; len(pool) < opts.Distinct && i < opts.Distinct*8; i++ {
		target := spokenTarget(rng, opts, targets[rng.Intn(len(targets))])
		dim := strings.ReplaceAll(dims[rng.Intn(len(dims))], "_", " ")
		text := fmt.Sprintf("which %s has the %s %s", dim, words[rng.Intn(len(words))], target)
		if !seen[text] {
			seen[text] = true
			pool = append(pool, text)
		}
	}
	return pool
}

func comparisonPool(rel *relation.Relation, rng *rand.Rand, opts Options) []string {
	pool := make([]string, 0, opts.Distinct)
	seen := map[string]bool{}
	targets := rel.Schema().Targets
	for i := 0; len(pool) < opts.Distinct && i < opts.Distinct*8; i++ {
		target := spokenTarget(rng, opts, targets[rng.Intn(len(targets))])
		d, v1 := randomDimValue(rel, rng)
		if d < 0 {
			break
		}
		vals := rel.Dim(d).Values()
		if len(vals) < 2 {
			continue
		}
		v2 := vals[rng.Intn(len(vals))]
		if v2 == v1 {
			continue
		}
		text := fmt.Sprintf("compare %s between %s and %s", target, v1, v2)
		if !seen[text] {
			seen[text] = true
			pool = append(pool, text)
		}
	}
	return pool
}
