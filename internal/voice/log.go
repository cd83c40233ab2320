package voice

import (
	"fmt"
	"math/rand"
	"strings"

	"cicero/internal/relation"
)

// Deployment bundles everything needed to simulate one of the paper's
// public Google Assistant deployments (Stack Overflow survey, flight
// statistics, democratic primaries).
type Deployment struct {
	// Name identifies the deployment in Table III column order.
	Name string
	// Rel is the underlying relation.
	Rel *relation.Relation
	// Extractor is the trained text-to-query extractor.
	Extractor *Extractor
	// TargetPhrases lists spoken names for target columns used when
	// synthesizing utterances (e.g. "cancellations" for "cancelled").
	TargetPhrases map[string][]string
}

// LogEntry is one simulated voice request with the intent it was
// generated from. Classification of the text should recover the intent;
// the Table III experiment reports the classified distribution.
type LogEntry struct {
	Text   string
	Intent RequestType
}

var (
	helpUtterances = []string{
		"help", "what can you do", "what can I ask you",
		"how does this work", "give me instructions", "what do you know about",
	}
	repeatUtterances = []string{
		"repeat that", "say that again please", "come again", "once more",
	}
	otherUtterances = []string{
		"play some music", "tell me a joke", "thank you", "good morning",
		"stop", "never mind", "what is the weather like", "open the calendar",
	}
)

// targetPhrase picks a spoken phrase for a random target column.
func (d *Deployment) targetPhrase(rng *rand.Rand) string {
	targets := d.Rel.Schema().Targets
	t := targets[rng.Intn(len(targets))]
	if phrases := d.TargetPhrases[t]; len(phrases) > 0 {
		return phrases[rng.Intn(len(phrases))]
	}
	return spokenName(t)
}

// spokenName renders a column name the way a user says it.
func spokenName(name string) string {
	return strings.Map(func(r rune) rune {
		if r == '_' {
			return ' '
		}
		return r
	}, name)
}

// randomValue picks a random dictionary value of a random dimension,
// avoiding dimensions already used.
func (d *Deployment) randomValue(rng *rand.Rand, used map[int]bool) (int, string) {
	for tries := 0; tries < 32; tries++ {
		dim := rng.Intn(d.Rel.NumDims())
		if used[dim] {
			continue
		}
		vals := d.Rel.Dim(dim).Values()
		if len(vals) == 0 {
			continue
		}
		return dim, vals[rng.Intn(len(vals))]
	}
	return -1, ""
}

// retrievalUtterance synthesizes a supported query with the given number
// of predicates (0, 1 or 2).
func (d *Deployment) retrievalUtterance(rng *rand.Rand, preds int) string {
	target := d.targetPhrase(rng)
	used := map[int]bool{}
	var vals []string
	for len(vals) < preds {
		dim, v := d.randomValue(rng, used)
		if dim < 0 {
			break
		}
		used[dim] = true
		vals = append(vals, v)
	}
	switch len(vals) {
	case 0:
		forms := []string{
			"what is the average %s",
			"tell me about %s",
			"%s overall",
		}
		return fmt.Sprintf(forms[rng.Intn(len(forms))], target)
	case 1:
		forms := []string{
			"%s in %s",
			"what is the %s for %s",
			"tell me the %s for %s",
		}
		f := forms[rng.Intn(len(forms))]
		if strings.Count(f, "%s") == 2 {
			return fmt.Sprintf(f, target, vals[0])
		}
		return fmt.Sprintf(f, target, vals[0])
	default:
		forms := []string{
			"%s for %s and %s",
			"what is the %s in %s for %s",
		}
		return fmt.Sprintf(forms[rng.Intn(len(forms))], target, vals[0], vals[1])
	}
}

// unsupportedUtterance synthesizes an unsupported query: a comparison or
// an extremum request, the dominant unsupported categories in the logs.
func (d *Deployment) unsupportedUtterance(rng *rand.Rand) string {
	target := d.targetPhrase(rng)
	if rng.Intn(2) == 0 {
		u1 := map[int]bool{}
		dim, v1 := d.randomValue(rng, u1)
		_, v2 := d.randomValue(rng, u1)
		if dim < 0 {
			v1, v2 = "a", "b"
		}
		return fmt.Sprintf("make a comparison of %s between %s and %s", target, v1, v2)
	}
	dimName := d.Rel.Schema().Dimensions[rng.Intn(d.Rel.NumDims())]
	return fmt.Sprintf("which %s has the highest %s", spokenName(dimName), target)
}

// SQueryPredicateWeights is the distribution of predicate counts used for
// simulated supported queries, shaped after Figure 9(a): most queries use
// one predicate, many none, two-predicate queries are rare.
var SQueryPredicateWeights = [3]int{15, 47, 1}

// SimulateLog generates a deterministic request log with exactly the
// given number of requests per intent, in shuffled order. Supported-query
// predicate counts follow SQueryPredicateWeights.
func (d *Deployment) SimulateLog(counts map[RequestType]int, seed int64) []LogEntry {
	rng := rand.New(rand.NewSource(seed))
	var log []LogEntry
	add := func(intent RequestType, text string) {
		log = append(log, LogEntry{Text: text, Intent: intent})
	}
	for i := 0; i < counts[Help]; i++ {
		add(Help, helpUtterances[rng.Intn(len(helpUtterances))])
	}
	for i := 0; i < counts[Repeat]; i++ {
		add(Repeat, repeatUtterances[rng.Intn(len(repeatUtterances))])
	}
	// Deterministic proportional allocation of predicate counts, with at
	// least one two-predicate query in reasonably sized logs (the paper
	// observed a single two-predicate voice query across its studies).
	nq := counts[SQuery]
	totalW := SQueryPredicateWeights[0] + SQueryPredicateWeights[1] + SQueryPredicateWeights[2]
	n0 := nq * SQueryPredicateWeights[0] / totalW
	n2 := nq * SQueryPredicateWeights[2] / totalW
	if n2 == 0 && nq >= 12 {
		n2 = 1
	}
	for i := 0; i < nq; i++ {
		preds := 1
		if i < n0 {
			preds = 0
		} else if i >= nq-n2 {
			preds = 2
		}
		add(SQuery, d.retrievalUtterance(rng, preds))
	}
	for i := 0; i < counts[UQuery]; i++ {
		add(UQuery, d.unsupportedUtterance(rng))
	}
	for i := 0; i < counts[Other]; i++ {
		add(Other, otherUtterances[rng.Intn(len(otherUtterances))])
	}
	rng.Shuffle(len(log), func(i, j int) { log[i], log[j] = log[j], log[i] })
	return log
}

// Table3Counts returns the request-type distribution observed in the
// paper's Table III for each deployment (the last 50 requests each).
func Table3Counts() map[string]map[RequestType]int {
	return map[string]map[RequestType]int{
		"Primaries":  {Help: 17, Repeat: 3, SQuery: 16, UQuery: 1, Other: 13},
		"Flights":    {Help: 9, Repeat: 0, SQuery: 12, UQuery: 5, Other: 24},
		"Developers": {Help: 4, Repeat: 0, SQuery: 13, UQuery: 16, Other: 17},
	}
}
