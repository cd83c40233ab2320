package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"cicero/internal/engine"
	"cicero/internal/httpserve"
	"cicero/internal/load"
	"cicero/internal/relation"
	"cicero/internal/serve"
	"cicero/internal/voice"
)

// The five answer shapes that scan the relation at request time.
var scanShapes = []string{"extremum", "topk", "trend", "constrained", "comparison"}

// request is one entry of a workload's send sequence.
type request struct {
	text     int32 // index into traffic.texts
	expect   int32 // index into traffic.expects
	dialogue int32 // index into traffic.sessions; -1 for a stateless request
	opening  bool  // the first turn of its dialogue
	// canary marks a slot that carries, once a delta has been published,
	// an utterance for one of that publish's dirty keys instead of text.
	canary bool
}

// expectation is what the oracle recorded for one request.
type expectation struct {
	kind     string
	hash     uint64 // answerHash(kind, text)
	followUp bool   // the turn resolves only against its dialogue's context
}

// traffic is the seeded input of one run: the distinct utterances, the
// order they are sent in, and the answers the oracle expects.
type traffic struct {
	texts    []string
	bodies   [][]byte // stateless request body per text
	reqs     []request
	sessions []string // base session id per dialogue
	// storeKeys holds, for storeKeyTraffic, the stored query each text was
	// rendered from: the oracle additionally demands that speech verbatim.
	storeKeys []engine.Query
	expects   []expectation
}

// answerHash folds an answer's kind and text into the value responses are
// compared by.
func answerHash(kind, text string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(text))
	return h.Sum64()
}

func statelessBody(text string) []byte {
	b, err := json.Marshal(httpserve.AnswerRequest{Text: text})
	if err != nil {
		panic(err) // a string always marshals
	}
	return b
}

// intern returns the index of text in t.texts, adding it if new.
func (t *traffic) intern(index map[string]int32, text string) int32 {
	if i, ok := index[text]; ok {
		return i
	}
	i := int32(len(t.texts))
	index[text] = i
	t.texts = append(t.texts, text)
	t.bodies = append(t.bodies, statelessBody(text))
	return i
}

// newTraffic renders n requests (turns, for dialogues) of the workload's
// traffic from the seed. The same seed gives the same traffic.
func newTraffic(sp *spec, rel *relation.Relation, cfg engine.Config, ex *voice.Extractor, seed int64, n int) (*traffic, error) {
	phrases := voice.SpokenTargetPhrases(voice.DefaultSamples(sp.dataset))
	t := &traffic{}
	index := map[string]int32{}
	switch sp.traffic {
	case mixTraffic:
		texts := load.Generate(rel, load.Options{
			Requests: n, Distinct: 64, Zipf: 1.3, Seed: seed, TargetPhrases: phrases,
		})
		for i, text := range texts {
			id := t.intern(index, text)
			// Every tenth slot is a canary slot; it only differs from a
			// plain request while a publisher runs beside the reads.
			t.reqs = append(t.reqs, request{text: id, expect: id, dialogue: -1, canary: i%10 == 9})
		}
	case storeKeyTraffic:
		if err := t.addStoreKeyTexts(rel, cfg, ex, phrases, index); err != nil {
			return nil, err
		}
		if len(t.texts) < 1000 {
			return nil, fmt.Errorf("workload %s: only %d store keys have an utterance that classifies back to them, want at least 1000", sp.name, len(t.texts))
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			id := int32(rng.Intn(len(t.texts)))
			t.reqs = append(t.reqs, request{text: id, expect: id, dialogue: -1})
		}
	case dialogTraffic:
		t.addDialogues(rel, ex, phrases, index, seed, n)
	}
	if len(t.reqs) == 0 {
		return nil, fmt.Errorf("workload %s: generator produced no requests", sp.name)
	}
	return t, nil
}

// storeKeyUtterance renders the question a user would ask for exactly the
// stored query q.
func storeKeyUtterance(q engine.Query, phrases map[string][]string) string {
	target := strings.ReplaceAll(q.Target, "_", " ")
	if p := phrases[q.Target]; len(p) > 0 {
		target = p[0]
	}
	switch len(q.Predicates) {
	case 0:
		return "what is the average " + target
	case 1:
		return fmt.Sprintf("what is the %s for %s", target, q.Predicates[0].Value)
	default:
		return fmt.Sprintf("what is the %s for %s and %s", target, q.Predicates[0].Value, q.Predicates[1].Value)
	}
}

// classifiesTo reports whether the utterance is a supported query that
// extracts to exactly key.
func classifiesTo(text string, ex *voice.Extractor, key string) bool {
	c := voice.Classify(text, ex)
	return c.Type == voice.SQuery && c.Query.Key() == key
}

// addStoreKeyTexts adds one utterance per problem of the configuration —
// the keys the store will hold — keeping those that classify back to
// their key.
func (t *traffic) addStoreKeyTexts(rel *relation.Relation, cfg engine.Config, ex *voice.Extractor, phrases map[string][]string, index map[string]int32) error {
	return engine.EachProblemLazy(rel, cfg, func(lp engine.LazyProblem) error {
		q := lp.Query.Canonical()
		text := storeKeyUtterance(q, phrases)
		if _, dup := index[text]; !dup && classifiesTo(text, ex, q.Key()) {
			t.intern(index, text)
			t.storeKeys = append(t.storeKeys, q)
		}
		return nil
	})
}

// addDialogues renders dialogues worth about n turns: load's extremum
// dialogues (whose follow-ups stay extremum or become top-k) plus
// bench-owned dialogues that open with a trend, constrained or comparison
// question, so that each of the five scan shapes is a fair share of turns.
func (t *traffic) addDialogues(rel *relation.Relation, ex *voice.Extractor, phrases map[string][]string, index map[string]int32, seed int64, n int) {
	const turnsPerDialogue = 3 // about; both generators give 2..4
	total := max(n/turnsPerDialogue, 10)
	own := total * 45 / 100

	dialogues := load.GenerateDialogues(rel, load.DialogOptions{
		Dialogues: total - own, Turns: 4, Distinct: 32, Zipf: 1.3, Seed: seed, TargetPhrases: phrases,
	})
	rng := rand.New(rand.NewSource(seed ^ 0x5ca9))
	openings := scanOpenings(rel, ex, phrases, rng)
	for i := 0; i < own; i++ {
		shape := openings[i%len(openings)]
		o := shape[rng.Intn(len(shape))]
		d := load.Dialogue{Turns: []load.Turn{{Text: o.text}}}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			d.Turns = append(d.Turns, load.Turn{
				Text:     fmt.Sprintf("what about %s", o.followValues[rng.Intn(len(o.followValues))]),
				FollowUp: true,
			})
		}
		dialogues = append(dialogues, d)
	}
	// Interleave the shapes in time.
	rng.Shuffle(len(dialogues), func(i, j int) { dialogues[i], dialogues[j] = dialogues[j], dialogues[i] })

	for di, d := range dialogues {
		t.sessions = append(t.sessions, fmt.Sprintf("s%05d", di))
		for ti, turn := range d.Turns {
			t.reqs = append(t.reqs, request{
				text:     t.intern(index, turn.Text),
				expect:   int32(len(t.expects)),
				dialogue: int32(di),
				opening:  ti == 0,
			})
			t.expects = append(t.expects, expectation{followUp: turn.FollowUp})
		}
	}
}

// opening is one bench-owned dialogue opening with the values its
// follow-ups ("what about X") may name.
type opening struct {
	text         string
	followValues []string
}

// scanOpenings renders the trend, constrained and comparison opening
// pools. A candidate is kept only if a stateless answerer over the
// relation answers it with the intended shape; those shapes never touch
// the speech store, so an empty store serves for the check.
func scanOpenings(rel *relation.Relation, ex *voice.Extractor, phrases map[string][]string, rng *rand.Rand) [][]opening {
	probe := serve.New(rel, engine.NewStore(), ex, serve.Options{})
	keep := func(pool []opening, kind serve.Kind, o opening) []opening {
		if ans := probe.Answer(o.text); ans.Answered && ans.Kind == kind {
			return append(pool, o)
		}
		return pool
	}
	spoken := func(target string) string {
		if p := phrases[target]; len(p) > 0 {
			return p[rng.Intn(len(p))]
		}
		return strings.ReplaceAll(target, "_", " ")
	}
	schema := rel.Schema()
	timeDim, _ := ex.TimeDim()
	// Follow-up values come from a low-cardinality dimension other than
	// time, so "what about X" narrows or swaps a predicate without
	// emptying the subset.
	facet := 0
	for d := 0; d < rel.NumDims(); d++ {
		if schema.Dimensions[d] == timeDim {
			continue
		}
		if schema.Dimensions[facet] == timeDim || rel.Dim(d).Cardinality() < rel.Dim(facet).Cardinality() {
			facet = d
		}
	}
	facetValues := rel.Dim(facet).Values()
	target := schema.Targets[0]

	var trend, constrained, comparison []opening
	for _, period := range ex.TimePeriods() {
		trend = keep(trend, serve.Trend, opening{
			text:         fmt.Sprintf("how did %s change since %s", spoken(target), period),
			followValues: facetValues,
		})
	}
	if len(schema.Targets) > 1 {
		limit := schema.Targets[1]
		for _, thousand := range []int{100, 200, 300, 400, 500, 600, 800, 1000} {
			constrained = keep(constrained, serve.Constrained, opening{
				text:         fmt.Sprintf("%s in cities with %s over %d thousand", spoken(target), limit, thousand),
				followValues: facetValues,
			})
		}
	}
	for d := 0; d < rel.NumDims(); d++ {
		vals := rel.Dim(d).Values()
		if schema.Dimensions[d] == timeDim || len(vals) < 3 {
			continue
		}
		for i := 0; i < 8; i++ {
			a, b := vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))]
			if a == b {
				continue
			}
			comparison = keep(comparison, serve.Comparison, opening{
				text:         fmt.Sprintf("compare %s between %s and %s", spoken(target), a, b),
				followValues: vals,
			})
		}
	}
	var pools [][]opening
	for _, p := range [][]opening{trend, constrained, comparison} {
		if len(p) > 0 {
			pools = append(pools, p)
		}
	}
	return pools
}

// split deals the send sequence to conns connections: stateless requests
// round-robin, a dialogue's turns in order on one connection.
func (t *traffic) split(conns int) [][]request {
	lists := make([][]request, conns)
	for i, rq := range t.reqs {
		c := i % conns
		if rq.dialogue >= 0 {
			c = int(rq.dialogue) % conns
		}
		lists[c] = append(lists[c], rq)
	}
	return lists
}

// buildOracle replays every distinct text — and every dialogue, turn by
// turn through a serve.Session — on a, an Answerer of its own over the
// store the servers serve, and records what it said. Store-key utterances
// must come back as exactly their stored speech.
func (t *traffic) buildOracle(a *serve.Answerer) error {
	if len(t.sessions) > 0 {
		var sess *serve.Session
		last := int32(-1)
		for _, rq := range t.reqs {
			if rq.dialogue != last {
				sess, last = a.NewSession(), rq.dialogue
			}
			ans := sess.Answer(t.texts[rq.text])
			e := &t.expects[rq.expect]
			e.kind, e.hash = ans.Kind.String(), answerHash(ans.Kind.String(), ans.Text)
		}
		return nil
	}
	t.expects = make([]expectation, len(t.texts))
	store := a.Store()
	for i, text := range t.texts {
		ans := a.Answer(text)
		if t.storeKeys != nil {
			sp, ok := store.Exact(t.storeKeys[i])
			if !ok || ans.Kind != serve.Summary || ans.Text != sp.Text {
				return fmt.Errorf("oracle: %q is not answered with the stored speech of %s", text, t.storeKeys[i].Key())
			}
		}
		t.expects[i] = expectation{kind: ans.Kind.String(), hash: answerHash(ans.Kind.String(), ans.Text)}
	}
	return nil
}

// shapeShares returns, per answer kind, its share of the send sequence.
func (t *traffic) shapeShares() map[string]float64 {
	shares := map[string]float64{}
	for _, rq := range t.reqs {
		shares[t.expects[rq.expect].kind] += 1 / float64(len(t.reqs))
	}
	return shares
}
