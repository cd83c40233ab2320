// Package serve is the unified run-time serving layer — the serve stage
// of the paper's generate → evaluate → solve → serve flow, where the
// minutes the offline stages invested are repaid as microsecond
// answers. One front door — the Answerer — takes any voice request,
// classifies it, routes it to the matching backend (indexed
// speech-store lookup for supported summary queries, the generation's
// group-by cells for extrema, comparisons, top-k, trends and
// constrained retrievals, canned conversational answers for help and
// repeat), and returns a uniform Answer with speech text, latency, and
// match metadata.
//
// The Answerer is stateless and safe for concurrent use; it serves from a
// frozen engine.Store, so any number of goroutines — REPL readers, batch
// workers, HTTP handlers — can answer in parallel without locks. The
// relation — wrapped in the engine.Aggregates its run-time shapes read —
// and the store summarized from it are published together as one
// generation behind one atomic pointer: SwapData replaces the live
// generation with a freshly pre-processed one without pausing in-flight
// answers, making periodic re-summarization and incremental publish
// zero-downtime operations. Per-user conversational state (the "repeat"
// request) lives in Session.
//
// One daemon serves many scenarios through the Registry: it hosts the
// Answerers of N named datasets, each mounted built (typically over a
// mapped internal/snapshot artifact), with per-dataset publish, so
// re-summarizing one dataset never disturbs the others.
package serve

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cicero/internal/engine"
	"cicero/internal/relation"
	"cicero/internal/voice"
)

// Kind identifies how an answer was produced.
type Kind int

const (
	// Summary answers come from the pre-generated speech store.
	Summary Kind = iota
	// Extremum answers are read at run time from the generation's
	// group-by cells (engine.Aggregates), as are the other run-time
	// shapes: Comparison, TopK, Trend and Constrained.
	Extremum
	// Comparison answers contrast two data subsets at run time.
	Comparison
	// Help answers describe what the system can do.
	Help
	// Repeat answers replay the previous output (Session only).
	Repeat
	// Unsupported marks recognized but unanswerable requests.
	Unsupported
	// Unknown marks requests that were not understood at all.
	Unknown
	// TopK answers rank the k extremal dimension values at run time.
	// The dialogue-era kinds are appended after Unknown so the numeric
	// values of the seed kinds stay stable.
	TopK
	// Trend answers describe how a target moved across a time window.
	Trend
	// Constrained answers aggregate over entities passing a numeric
	// constraint ("cities with population over 500 thousand").
	Constrained
	// FollowUp marks an elliptical continuation that could not be
	// resolved (no session context); resolved follow-ups carry the
	// kind of the backend that answered the merged query.
	FollowUp
)

// String names the answer kind for logs and metrics.
func (k Kind) String() string {
	switch k {
	case Summary:
		return "summary"
	case Extremum:
		return "extremum"
	case Comparison:
		return "comparison"
	case Help:
		return "help"
	case Repeat:
		return "repeat"
	case Unsupported:
		return "unsupported"
	case TopK:
		return "topk"
	case Trend:
		return "trend"
	case Constrained:
		return "constrained"
	case FollowUp:
		return "followup"
	default:
		return "unknown"
	}
}

// Answer is the uniform serving result for one request.
type Answer struct {
	// Kind says which backend produced the answer.
	Kind Kind
	// Request is the front-end classification of the raw text.
	Request voice.RequestType
	// Text is the speech to say. It is always non-empty: unsupported and
	// not-understood requests carry an apologetic fallback.
	Text string
	// Answered reports whether Text carries real content rather than a
	// fallback apology.
	Answered bool
	// Latency is the end-to-end serving time, classification included.
	Latency time.Duration
	// Query is the extracted structured query, when one was recognized.
	Query engine.Query
	// Matched is the stored speech a summary answer was served from.
	Matched *engine.StoredSpeech
	// Exact reports whether a summary answer matched the query's own data
	// subset rather than a containing generalization.
	Exact bool
}

// Options tunes an Answerer.
type Options struct {
	// MinExtremumRows is the minimal group size for extremum answers
	// (default 10), so tiny groups cannot win by noise.
	MinExtremumRows int
}

// generation is one published state of a dataset: the relation and the
// store summarized from it, immutable once built. Readers load the live
// generation once per request, so the cells an answer aggregates over
// and the speeches it matches always belong together. The relation is
// held only through its Aggregates, so cells can never be paired with
// another generation's rows; they fill on first use, so publishing
// costs nothing extra. The store is an interface because its dynamic
// type may change across publishes (heap store one generation,
// mmap-backed snapshot view the next).
type generation struct {
	agg   *engine.Aggregates
	store engine.StoreView
	// gen numbers the publish: 0 for the pair the Answerer was built
	// with, then strictly increasing. Every publish gets a fresh value —
	// even one that re-installs a previously live store (a rollback) is
	// distinguishable from the original installation. Cache layers key
	// correctness on exactly that property (see httpserve).
	gen uint64
}

// Answerer is the serving front door. Create one per dataset with New
// and share it freely across goroutines. The live generation is held
// behind one atomic pointer so SwapData can replace it while answers
// are being served — including across representation changes, e.g.
// swapping a heap-decoded store for an mmap-backed snapshot view.
type Answerer struct {
	live atomic.Pointer[generation]
	// pub serializes publishers, so generation numbers are read off the
	// predecessor; readers never take it.
	pub  sync.Mutex
	ex   *voice.Extractor
	opts Options
	help string
}

// New builds an Answerer over any store view. A heap store is frozen as
// a side effect: serving and mutation do not mix; views immutable by
// construction (snapshot.Map) pass through untouched.
func New(rel *relation.Relation, store engine.StoreView, ex *voice.Extractor, opts Options) *Answerer {
	if opts.MinExtremumRows <= 0 {
		opts.MinExtremumRows = 10
	}
	a := &Answerer{
		ex:   ex,
		opts: opts,
		help: fmt.Sprintf("You can ask about %s, restricted by %s.",
			strings.Join(rel.Schema().Targets, ", "),
			strings.Join(rel.Schema().Dimensions, ", ")),
	}
	a.live.Store(&generation{agg: engine.NewAggregates(rel), store: engine.Seal(store)})
	return a
}

// Store returns the live store view (always sealed). The reference is
// a snapshot: a concurrent SwapData does not affect it.
func (a *Answerer) Store() engine.StoreView {
	return a.live.Load().store
}

// StoreGen returns the live store view together with its generation
// number, loaded from one atomic reference: the pair is always
// consistent, even against concurrent publishes. "Number unchanged
// across two loads" proves no publish happened in between — the
// invariant caching layers need to tag a computed answer with the store
// it was actually computed against.
func (a *Answerer) StoreGen() (engine.StoreView, uint64) {
	g := a.live.Load()
	return g.store, g.gen
}

// CellStats reports the live generation's group-by cells: how many
// sets its run-time shapes have built and the bytes they hold.
func (a *Answerer) CellStats() (sets, bytes int) {
	return a.live.Load().agg.CellStats()
}

// SwapData publishes a new generation — next, and the relation it was
// summarized from — and returns the replaced store. A heap store is
// frozen as a side effect; in-flight answers finish on the generation
// they loaded, new answers see the replacement immediately — readers
// never pause or lock. This is the one zero-downtime publish path, for
// periodic re-summarization and row deltas alike: pre-process in the
// background (the pipeline or delta package), then publish. When the
// replaced store is an mmap-backed snapshot view, its region stays
// mapped until the last in-flight answer's speeches become unreachable
// (snapshot.Map's finalizer guard), so no answer can ever touch
// unmapped memory.
func (a *Answerer) SwapData(rel *relation.Relation, next engine.StoreView) engine.StoreView {
	if rel == nil || next == nil {
		panic("serve: SwapData with a nil relation or store")
	}
	a.pub.Lock()
	defer a.pub.Unlock()
	old := a.live.Load()
	a.live.Store(&generation{agg: engine.NewAggregates(rel), store: engine.Seal(next), gen: old.gen + 1})
	return old.store
}

// Answer classifies one voice request and routes it to the right backend.
func (a *Answerer) Answer(text string) Answer {
	start := time.Now()
	ans := a.route(a.live.Load(), voice.Classify(text, a.ex), text)
	ans.Latency = time.Since(start)
	return ans
}

// route dispatches one classified request against the generation its
// caller loaded, so one request never mixes two publishes.
func (a *Answerer) route(g *generation, c voice.Classification, text string) Answer {
	switch c.Type {
	case voice.Help:
		return Answer{Kind: Help, Request: c.Type, Text: a.help, Answered: true}
	case voice.Repeat:
		// The Answerer holds no conversational state; Session overlays
		// the previous output.
		return Answer{Kind: Repeat, Request: c.Type,
			Text: "I have not said anything yet."}
	case voice.SQuery:
		ans := answerSummary(g, c.Query)
		ans.Request = c.Type
		return ans
	case voice.UQuery:
		ans := a.answerUnsupported(g, c, text)
		ans.Request = c.Type
		return ans
	case voice.FollowUp:
		// The stateless Answerer has no previous query to merge the
		// ellipsis into; AnswerContext resolves these against a session.
		return Answer{Kind: FollowUp, Request: c.Type,
			Text: "That sounds like a follow-up; ask me a full question first."}
	default:
		return Answer{Kind: Unknown, Request: c.Type,
			Text: "Sorry, I did not understand. Say \"help\" for what I know."}
	}
}

// answerSummary serves a supported query from the indexed speech store.
func answerSummary(g *generation, q engine.Query) Answer {
	sp, exact, ok := g.store.Match(q)
	if !ok {
		text := "I have no answer for that data subset."
		if !g.store.HasTarget(q.Target) {
			text = fmt.Sprintf("I have no answers about %s.",
				strings.ReplaceAll(q.Target, "_", " "))
		}
		return Answer{Kind: Unsupported, Text: text, Query: q}
	}
	return Answer{
		Kind: Summary, Text: sp.Text, Answered: true,
		Query: q, Matched: sp, Exact: exact,
	}
}

// answerUnsupported handles the dominant unsupported query types of the
// deployment logs (Section VIII-D) — extrema, comparisons, and the
// dialogue-era shapes (top-k, trend, constrained) — from the
// generation's group-by cells, and apologizes for the rest.
func (a *Answerer) answerUnsupported(g *generation, c voice.Classification, text string) Answer {
	if c.Query.Target != "" {
		switch c.Kind {
		case voice.Extremum:
			if c.Constraint != nil {
				// "the city with the highest rent among cities with
				// population over 500 thousand": the ranked path owns
				// constraint filtering; with k=1 it reports the extremum.
				if ans, ok := a.answerTopK(g, c); ok {
					return ans
				}
			}
			if ans, ok := a.answerExtremum(g, c); ok {
				return ans
			}
		case voice.TopK:
			if ans, ok := a.answerTopK(g, c); ok {
				return ans
			}
		case voice.Trend:
			if ans, ok := a.answerTrend(g, c); ok {
				return ans
			}
		case voice.Comparison:
			if ans, ok := a.answerComparison(g, c, text); ok {
				return ans
			}
		case voice.Retrieval:
			if c.Constraint != nil {
				if ans, ok := a.answerConstrained(g, c); ok {
					return ans
				}
				break
			}
			// A retrieval with more predicates than the store supports is
			// exactly what the most-specific-match rule of Section III is
			// for: serve the speech of the closest containing subset.
			if ans := answerSummary(g, c.Query); ans.Answered {
				return ans
			}
		}
	}
	return Answer{
		Kind:  Unsupported,
		Query: c.Query,
		Text: fmt.Sprintf("Sorry, %s queries are not supported; "+
			"try asking for average values of a data subset.", c.Kind),
	}
}

func (a *Answerer) answerExtremum(g *generation, c voice.Classification) (Answer, bool) {
	if c.Dim == "" {
		return Answer{}, false
	}
	_, preds, err := c.Query.Resolve(g.agg.Relation())
	if err != nil {
		return Answer{}, false
	}
	res, err := engine.AnswerExtremum(g.agg, c.Query.Target, c.Dim, preds, c.Direction, a.opts.MinExtremumRows)
	if err != nil {
		return Answer{}, false
	}
	return Answer{
		Kind: Extremum, Text: res.Text(c.Direction, c.Query.Target),
		Answered: true, Query: c.Query,
	}, true
}

func (a *Answerer) answerTopK(g *generation, c voice.Classification) (Answer, bool) {
	if c.Dim == "" {
		return Answer{}, false
	}
	k := c.K
	if k < 1 {
		k = 1
	}
	_, preds, err := c.Query.Resolve(g.agg.Relation())
	if err != nil {
		return Answer{}, false
	}
	res, err := engine.AnswerTopK(g.agg, c.Query.Target, c.Dim, preds, c.Direction,
		k, a.opts.MinExtremumRows, c.Constraint)
	if err != nil {
		return Answer{}, false
	}
	kind := TopK
	if k == 1 {
		// A constrained extremum routes here with k=1; it is still an
		// extremum answer to callers and metrics.
		kind = Extremum
	}
	return Answer{
		Kind: kind, Text: res.Text(c.Direction, c.Query.Target),
		Answered: true, Query: c.Query,
	}, true
}

func (a *Answerer) answerTrend(g *generation, c voice.Classification) (Answer, bool) {
	timeDim, ok := a.ex.TimeDim()
	if !ok {
		return Answer{}, false
	}
	periods := a.ex.TimePeriods()
	if len(periods) < 2 {
		return Answer{}, false
	}
	from, to := 0, len(periods)-1
	if w := c.Window; w != nil {
		from, to = w.From, w.To
		if from < 0 {
			from = 0
		}
		if to > len(periods)-1 {
			to = len(periods) - 1
		}
		if from > to {
			from = to
		}
	}
	// A single-period window cannot show movement; widen it by one.
	if from == to {
		if from > 0 {
			from--
		} else {
			to++
		}
	}
	q := c.Query
	// The window owns the time dimension: a stray predicate on it would
	// collapse the trend to a single period.
	kept := q.Predicates[:0:0]
	for _, p := range q.Predicates {
		if p.Column != timeDim {
			kept = append(kept, p)
		}
	}
	q.Predicates = kept
	_, preds, err := q.Resolve(g.agg.Relation())
	if err != nil {
		return Answer{}, false
	}
	res, err := engine.AnswerTrend(g.agg, q.Target, timeDim, periods[from:to+1], preds, a.opts.MinExtremumRows)
	if err != nil {
		return Answer{}, false
	}
	return Answer{
		Kind: Trend, Text: res.Text(),
		Answered: true, Query: c.Query,
	}, true
}

func (a *Answerer) answerConstrained(g *generation, c voice.Classification) (Answer, bool) {
	if c.Constraint == nil {
		return Answer{}, false
	}
	dim := c.Dim
	if dim == "" {
		dim = entityDim(g.agg.Relation(), c.Query.Predicates)
	}
	if dim == "" {
		return Answer{}, false
	}
	_, preds, err := c.Query.Resolve(g.agg.Relation())
	if err != nil {
		return Answer{}, false
	}
	res, err := engine.AnswerConstrained(g.agg, c.Query.Target, dim, preds,
		*c.Constraint, a.opts.MinExtremumRows)
	if err != nil {
		return Answer{}, false
	}
	return Answer{
		Kind: Constrained, Text: res.Text(*c.Constraint),
		Answered: true, Query: c.Query,
	}, true
}

// entityDim picks a fallback entity dimension for a constrained query
// that named none: the highest-cardinality dimension not already bound
// by a predicate. Entity dimensions (cities, airlines) have many
// values; facets (seasons, bedroom counts) have few.
func entityDim(rel *relation.Relation, preds []engine.NamedPredicate) string {
	bound := make(map[string]bool, len(preds))
	for _, p := range preds {
		bound[p.Column] = true
	}
	best, bestCard := "", 0
	for _, d := range rel.Schema().Dimensions {
		if bound[d] {
			continue
		}
		if card := rel.DimByName(d).Cardinality(); card > bestCard {
			best, bestCard = d, card
		}
	}
	return best
}

func (a *Answerer) answerComparison(g *generation, c voice.Classification, text string) (Answer, bool) {
	vals := c.Values
	if len(vals) < 2 {
		// Merged follow-ups carry slots only; raw requests can still fall
		// back to scanning the utterance.
		vals = a.ex.ExtractValues(text)
	}
	if len(vals) < 2 {
		return Answer{}, false
	}
	va, vb := vals[0], vals[1]
	rel := g.agg.Relation()
	pa, err := rel.PredicateByName(va.Column, va.Value)
	if err != nil {
		return Answer{}, false
	}
	pb, err := rel.PredicateByName(vb.Column, vb.Value)
	if err != nil {
		return Answer{}, false
	}
	res, err := engine.AnswerComparison(g.agg, c.Query.Target,
		[]relation.Predicate{pa}, []relation.Predicate{pb})
	if err != nil {
		return Answer{}, false
	}
	return Answer{
		Kind: Comparison, Text: res.Text(c.Query.Target, va.Value, vb.Value),
		Answered: true, Query: c.Query,
	}, true
}
