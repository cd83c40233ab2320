package serve

import (
	"strings"
	"sync/atomic"
	"time"

	"cicero/internal/engine"
	"cicero/internal/voice"
)

// QueryContext is the structured residue of one answered query — the
// slots a later elliptical follow-up ("what about Texas") merges into.
// A context is immutable after construction: every string is cloned
// into it (a summary answer's text can be a zero-copy view into an
// mmapped snapshot that a later SwapData unmaps once unreferenced),
// and holders only ever replace whole pointers, never fields. That
// makes a *QueryContext safe to share across goroutines and across
// store generations without locks.
type QueryContext struct {
	// Kind is the backend that produced the answer this context was
	// captured from.
	Kind Kind
	// Query is the resolved structured query (target + predicates).
	Query engine.Query
	// Dim, K, Direction, HasDirection, Window, Constraint and Values
	// mirror the extended classification slots of the query.
	Dim          string
	K            int
	Direction    engine.ExtremumKind
	HasDirection bool
	Window       *voice.Window
	Constraint   *engine.Constraint
	Values       []engine.NamedPredicate
	// LastText is the spoken answer, for "repeat" requests.
	LastText string
}

// followable reports whether an answer of this kind leaves a context a
// follow-up can build on. Conversational kinds (help, repeat) and
// failures do not.
func followable(k Kind) bool {
	switch k {
	case Summary, Extremum, Comparison, TopK, Trend, Constrained:
		return true
	}
	return false
}

// cloneQuery deep-copies a query so the context owns all its strings.
func cloneQuery(q engine.Query) engine.Query {
	out := engine.Query{Target: strings.Clone(q.Target)}
	if len(q.Predicates) > 0 {
		out.Predicates = make([]engine.NamedPredicate, len(q.Predicates))
		for i, p := range q.Predicates {
			out.Predicates[i] = engine.NamedPredicate{
				Column: strings.Clone(p.Column), Value: strings.Clone(p.Value),
			}
		}
	}
	return out
}

// contextFrom captures the context of one answered request.
func contextFrom(c voice.Classification, ans Answer) *QueryContext {
	ctx := &QueryContext{
		Kind:         ans.Kind,
		Query:        cloneQuery(c.Query),
		Dim:          strings.Clone(c.Dim),
		K:            c.K,
		Direction:    c.Direction,
		HasDirection: c.HasDirection,
		LastText:     strings.Clone(ans.Text),
	}
	if c.Window != nil {
		w := *c.Window
		ctx.Window = &w
	}
	if c.Constraint != nil {
		cons := *c.Constraint
		cons.Target = strings.Clone(cons.Target)
		ctx.Constraint = &cons
	}
	if len(c.Values) > 0 {
		ctx.Values = make([]engine.NamedPredicate, len(c.Values))
		for i, v := range c.Values {
			ctx.Values[i] = engine.NamedPredicate{
				Column: strings.Clone(v.Column), Value: strings.Clone(v.Value),
			}
		}
	}
	return ctx
}

// contextKind maps an answer kind back to the query kind a follow-up
// against that context starts from.
func contextKind(k Kind) voice.QueryKind {
	switch k {
	case Extremum:
		return voice.Extremum
	case Comparison:
		return voice.Comparison
	case TopK:
		return voice.TopK
	case Trend:
		return voice.Trend
	default:
		// Summary and Constrained are retrievals; the Constraint pointer
		// carries the filter.
		return voice.Retrieval
	}
}

// mergeFollowUp overlays the slots an elliptical follow-up mentions
// onto the previous query's context and returns a complete synthetic
// classification ready for routing. Mentioned slots win; everything
// unmentioned is inherited. A value on an already-bound dimension
// replaces that predicate ("what about Texas" swaps the state), a value
// on a new dimension narrows the query.
func (a *Answerer) mergeFollowUp(prev *QueryContext, c voice.Classification) voice.Classification {
	m := voice.Classification{
		Kind:         contextKind(prev.Kind),
		Query:        cloneQuery(prev.Query),
		Dim:          prev.Dim,
		K:            prev.K,
		Direction:    prev.Direction,
		HasDirection: prev.HasDirection,
		Window:       prev.Window,
		Constraint:   prev.Constraint,
		Values:       prev.Values,
	}
	if c.Query.Target != "" {
		m.Query.Target = c.Query.Target
	}
	for _, np := range c.Values {
		replaced := false
		for i, p := range m.Query.Predicates {
			if p.Column == np.Column {
				m.Query.Predicates[i] = np
				replaced = true
				break
			}
		}
		if !replaced {
			m.Query.Predicates = append(m.Query.Predicates, np)
		}
	}
	if c.Kind != voice.Retrieval {
		// The follow-up names a shape of its own ("and the lowest",
		// "what about the trend"): it overrides the inherited kind.
		m.Kind = c.Kind
		if c.Kind == voice.Trend {
			m.Window = c.Window
		}
	}
	if c.HasDirection {
		m.Direction, m.HasDirection = c.Direction, true
	}
	if c.K > 0 {
		m.K = c.K
	}
	if c.Dim != "" {
		m.Dim = c.Dim
	}
	if c.Window != nil {
		m.Window = c.Window
		if m.Kind == voice.Retrieval {
			// A bare window over a retrieval context asks how the target
			// moved across it.
			m.Kind = voice.Trend
		}
	}
	if c.Constraint != nil {
		m.Constraint = c.Constraint
	}
	// Keep K and Kind consistent after the overlay: "what about the top
	// three" over an extremum context promotes it to a ranked list, and
	// an explicit k=1 ("and the top one") demotes a ranked context.
	if m.Kind == voice.Extremum && m.K > 1 {
		m.Kind = voice.TopK
	}
	if m.Kind == voice.TopK && c.K == 1 {
		m.Kind, m.K = voice.Extremum, 1
	}
	if m.Kind == voice.Comparison {
		// A comparison needs two operands; a single new value replaces
		// the first inherited one ("what about Houston" re-runs the
		// comparison with Houston against the old second operand).
		switch {
		case len(c.Values) >= 2:
			m.Values = c.Values
		case len(c.Values) == 1 && len(prev.Values) >= 2:
			m.Values = []engine.NamedPredicate{c.Values[0], prev.Values[1]}
		case len(c.Values) == 1 && len(prev.Query.Predicates) > 0:
			m.Values = []engine.NamedPredicate{c.Values[0], prev.Query.Predicates[0]}
		}
	}
	m.Query = m.Query.Canonical()
	m.Predicates = len(m.Query.Predicates)
	if m.Kind == voice.Retrieval && m.Constraint == nil && m.Window == nil &&
		m.Predicates <= a.ex.MaxQueryLen() {
		m.Type = voice.SQuery
	} else {
		m.Type = voice.UQuery
	}
	return m
}

// AnswerContext serves one request against an explicit conversational
// context and returns the answer together with the context the next
// request in the dialogue should use. prev may be nil (start of a
// conversation). The returned context is either prev itself (the
// request did not produce a followable answer) or a freshly built
// immutable snapshot — never a mutation of prev — so callers can
// publish it with a single pointer store.
func (a *Answerer) AnswerContext(text string, prev *QueryContext) (Answer, *QueryContext) {
	start := time.Now()
	g := a.live.Load()
	c := voice.Classify(text, a.ex)
	next := prev
	var ans Answer
	switch c.Type {
	case voice.Repeat:
		ans = Answer{Kind: Repeat, Request: c.Type,
			Text: "I have not said anything yet."}
		if prev != nil && prev.LastText != "" {
			ans.Text = prev.LastText
			ans.Answered = true
		}
	case voice.FollowUp:
		if prev == nil || !followable(prev.Kind) {
			ans = Answer{Kind: FollowUp, Request: c.Type,
				Text: "That sounds like a follow-up; ask me a full question first."}
			break
		}
		merged := a.mergeFollowUp(prev, c)
		ans = a.route(g, merged, text)
		// The request stays a follow-up even though the merged query
		// routed as S/U-Query; the kind reports the resolving backend.
		ans.Request = voice.FollowUp
		if ans.Answered && followable(ans.Kind) {
			next = contextFrom(merged, ans)
		}
	default:
		ans = a.route(g, c, text)
		if ans.Answered && followable(ans.Kind) {
			next = contextFrom(c, ans)
		}
	}
	ans.Latency = time.Since(start)
	return ans, next
}

// Session wraps an Answerer with per-user conversational state: the
// previous answered query's full context, which follow-ups merge into
// and "repeat" replays from. Sessions are cheap; create one per user or
// connection.
//
// A Session is safe for concurrent use. The context is a single
// immutable snapshot behind an atomic pointer, so every request
// observes one coherent previous query — never a mix of two
// generations — even while other goroutines answer on the same session
// and SwapData replaces the store underneath. Interleaved requests
// still race conversationally (last writer wins), which is inherent to
// talking over yourself.
type Session struct {
	a   *Answerer
	ctx atomic.Pointer[QueryContext]
}

// NewSession opens a conversation against the Answerer.
func (a *Answerer) NewSession() *Session { return &Session{a: a} }

// Answer serves one request, resolving follow-ups and repeats against
// the session's context and advancing it when the request produced a
// followable answer.
func (s *Session) Answer(text string) Answer {
	prev := s.ctx.Load()
	ans, next := s.a.AnswerContext(text, prev)
	if next != prev {
		s.ctx.Store(next)
	}
	return ans
}
