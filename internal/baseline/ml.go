package baseline

import (
	"cicero/internal/engine"
	"cicero/internal/fact"
	"cicero/internal/relation"
)

// MLPair is one training sample for the ML summarizer: a query (the
// speech's "prompt" context) and the facts our optimizing approach
// selected for it. The paper trains a seq2seq model on text pairs; the
// substitute learns at fact-pattern granularity, which lets us evaluate
// its output with the utility model while reproducing the reported
// failure modes.
type MLPair struct {
	Query engine.Query
	Facts []fact.Fact
}

// MLSummarizer is the pure-Go stand-in for the paper's Simpletransformers
// experiment (Section VIII-E): a retrieval model that memorizes training
// pairs and, for a new query, copies the fact pattern of the most similar
// training query, re-instantiating scope values for the new subset.
//
// Like the paper's seq2seq model it produces speeches with "similar
// syntactic patterns" to ours but tends to be redundant (multiple facts
// referencing the same dimension) and to focus on overly narrow data
// subsets, because it copies scope shapes without re-optimizing utility.
type MLSummarizer struct {
	rel   *relation.Relation
	pairs []MLPair
}

// NewMLSummarizer returns an untrained summarizer for the relation.
func NewMLSummarizer(rel *relation.Relation) *MLSummarizer {
	return &MLSummarizer{rel: rel}
}

// Train memorizes the training pairs (the paper uses 49 samples).
func (m *MLSummarizer) Train(pairs []MLPair) {
	m.pairs = append(m.pairs[:0:0], pairs...)
}

// tokens produces a bag of words describing a query for similarity.
func tokens(q engine.Query) map[string]bool {
	out := map[string]bool{"t:" + q.Target: true}
	for _, p := range q.Predicates {
		out["c:"+p.Column] = true
		out["v:"+p.Value] = true
	}
	return out
}

// similarity is Jaccard similarity over query tokens.
func similarity(a, b engine.Query) float64 {
	ta, tb := tokens(a), tokens(b)
	inter, union := 0, len(tb)
	for t := range ta {
		if tb[t] {
			inter++
		} else {
			union++
		}
	}
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Predict generates facts for a query by copying the nearest training
// pair's fact pattern: each copied fact keeps its dimension-column shape;
// scope values tied to the training query's predicates are re-bound to
// the new query's values, and typical values are re-read from the data
// for the re-bound scope. Facts whose scopes cannot be re-bound are
// copied verbatim — the source of the "overly narrow subset" and
// "redundant fact" artifacts the paper describes.
func (m *MLSummarizer) Predict(q engine.Query, view *relation.View, target int) []fact.Fact {
	if len(m.pairs) == 0 {
		return nil
	}
	// Nearest neighbour by query similarity (stable on ties).
	best := 0
	bestSim := -1.0
	for i, p := range m.pairs {
		if s := similarity(q, p.Query); s > bestSim {
			bestSim, best = s, i
		}
	}
	neighbor := m.pairs[best]

	// Map the neighbour's predicate values to the new query's values on
	// the same columns.
	rebind := map[string]string{} // old value -> new value (per column)
	newByCol := map[string]string{}
	for _, p := range q.Predicates {
		newByCol[p.Column] = p.Value
	}
	for _, p := range neighbor.Query.Predicates {
		if nv, ok := newByCol[p.Column]; ok {
			rebind[p.Column+"="+p.Value] = nv
		}
	}

	var out []fact.Fact
	for fi, f := range neighbor.Facts {
		dims := append([]int(nil), f.Scope.Dims...)
		codes := append([]int32(nil), f.Scope.Codes...)
		for i, d := range dims {
			col := m.rel.Schema().Dimensions[d]
			oldVal := m.rel.Dim(d).Value(codes[i])
			if nv, ok := rebind[col+"="+oldVal]; ok {
				if code, ok2 := m.rel.Dim(d).Code(nv); ok2 {
					codes[i] = code
				}
			}
		}
		// The seq2seq model of the paper drifts toward overly narrow data
		// subsets ("cancellations in specific months instead of seasons")
		// and repeats dimensions across facts. Emulate the narrowing: all
		// facts after the first get an extra restriction on the first
		// unused dimension's modal value within the queried subset, and
		// keep the neighbour's memorized value — the narrowed fact's
		// number is generated from the training pattern, not re-derived
		// from data, so it is typically stale for the narrower scope.
		narrowed := false
		if fi > 0 {
			if d, code := m.modalUnusedDim(view, dims); d >= 0 {
				dims = append(dims, d)
				codes = append(codes, code)
				narrowed = true
			}
		}
		scope := fact.NewScope(dims, codes)
		value := f.Value
		if !narrowed {
			// Re-read the typical value for the re-bound scope from the
			// queried subset; keep the copied value if the scope is empty
			// there (a hallucinated-subset artifact).
			if sub := view.Select(scope.Predicates()); sub.NumRows() > 0 {
				value = sub.Stats(target).Mean()
			}
		}
		out = append(out, fact.Fact{Scope: scope, Value: value})
	}
	return dedupeKeepOrder(out)
}

// modalUnusedDim returns the lowest-index dimension absent from dims and
// the most frequent value code of that dimension within the view, or
// (-1, 0) if every dimension is used.
func (m *MLSummarizer) modalUnusedDim(view *relation.View, dims []int) (int, int32) {
	used := map[int]bool{}
	for _, d := range dims {
		used[d] = true
	}
	for d := 0; d < m.rel.NumDims(); d++ {
		if used[d] {
			continue
		}
		groups := view.GroupBy([]int{d}, -1)
		if len(groups) == 0 {
			continue
		}
		best := groups[0]
		for _, g := range groups[1:] {
			if g.Count > best.Count {
				best = g
			}
		}
		return d, best.Key.Codes[0]
	}
	return -1, 0
}

// dedupeKeepOrder removes exact duplicate facts while preserving order;
// near-duplicates on the same dimension are intentionally kept (the
// redundancy artifact).
func dedupeKeepOrder(facts []fact.Fact) []fact.Fact {
	seen := map[string]bool{}
	out := facts[:0]
	for _, f := range facts {
		k := f.Scope.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, f)
	}
	return out
}

// RedundancyScore measures how redundant a speech is: the fraction of
// facts sharing a restricted dimension with an earlier fact. The paper
// reports ML-generated speeches are "often redundant (multiple facts in
// the same speech referencing the same dimension)".
func RedundancyScore(facts []fact.Fact) float64 {
	if len(facts) <= 1 {
		return 0
	}
	seen := map[int]bool{}
	redundant := 0
	for _, f := range facts {
		dup := false
		for _, d := range f.Scope.Dims {
			if seen[d] {
				dup = true
			}
			seen[d] = true
		}
		if dup {
			redundant++
		}
	}
	return float64(redundant) / float64(len(facts)-1)
}
