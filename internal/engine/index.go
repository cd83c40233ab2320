package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Index is the frozen lookup structure behind every StoreView: the
// speeches in canonical-key order beside their keys, plus per-target
// bounds for the run-time matcher of Section III. An incoming query is
// answered by the speech for exactly its data subset if one exists,
// otherwise by the speech describing the most specific subset that
// contains the queried one (predicates S ⊆ Q with |S| maximal; ties
// break to the lexicographically smallest canonical key, so lookups are
// deterministic).
//
// Match does not scan the speeches of a target. Because stored queries
// have at most maxPreds predicates per target (bounded by the
// configuration's MaxQueryLen), the most specific generalization is found
// by probing the canonical keys of the incoming query's predicate subsets
// of size ≤ maxPreds, largest first — O(C(|Q|, maxPreds)) binary
// searches, effectively constant for voice-sized queries. For
// adversarially wide queries, where subset enumeration would exceed
// enumBudget probes, Match switches to intersecting per-predicate posting
// lists instead; both paths return the identical speech.
//
// An Index is immutable after NewIndex; all methods are safe for
// concurrent use.
type Index struct {
	// speeches and keys are parallel, in ascending key order; keys are
	// substrings of one shared buffer.
	speeches []*StoredSpeech
	keys     []string
	targets  map[string]*targetIndex
	// postingOnce builds every target's posting lists on the first query
	// wide enough to need them: voice-sized queries never do, so neither
	// a snapshot cold start nor a publish pays for them.
	postingOnce sync.Once
	// scratch pools the dense posting-intersection counters so the
	// wide-query fallback allocates nothing per lookup.
	scratch sync.Pool
}

// targetIndex is the per-target half of the generalization index.
type targetIndex struct {
	// posting maps each predicate to the positions (into Index.speeches)
	// of the target's speeches whose query contains it.
	posting map[NamedPredicate][]int32
	// overall is the position of the zero-predicate speech, -1 if absent.
	overall int32
	// maxPreds is the widest stored predicate set for the target; lookup
	// never probes subsets larger than this.
	maxPreds int
}

// enumBudget bounds the candidate keys probed per lookup before Match
// falls back from subset enumeration to posting-list intersection.
const enumBudget = 4096

// NewIndex builds the index over speeches, taking ownership of the slice
// and sorting it into key order when it is not already. Every speech's
// predicates must be in canonical order (Store.Add and the snapshot
// reader both guarantee it). Two speeches under one key are an error.
func NewIndex(speeches []*StoredSpeech) (*Index, error) {
	x := &Index{
		speeches: speeches,
		keys:     make([]string, len(speeches)),
		targets:  make(map[string]*targetIndex),
	}
	keyLen := 0
	for _, sp := range speeches {
		keyLen += len(sp.Query.Target)
		for _, p := range sp.Query.Predicates {
			keyLen += 2 + len(p.Column) + len(p.Value)
		}
	}
	// One buffer holds every key: one allocation instead of one per
	// speech on the snapshot cold-start and publish paths.
	var buf strings.Builder
	buf.Grow(keyLen)
	ends := make([]int, len(speeches))
	for i, sp := range speeches {
		buf.WriteString(sp.Query.Target)
		for _, p := range sp.Query.Predicates {
			buf.WriteByte('|')
			buf.WriteString(p.Column)
			buf.WriteByte('=')
			buf.WriteString(p.Value)
		}
		ends[i] = buf.Len()
	}
	all, start := buf.String(), 0
	for i, end := range ends {
		x.keys[i] = all[start:end]
		start = end
	}
	sort.Sort(byKeyOrder{x}) // a no-op pass over what the snapshot writer emits
	for i := 1; i < len(x.keys); i++ {
		if x.keys[i-1] == x.keys[i] {
			return nil, fmt.Errorf("duplicate speech key %q", x.keys[i])
		}
	}
	// Key order groups a target's speeches together, so remembering the
	// last entry turns the per-speech map probe into a string compare.
	var lastTarget string
	var last *targetIndex
	for i, sp := range x.speeches {
		if last == nil || sp.Query.Target != lastTarget {
			lastTarget = sp.Query.Target
			if last = x.targets[lastTarget]; last == nil {
				last = &targetIndex{overall: -1}
				x.targets[lastTarget] = last
			}
		}
		n := len(sp.Query.Predicates)
		if n == 0 {
			last.overall = int32(i)
		}
		if n > last.maxPreds {
			last.maxPreds = n
		}
	}
	return x, nil
}

// byKeyOrder sorts an index's parallel slices by key.
type byKeyOrder struct{ x *Index }

func (o byKeyOrder) Len() int           { return len(o.x.keys) }
func (o byKeyOrder) Less(i, j int) bool { return o.x.keys[i] < o.x.keys[j] }
func (o byKeyOrder) Swap(i, j int) {
	o.x.keys[i], o.x.keys[j] = o.x.keys[j], o.x.keys[i]
	o.x.speeches[i], o.x.speeches[j] = o.x.speeches[j], o.x.speeches[i]
}

// Len returns the number of stored speeches.
func (x *Index) Len() int { return len(x.speeches) }

// HasTarget reports whether any speech exists for the target column.
func (x *Index) HasTarget(target string) bool { return x.targets[target] != nil }

// Speeches returns all stored speeches in canonical-key order. The slice
// is shared and must be treated as read-only.
func (x *Index) Speeches() []*StoredSpeech { return x.speeches }

// findKey binary-searches the key table.
func (x *Index) findKey(key string) (*StoredSpeech, bool) {
	i, ok := sort.Find(len(x.keys), func(i int) int { return strings.Compare(key, x.keys[i]) })
	if !ok {
		return nil, false
	}
	return x.speeches[i], true
}

// Exact returns the speech pre-generated for precisely this query.
func (x *Index) Exact(q Query) (*StoredSpeech, bool) {
	return x.findKey(q.Key())
}

// Lookup returns the best speech for the query: the exact match when
// available, otherwise the most specific generalization (maximal number
// of shared predicates, ties broken by smallest canonical key). The
// boolean reports whether an exact match or a containing generalization
// was found — NOT merely whether any speech for the target exists; a
// query whose predicates contradict everything stored for its target
// returns false even though the target has speeches (use HasTarget for
// that question).
func (x *Index) Lookup(q Query) (*StoredSpeech, bool) {
	sp, _, ok := x.Match(q)
	return sp, ok
}

// Match is Lookup plus match metadata: exact reports whether the served
// speech describes the query's own data subset rather than a containing
// generalization. The serving layer uses this to answer and annotate in
// a single store probe.
func (x *Index) Match(q Query) (sp *StoredSpeech, exact, ok bool) {
	// One canonicalization serves the exact probe and both index paths;
	// already-canonical input (the common serve re-probe) is not copied.
	preds := canonicalPredsView(q.Predicates)
	if sp, ok := x.findKey(predsKey(q.Target, preds)); ok {
		return sp, true, true
	}
	ti := x.targets[q.Target]
	if ti == nil {
		return nil, false, false
	}
	top := len(preds)
	if ti.maxPreds < top {
		top = ti.maxPreds
	}
	// Probe subsets largest-first; the first size with any hit holds the
	// most specific generalization.
	if enumFits(len(preds), top) {
		sp, ok = x.lookupEnum(q.Target, preds, top)
	} else {
		sp, ok = x.lookupPosting(ti, preds)
	}
	return sp, false, ok
}

// lookupEnum probes the canonical keys of all predicate subsets of size
// k = top..0; the smallest key among the hits of the first non-empty size
// is the deterministic winner.
func (x *Index) lookupEnum(target string, preds []NamedPredicate, top int) (*StoredSpeech, bool) {
	idx := make([]int, 0, top)
	for k := top; k >= 0; k-- {
		var best *StoredSpeech
		bestKey := ""
		var walk func(start int)
		walk = func(start int) {
			if len(idx) == k {
				key := subsetKey(target, preds, idx)
				if sp, ok := x.findKey(key); ok {
					if best == nil || key < bestKey {
						best, bestKey = sp, key
					}
				}
				return
			}
			for i := start; i <= len(preds)-(k-len(idx)); i++ {
				idx = append(idx, i)
				walk(i + 1)
				idx = idx[:len(idx)-1]
			}
		}
		walk(0)
		if best != nil {
			return best, true
		}
	}
	return nil, false
}

// postScratch is the reusable state of one posting-intersection pass:
// an epoch-stamped dense counter (bumping the epoch invalidates every
// slot without clearing, the same trick as the summarization kernel's
// scratch) plus the list of slots touched this pass, so the scan over
// candidates visits only referenced speeches.
type postScratch struct {
	epoch   uint32
	stamp   []uint32
	count   []int32
	touched []int32
}

// reset sizes the scratch for n speeches and opens a fresh epoch.
func (sc *postScratch) reset(n int) {
	if cap(sc.stamp) < n {
		sc.stamp = make([]uint32, n)
		sc.count = make([]int32, n)
	}
	sc.stamp = sc.stamp[:n]
	sc.count = sc.count[:n]
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could collide, clear once
		clear(sc.stamp)
		sc.epoch = 1
	}
	sc.touched = sc.touched[:0]
}

// postings builds every target's posting lists, once. One pass over the
// speeches serves all targets.
func (x *Index) postings() {
	x.postingOnce.Do(func() {
		for i, sp := range x.speeches {
			ti := x.targets[sp.Query.Target]
			if ti.posting == nil {
				ti.posting = make(map[NamedPredicate][]int32)
			}
			for _, p := range sp.Query.Predicates {
				ti.posting[p] = append(ti.posting[p], int32(i))
			}
		}
	})
}

// lookupPosting finds the most specific generalization by counting, for
// every speech referenced from the query predicates' posting lists, how
// many of its predicates the query shares. A speech is a generalization
// iff the count equals its own predicate count. The counters live in a
// pooled dense scratch, so the wide-query fallback is allocation-free in
// steady state.
func (x *Index) lookupPosting(ti *targetIndex, preds []NamedPredicate) (*StoredSpeech, bool) {
	x.postings()
	sc, _ := x.scratch.Get().(*postScratch)
	if sc == nil {
		sc = &postScratch{}
	}
	defer x.scratch.Put(sc)
	sc.reset(len(x.speeches))
	for _, p := range preds {
		for _, idx := range ti.posting[p] {
			if sc.stamp[idx] != sc.epoch {
				sc.stamp[idx] = sc.epoch
				sc.count[idx] = 0
				sc.touched = append(sc.touched, idx)
			}
			sc.count[idx]++
		}
	}
	var best *StoredSpeech
	bestShared, bestKey := -1, ""
	for _, idx := range sc.touched {
		sp := x.speeches[idx]
		n := int(sc.count[idx])
		if n != len(sp.Query.Predicates) {
			continue
		}
		if n > bestShared || (n == bestShared && x.keys[idx] < bestKey) {
			best, bestShared, bestKey = sp, n, x.keys[idx]
		}
	}
	if best == nil && ti.overall >= 0 {
		best = x.speeches[ti.overall]
	}
	if best == nil {
		return nil, false
	}
	return best, true
}

// canonicalPredsView returns the canonical form of preds, reusing the
// input slice when it is already sorted and deduplicated — the common
// case on the serve path, where queries arrive pre-canonicalized from
// the extractor or a stored speech. Callers must not mutate the result.
func canonicalPredsView(preds []NamedPredicate) []NamedPredicate {
	for i := 1; i < len(preds); i++ {
		a, b := preds[i-1], preds[i]
		if a.Column > b.Column || (a.Column == b.Column && a.Value >= b.Value) {
			return canonicalPreds(preds)
		}
	}
	return preds
}

// canonicalPreds returns the predicates sorted by column then value and
// deduplicated (generalization matching is over predicate sets), without
// mutating the input.
func canonicalPreds(preds []NamedPredicate) []NamedPredicate {
	out := append([]NamedPredicate(nil), preds...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Column != out[j].Column {
			return out[i].Column < out[j].Column
		}
		return out[i].Value < out[j].Value
	})
	w := 0
	for i, p := range out {
		if i == 0 || p != out[w-1] {
			out[w] = p
			w++
		}
	}
	return out[:w]
}

// subsetKey builds the canonical key of the predicate subset selected by
// idx (ascending positions into the canonically sorted preds).
func subsetKey(target string, preds []NamedPredicate, idx []int) string {
	var b strings.Builder
	b.WriteString(target)
	for _, i := range idx {
		b.WriteByte('|')
		b.WriteString(preds[i].Column)
		b.WriteByte('=')
		b.WriteString(preds[i].Value)
	}
	return b.String()
}

// predsKey builds the canonical key of canonically sorted predicates.
func predsKey(target string, preds []NamedPredicate) string {
	var b strings.Builder
	b.WriteString(target)
	for _, p := range preds {
		b.WriteByte('|')
		b.WriteString(p.Column)
		b.WriteByte('=')
		b.WriteString(p.Value)
	}
	return b.String()
}

// enumFits reports whether probing all predicate subsets of sizes top..0
// over n predicates stays within enumBudget keys.
func enumFits(n, top int) bool {
	total := 0
	for k := top; k >= 0; k-- {
		c := 1
		for i := 0; i < k; i++ {
			c = c * (n - i) / (i + 1)
			if c > enumBudget {
				return false
			}
		}
		total += c
		if total > enumBudget {
			return false
		}
	}
	return true
}
