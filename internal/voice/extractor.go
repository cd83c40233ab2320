// Package voice simulates the voice front-end of the system (Figure 2):
// mapping recognized text to queries (target column plus equality
// predicates), classifying incoming requests the way Section VIII-D
// analyzes the public deployment logs, and synthesizing deployment logs
// for the Table III / Figure 9 experiments.
//
// In the generate → evaluate → solve → serve flow it is the serve
// stage's first step: Classify and the Extractor turn raw utterances
// into the structured queries the speech store was pre-processed to
// answer; Normalize defines the canonical text identity the HTTP
// tier's answer cache keys on.
//
// The paper trains an extractor "with a few samples" on the Google
// Assistant platform; this package substitutes a deterministic
// keyword/synonym extractor trained from the same kind of samples.
package voice

import (
	"cmp"
	"slices"
	"strings"
	"unicode/utf8"

	"cicero/internal/engine"
	"cicero/internal/relation"
)

// Sample teaches the extractor that a phrase refers to a target column,
// mirroring the few-shot intent samples of the Assistant platform.
type Sample struct {
	Phrase string
	Target string
}

// Extractor maps voice-query text to structured queries. It holds the
// column names and dictionary values it read at construction, compiled
// into phrase tables over one vocabulary; it is immutable and safe for
// concurrent use.
type Extractor struct {
	vocab vocabulary
	// maxQueryLen bounds supported queries; longer ones are classified
	// as unsupported.
	maxQueryLen int

	// targets ranks target phrases longest first, then
	// lexicographically; targetCol is each one's column.
	targets   phraseTable
	targetCol []string
	// values ranks normalized dimension values the same way, so
	// multi-word values ("Staten Island") win over substrings;
	// valuePred is each one's predicate and valueDim its column index.
	values    phraseTable
	valuePred []engine.NamedPredicate
	valueDim  []int32
	// dimNames ranks the spoken forms of dimension columns, singular and
	// plural ("city", "cities"); dimCol is each one's column.
	dimNames phraseTable
	dimCol   []string

	// Time-dimension metadata filled by detectTimeDim: timeDim is the
	// column index (-1 when the relation has no time dimension),
	// periods its values in chronological order, and periodPhrases
	// their normalized forms, longest first, with periodIdx the
	// chronological index of each.
	timeDim       int
	timeName      string
	periods       []string
	periodPhrases phraseTable
	periodIdx     []int

	// markers holds every phrase of classify.go's marker lists once,
	// markerBits the lists it is on.
	markers    phraseTable
	markerBits []markerSet
	// The fixed words of the slot grammar in slots.go.
	followUp, intros, ops, units phraseTable
}

// NewExtractor builds an extractor for a relation. The samples provide
// target synonyms beyond the column names themselves; the dimension value
// vocabulary comes from the relation's dictionaries. maxQueryLen is the
// maximal number of predicates of supported queries.
func NewExtractor(rel *relation.Relation, samples []Sample, maxQueryLen int) *Extractor {
	schema := rel.Schema()
	e := &Extractor{vocab: vocabulary{}, maxQueryLen: maxQueryLen}

	// A sample overrides a column name or an earlier sample that
	// normalizes to the same phrase.
	targetOf := make(map[string]string)
	for _, t := range schema.Targets {
		targetOf[Normalize(t)] = t
	}
	for _, s := range samples {
		if schema.TargetIndex(s.Target) >= 0 {
			targetOf[Normalize(s.Phrase)] = s.Target
		}
	}
	var targets []ranked
	for p, t := range targetOf {
		targets = append(targets, ranked{phrase: p, col: t})
	}
	for _, r := range rankPhrases(targets) {
		e.targets.add(e.vocab, appendWords(nil, r.phrase))
		e.targetCol = append(e.targetCol, r.col)
	}

	dimValues := make([][]string, rel.NumDims())
	var values []ranked
	for d := range dimValues {
		dimValues[d] = rel.Dim(d).Values()
		for _, v := range dimValues[d] {
			values = append(values, ranked{phrase: Normalize(v), col: schema.Dimensions[d], dim: d, value: v})
		}
	}
	for _, r := range rankPhrases(values) {
		e.values.add(e.vocab, appendWords(nil, r.phrase))
		e.valuePred = append(e.valuePred, engine.NamedPredicate{Column: r.col, Value: r.value})
		e.valueDim = append(e.valueDim, int32(r.dim))
	}

	for _, r := range rankPhrases(dimPhrases(schema.Dimensions)) {
		e.dimNames.add(e.vocab, appendWords(nil, r.phrase))
		e.dimCol = append(e.dimCol, r.col)
	}
	e.detectTimeDim(schema.Dimensions, dimValues)

	rankOf := map[string]int32{}
	for list, markers := range markerLists {
		for _, m := range markers {
			m = Normalize(m)
			r, ok := rankOf[m]
			if !ok {
				r = e.markers.add(e.vocab, appendWords(nil, m))
				rankOf[m] = r
				e.markerBits = append(e.markerBits, 0)
			}
			e.markerBits[r] |= 1 << list
		}
	}
	e.followUp.addAll(e.vocab, followUpPrefixes)
	e.intros.addAll(e.vocab, constraintIntros)
	e.units.addAll(e.vocab, constraintUnits)
	for _, c := range constraintOps {
		e.ops.add(e.vocab, c.words)
	}
	return e
}

// ranked is a phrase with what it stands for, before compilation: its
// column, and for a dimension value the column index and raw value (for
// a period phrase, dim is its chronological index).
type ranked struct {
	phrase string
	col    string
	dim    int
	value  string
}

// rankPhrases drops empty phrases (they match nothing) and orders the
// rest longest first, then lexicographically, keeping the input order
// of equal phrases.
func rankPhrases(rs []ranked) []ranked {
	rs = slices.DeleteFunc(rs, func(r ranked) bool { return r.phrase == "" })
	slices.SortStableFunc(rs, func(a, b ranked) int {
		if len(a.phrase) != len(b.phrase) {
			return len(b.phrase) - len(a.phrase)
		}
		return strings.Compare(a.phrase, b.phrase)
	})
	return rs
}

// dimPhrases lists the spoken forms of dimension column names, with
// naive singular/plural variants so "cities" finds the "city" column
// and "airline" finds "airlines"-style columns. The first column to
// claim a phrase keeps it.
func dimPhrases(dims []string) []ranked {
	seen := map[string]bool{}
	var out []ranked
	add := func(phrase, dim string) {
		if phrase == "" || seen[phrase] {
			return
		}
		seen[phrase] = true
		out = append(out, ranked{phrase: phrase, col: dim})
	}
	for _, d := range dims {
		base := Normalize(d)
		add(base, d)
		words := appendWords(nil, base)
		if len(words) == 0 {
			continue
		}
		last := words[len(words)-1]
		variant := ""
		switch {
		case strings.HasSuffix(last, "ies"):
			variant = last[:len(last)-3] + "y"
		case strings.HasSuffix(last, "s"):
			variant = last[:len(last)-1]
		case strings.HasSuffix(last, "y"):
			variant = last[:len(last)-1] + "ies"
		default:
			variant = last + "s"
		}
		if variant != "" && variant != last {
			words[len(words)-1] = variant
			add(strings.Join(words, " "), d)
		}
	}
	return out
}

// TimeDim returns the detected time dimension's column name, if any.
func (e *Extractor) TimeDim() (string, bool) {
	return e.timeName, e.timeDim >= 0
}

// TimePeriods returns the time dimension's values in chronological
// order (Window indexes point into this slice). It returns nil when the
// relation has no time dimension.
func (e *Extractor) TimePeriods() []string {
	return e.periods
}

// Normalize lowercases text and collapses everything that is not a letter
// or digit into single spaces, the canonical form for matching.
func Normalize(s string) string {
	var stack [128]byte
	b := stack[:0]
	if len(s) > len(stack) {
		b = make([]byte, 0, len(s))
	}
	gap := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return normalizeRunes(s)
		}
		if f := asciiFold[c]; f != 0 {
			if gap && len(b) > 0 {
				b = append(b, ' ')
			}
			b = append(b, f)
			gap = false
		} else {
			gap = true
		}
	}
	return string(b)
}

// asciiFold maps an ASCII letter or digit to its lowercase form and
// every other ASCII byte to 0, a separator.
var asciiFold = func() (fold [utf8.RuneSelf]byte) {
	for c := byte('0'); c <= '9'; c++ {
		fold[c] = c
	}
	for c := byte('a'); c <= 'z'; c++ {
		fold[c], fold[c-'a'+'A'] = c, c
	}
	return fold
}()

// normalizeRunes is Normalize for text with non-ASCII bytes: lowercasing
// can turn such runes into ASCII letters (the Kelvin sign into "k"), and
// invalid UTF-8 decodes rune by rune.
func normalizeRunes(s string) string {
	var b strings.Builder
	lastSpace := true
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
			lastSpace = false
		default:
			if !lastSpace {
				b.WriteByte(' ')
				lastSpace = true
			}
		}
	}
	return strings.TrimSpace(b.String())
}

// matchValues finds the dimension values mentioned in w and returns
// their ranks in match order, appended to dst. Values are taken in rank
// order, each at its leftmost occurrence not overlapping an earlier
// value; a taken occurrence is marked cutWord in w. With onePerDim, a
// value of a column that already has one is skipped, not taken.
func (e *Extractor) matchValues(w words, onePerDim bool, dst []int32) []int32 {
	type hit struct{ rank, pos int32 }
	var buf [16]hit
	hits := buf[:0]
	for i := range w.id {
		for _, r := range e.values.startingAt(w.id, i) {
			if e.values.matches(r, w.id, i) {
				hits = append(hits, hit{r, int32(i)})
			}
		}
	}
	// A consumed occurrence only removes later matches, so each rank's
	// leftmost match still free is the one a rescan would find.
	slices.SortStableFunc(hits, func(a, b hit) int { return cmp.Compare(a.rank, b.rank) })
	for k := 0; k < len(hits); {
		r := hits[k].rank
		end := k + 1
		for end < len(hits) && hits[end].rank == r {
			end++
		}
		if !onePerDim || !e.hasDim(dst, e.valueDim[r]) {
			for ; k < end; k++ {
				span := w.id[hits[k].pos : int(hits[k].pos)+len(e.values.phrases[r])]
				if !slices.Contains(span, cutWord) {
					for j := range span {
						span[j] = cutWord
					}
					dst = append(dst, r)
					break
				}
			}
		}
		k = end
	}
	return dst
}

// hasDim reports whether one of the value ranks belongs to column dim.
func (e *Extractor) hasDim(ranks []int32, dim int32) bool {
	for _, r := range ranks {
		if e.valueDim[r] == dim {
			return true
		}
	}
	return false
}

// predicates returns the values of ranks in match order and the first
// of each column in canonical order (engine.Query.Canonical's), sharing
// one allocation; both are nil when ranks is empty.
func (e *Extractor) predicates(ranks []int32) (values, preds []engine.NamedPredicate) {
	if len(ranks) == 0 {
		return nil, nil
	}
	buf := make([]engine.NamedPredicate, len(ranks), 2*len(ranks))
	for k, r := range ranks {
		buf[k] = e.valuePred[r]
	}
	values, preds = buf[:len(ranks):len(ranks)], buf[len(ranks):]
	for k, r := range ranks {
		if !e.hasDim(ranks[:k], e.valueDim[r]) {
			preds = append(preds, e.valuePred[r])
		}
	}
	slices.SortFunc(preds, func(a, b engine.NamedPredicate) int {
		if c := strings.Compare(a.Column, b.Column); c != 0 {
			return c
		}
		return strings.Compare(a.Value, b.Value)
	})
	return values, slices.Compact(preds)
}

// Extract parses voice-query text into a query. The boolean reports
// whether a target column was recognized; without a target there is no
// data-access query. Dimension predicates are extracted greedily, longest
// value phrase first, at most one per dimension column.
func (e *Extractor) Extract(text string) (engine.Query, bool) {
	var buf wordBuf
	w := e.split(Normalize(text), &buf)
	t := e.targets.best(w.id)
	if t < 0 {
		return engine.Query{}, false
	}
	var ranks [8]int32
	_, preds := e.predicates(e.matchValues(w, true, ranks[:0]))
	return engine.Query{Target: e.targetCol[t], Predicates: preds}, true
}

// MaxQueryLen returns the supported query length bound.
func (e *Extractor) MaxQueryLen() int { return e.maxQueryLen }

// ExtractDimension finds a dimension *column* mentioned by name in the
// text ("which airline has the most cancellations" → "airline"),
// matching singular and plural spoken forms ("cities" → "city"). Used
// by the extremum / top-k answering paths.
func (e *Extractor) ExtractDimension(text string) (string, bool) {
	var buf wordBuf
	if d := e.dimNames.best(e.split(Normalize(text), &buf).id); d >= 0 {
		return e.dimCol[d], true
	}
	return "", false
}

// ExtractValues returns every dimension value mentioned in the text, in
// match order, without the one-predicate-per-dimension restriction of
// Extract. Comparisons mention two values of the same dimension
// ("between men and women"), which Extract by design collapses.
func (e *Extractor) ExtractValues(text string) []engine.NamedPredicate {
	var buf wordBuf
	var ranks [8]int32
	values, _ := e.predicates(e.matchValues(e.split(Normalize(text), &buf), false, ranks[:0]))
	return values
}
