package voice

import (
	"sort"
	"strconv"
	"strings"

	"cicero/internal/engine"
)

// This file implements the slot grammar behind the extended query
// shapes: spoken numbers ("500 thousand", "10
// percent"), numeric entity constraints ("cities with population over
// 500k"), top-k counts ("the three cities"), calendar periods and time
// windows ("since January 2023", "over the last six months"), and the
// elliptical follow-up prefixes dialogue sessions resolve ("what about
// Texas"). Everything operates on the words of Normalize()d text, which
// collapses punctuation — so all numerals are spoken forms, never
// decimals.

// Window is a resolved time window: inclusive indexes into the
// extractor's chronologically ordered TimePeriods().
type Window struct {
	From, To int
}

// ---- spoken numbers ----

var numberWords = map[string]float64{
	"zero": 0, "one": 1, "two": 2, "three": 3, "four": 4, "five": 5,
	"six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10,
	"eleven": 11, "twelve": 12, "thirteen": 13, "fourteen": 14,
	"fifteen": 15, "sixteen": 16, "seventeen": 17, "eighteen": 18,
	"nineteen": 19, "twenty": 20,
}

var numberMults = map[string]float64{
	"hundred": 100, "thousand": 1e3, "million": 1e6, "billion": 1e9,
}

// parseNumToken parses one normalized token as a numeral, including
// digit strings with spoken suffixes ("500k", "2m").
func parseNumToken(tok string) (float64, bool) {
	if v, ok := numberWords[tok]; ok {
		return v, true
	}
	mult := 1.0
	if len(tok) > 1 {
		switch tok[len(tok)-1] {
		case 'k':
			mult, tok = 1e3, tok[:len(tok)-1]
		case 'm':
			mult, tok = 1e6, tok[:len(tok)-1]
		}
	}
	// Of the lowercase letter-and-digit strings, ParseFloat accepts
	// only those starting with a digit and its three special values;
	// screening out the rest spares the error it allocates.
	if tok == "" || (tok[0] < '0' || tok[0] > '9') && tok != "inf" && tok != "infinity" && tok != "nan" {
		return 0, false
	}
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, false
	}
	return v * mult, true
}

// parseSpokenNumber parses a spoken number starting at toks[i]: a base
// numeral followed by chained multipliers ("five hundred thousand") and
// an optional "percent" scaling. It returns the value and the number of
// tokens consumed (0 when toks[i] does not start a number).
func parseSpokenNumber(toks []string, i int) (float64, int) {
	if i >= len(toks) {
		return 0, 0
	}
	var v float64
	n := 0
	if toks[i] == "a" || toks[i] == "an" {
		// "over a million"
		if i+1 < len(toks) {
			if _, ok := numberMults[toks[i+1]]; ok {
				v, n = 1, 1
			}
		}
		if n == 0 {
			return 0, 0
		}
	} else {
		base, ok := parseNumToken(toks[i])
		if !ok {
			return 0, 0
		}
		v, n = base, 1
	}
	for i+n < len(toks) {
		if m, ok := numberMults[toks[i+n]]; ok {
			v *= m
			n++
			continue
		}
		break
	}
	if i+n < len(toks) && toks[i+n] == "percent" {
		v /= 100
		n++
	}
	return v, n
}

// ---- calendar periods ----

var monthIndex = map[string]int{
	"january": 1, "february": 2, "march": 3, "april": 4, "may": 5,
	"june": 6, "july": 7, "august": 8, "september": 9, "october": 10,
	"november": 11, "december": 12,
}

// parsePeriodKey parses a normalized dimension value as a calendar
// period and returns a chronologically sortable key: bare month names
// ("february"), month-plus-year ("january 2023"), and numeric
// year-month forms ("2023 04", the normalization of "2023-04").
func parsePeriodKey(norm string) (int, bool) {
	toks := appendWords(nil, norm)
	switch len(toks) {
	case 1:
		if m, ok := monthIndex[toks[0]]; ok {
			return m, true
		}
	case 2:
		if m, ok := monthIndex[toks[0]]; ok {
			if y, err := strconv.Atoi(toks[1]); err == nil && y >= 1000 && y <= 9999 {
				return y*12 + m, true
			}
		}
		if y, err := strconv.Atoi(toks[0]); err == nil && y >= 1000 && y <= 9999 {
			if m, err := strconv.Atoi(toks[1]); err == nil && m >= 1 && m <= 12 {
				return y*12 + m, true
			}
		}
	}
	return 0, false
}

// detectTimeDim finds the relation's time dimension, if any: a column
// with at least 3 values, every one of which parses as a calendar
// period. Columns whose names hint at time win ties; otherwise the
// first qualifying column does. It fills timeDim, timeName, periods
// (chronological) and the period phrase table on the extractor.
func (e *Extractor) detectTimeDim(dims []string, dimValues [][]string) {
	e.timeDim = -1
	best, bestHinted := -1, false
	for d, vals := range dimValues {
		if len(vals) < 3 {
			continue
		}
		ok := true
		for _, v := range vals {
			if _, good := parsePeriodKey(Normalize(v)); !good {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		name := strings.ToLower(dims[d])
		hinted := strings.Contains(name, "month") || strings.Contains(name, "date") ||
			strings.Contains(name, "period") || strings.Contains(name, "quarter") ||
			strings.Contains(name, "year") || strings.Contains(name, "time")
		if best < 0 || (hinted && !bestHinted) {
			best, bestHinted = d, hinted
		}
	}
	if best < 0 {
		return
	}
	e.timeDim = best
	e.timeName = dims[best]
	vals := dimValues[best]
	type pv struct {
		key int
		val string
	}
	pvs := make([]pv, 0, len(vals))
	for _, v := range vals {
		k, _ := parsePeriodKey(Normalize(v))
		pvs = append(pvs, pv{key: k, val: v})
	}
	sort.SliceStable(pvs, func(i, j int) bool { return pvs[i].key < pvs[j].key })
	e.periods = make([]string, len(pvs))
	// Of two values with one normalized form, the later one is meant.
	idx := make(map[string]int, len(pvs))
	for i, p := range pvs {
		e.periods[i] = p.val
		idx[Normalize(p.val)] = i
	}
	phrases := make([]ranked, 0, len(idx))
	for p, i := range idx {
		phrases = append(phrases, ranked{phrase: p, dim: i})
	}
	for _, r := range rankPhrases(phrases) {
		e.periodPhrases.add(e.vocab, appendWords(nil, r.phrase))
		e.periodIdx = append(e.periodIdx, r.dim)
	}
}

// matchPeriodAt matches a period phrase at position i, longest form
// first ("january 2024" before "january"), returning its chronological
// index and the words it spans (0 when none matches).
func (e *Extractor) matchPeriodAt(w words, i int) (idx, n int) {
	r := e.periodPhrases.at(w.id, i)
	if r < 0 {
		return 0, 0
	}
	return e.periodIdx[r], len(e.periodPhrases.phrases[r])
}

// ---- constraint clauses ----

var constraintIntros = []string{"with", "where", "whose", "having", "have", "has"}

var constraintOps = []struct {
	words []string
	op    engine.ConstraintOp
}{
	{[]string{"at", "least"}, engine.AtLeast},
	{[]string{"at", "most"}, engine.AtMost},
	{[]string{"more", "than"}, engine.Over},
	{[]string{"greater", "than"}, engine.Over},
	{[]string{"less", "than"}, engine.Under},
	{[]string{"fewer", "than"}, engine.Under},
	{[]string{"over"}, engine.Over},
	{[]string{"above"}, engine.Over},
	{[]string{"exceeding"}, engine.Over},
	{[]string{"under"}, engine.Under},
	{[]string{"below"}, engine.Under},
}

// constraintUnits are spoken units that may trail the threshold and are
// consumed with the clause ("over 2000 dollars").
var constraintUnits = []string{"dollars", "dollar", "people", "residents", "minutes", "points"}

// extractConstraint consumes the first numeric constraint clause —
// "(with|where|whose|having) [the|a|an] <target> [of] <op> <number>
// [unit]" — and returns it together with the remaining words.
func (e *Extractor) extractConstraint(w words) (*engine.Constraint, words) {
	for i := range w.id {
		if e.intros.at(w.id, i) < 0 {
			continue
		}
		j := i + 1
		if j < len(w.text) && (w.text[j] == "the" || w.text[j] == "a" || w.text[j] == "an") {
			j++
		}
		t := e.targets.at(w.id, j)
		if t < 0 {
			continue
		}
		j += len(e.targets.phrases[t])
		// Optional linking word: "population of at least", "whose
		// cancellations are over".
		if j < len(w.text) {
			switch w.text[j] {
			case "of", "is", "are", "was", "were":
				j++
			}
		}
		op := e.ops.at(w.id, j)
		if op < 0 {
			continue
		}
		j += len(e.ops.phrases[op])
		v, vn := parseSpokenNumber(w.text, j)
		if vn == 0 {
			continue
		}
		j += vn
		if e.units.at(w.id, j) >= 0 {
			j++
		}
		return &engine.Constraint{Target: e.targetCol[t], Op: constraintOps[op].op, Value: v}, w.cut(i, j)
	}
	return nil, w
}

// ---- time windows ----

// windowUnits maps spoken window units to a period multiplier, assuming
// month-granular time dimensions (the only kind detectTimeDim accepts).
var windowUnits = map[string]int{
	"month": 1, "months": 1, "period": 1, "periods": 1,
	"quarter": 3, "quarters": 3, "year": 12, "years": 12,
}

// extractWindow consumes the first time-window phrase — "since
// <period>", "between <period> and <period>", "from <period> to
// <period>", or "[the] last <n> <unit>" — and returns the resolved
// window with the remaining words. Without a time dimension it is a
// no-op.
func (e *Extractor) extractWindow(w words) (*Window, words) {
	if e.timeDim < 0 {
		return nil, w
	}
	toks := w.text
	n := len(e.periods)
	for i, tok := range toks {
		switch tok {
		case "since":
			if idx, pn := e.matchPeriodAt(w, i+1); pn > 0 {
				return &Window{From: idx, To: n - 1}, w.cut(i, i+1+pn)
			}
		case "between", "from":
			sep := "and"
			if tok == "from" {
				sep = "to"
			}
			a, an := e.matchPeriodAt(w, i+1)
			if an == 0 {
				continue
			}
			j := i + 1 + an
			if j >= len(toks) || toks[j] != sep {
				continue
			}
			b, bn := e.matchPeriodAt(w, j+1)
			if bn == 0 {
				continue
			}
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			return &Window{From: lo, To: hi}, w.cut(i, j+1+bn)
		case "last", "past":
			j := i + 1
			count := 1.0
			if v, vn := parseSpokenNumber(toks, j); vn > 0 {
				count = v
				j += vn
			}
			if j >= len(toks) {
				continue
			}
			mult, ok := windowUnits[toks[j]]
			if !ok {
				continue
			}
			span := int(count) * mult
			if span < 1 {
				span = 1
			}
			from := n - span
			if from < 0 {
				from = 0
			}
			start := i
			if start > 0 && toks[start-1] == "the" {
				start--
			}
			return &Window{From: from, To: n - 1}, w.cut(start, j+1)
		}
	}
	return nil, w
}

// ---- top-k counts and dimension mentions ----

// matchDimAt matches a dimension phrase (singular or plural) at
// position i, returning the column name and the words it spans.
func (e *Extractor) matchDimAt(w words, i int) (string, int) {
	d := e.dimNames.at(w.id, i)
	if d < 0 {
		return "", 0
	}
	return e.dimCol[d], len(e.dimNames.phrases[d])
}

// extractCount consumes a top-k count — "top <n> [dim]", "bottom <n>
// [dim]", or "<n> <dim>" ("the three cities") — returning the count,
// the named dimension if adjacent, the remaining words, and whether the
// "bottom" form asked for minima. Run it only after dimension values
// are consumed, so "two bedroom apartments" cannot leak a count.
func (e *Extractor) extractCount(w words) (k int, dim string, rest words, bottom bool) {
	for i, tok := range w.text {
		if tok == "top" || tok == "bottom" {
			v, vn := parseSpokenNumber(w.text, i+1)
			if vn == 0 || v != float64(int(v)) || v < 1 || v > 100 {
				continue
			}
			j := i + 1 + vn
			d, dn := e.matchDimAt(w, j)
			return int(v), d, w.cut(i, j+dn), tok == "bottom"
		}
		v, vn := parseSpokenNumber(w.text, i)
		if vn == 0 || v != float64(int(v)) || v < 1 || v > 100 {
			continue
		}
		d, dn := e.matchDimAt(w, i+vn)
		if dn == 0 {
			continue
		}
		return int(v), d, w.cut(i, i+vn+dn), false
	}
	return 0, "", w, false
}

// ---- follow-up prefixes ----

var followUpPrefixes = []string{"what about", "how about", "and"}

// followUpBody strips a follow-up prefix from w. The boolean reports
// whether a prefix was present; whether the utterance really is
// elliptical is decided by the classifier from the slots of the
// remaining body.
func (e *Extractor) followUpBody(w words) (words, bool) {
	p := e.followUp.at(w.id, 0)
	if p < 0 {
		return w, false
	}
	n := len(e.followUp.phrases[p])
	return words{text: w.text[n:], id: w.id[n:]}, true
}

// extractSlots runs the full slot grammar over the words of normalized
// text and returns a Classification with everything but the request
// type filled in. Extraction order matters: the constraint clause goes
// first so its target ("population") cannot hijack the main target
// slot, the window goes second so its periods cannot become equality
// predicates, values are consumed before counts so "two bedroom
// apartments" cannot leak a top-k count, and counts before dimension
// mentions so "three cities" binds both at once. The markers read what
// the constraint and window left.
func (e *Extractor) extractSlots(w words) Classification {
	var c Classification
	c.Constraint, w = e.extractConstraint(w)
	var win *Window
	win, w = e.extractWindow(w)

	markers := e.markersIn(w.id)
	extremumWord := markers&extremumMarker != 0

	if t := e.targets.best(w.id); t >= 0 {
		c.Query.Target = e.targetCol[t]
	}
	var ranks [8]int32
	c.Values, c.Query.Predicates = e.predicates(e.matchValues(w, false, ranks[:0]))

	var bottom bool
	c.K, c.Dim, w, bottom = e.extractCount(w.dropMarked())
	if c.Dim == "" {
		if d := e.dimNames.best(w.id); d >= 0 {
			c.Dim = e.dimCol[d]
		}
	}

	switch {
	case markers&comparisonMarker != 0:
		c.Kind = Comparison
	case extremumWord || bottom || c.K > 0:
		if c.K > 1 {
			c.Kind = TopK
		} else {
			c.Kind = Extremum
		}
		c.HasDirection = extremumWord || bottom
		if bottom || markers&minMarker != 0 {
			c.Direction = engine.Min
		} else {
			c.Direction = engine.Max
		}
	case markers&trendMarker != 0 || win != nil:
		c.Kind = Trend
		c.Window = win
	default:
		c.Kind = Retrieval
	}
	c.Predicates = len(c.Query.Predicates)
	return c
}
