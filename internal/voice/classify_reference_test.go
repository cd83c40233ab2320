package voice

import (
	"sort"
	"strconv"
	"strings"

	"cicero/internal/engine"
	"cicero/internal/relation"
)

// This file keeps the string-scanning classifier the table-driven one
// replaced, as the differential oracle of TestClassifyMatchesReference
// and the fuzz targets. It is the old code with two fixes applied:
// target phrases are ranked longest first, then lexicographically
// (ranging over a map let equal-length phrases tie at random), and a
// consumed value cuts out the word-bounded occurrence that matched
// rather than the first raw substring ("mon" inside "month"). It
// normalizes every marker, splits every phrase and rescans the whole
// text per vocabulary entry; do not make it faster.

type refExtractor struct {
	rel           *relation.Relation
	targetPhrases []refTargetPhrase
	values        []valueEntry
	maxQueryLen   int
	dimPhrases    []dimPhrase
	timeDim       int
	timeName      string
	periods       []string
	periodIdx     map[string]int
}

type refTargetPhrase struct {
	phrase string
	target string
}

type valueEntry struct {
	phrase string
	dim    int
	value  string
}

type dimPhrase struct {
	phrase string
	dim    string
}

func newRefExtractor(rel *relation.Relation, samples []Sample, maxQueryLen int) *refExtractor {
	e := &refExtractor{rel: rel, maxQueryLen: maxQueryLen}
	byPhrase := make(map[string]string)
	for _, t := range rel.Schema().Targets {
		byPhrase[refNormalize(strings.ReplaceAll(t, "_", " "))] = t
	}
	for _, s := range samples {
		if rel.Schema().TargetIndex(s.Target) >= 0 {
			byPhrase[refNormalize(s.Phrase)] = s.Target
		}
	}
	for p, t := range byPhrase {
		e.targetPhrases = append(e.targetPhrases, refTargetPhrase{phrase: p, target: t})
	}
	sort.Slice(e.targetPhrases, func(i, j int) bool {
		if len(e.targetPhrases[i].phrase) != len(e.targetPhrases[j].phrase) {
			return len(e.targetPhrases[i].phrase) > len(e.targetPhrases[j].phrase)
		}
		return e.targetPhrases[i].phrase < e.targetPhrases[j].phrase
	})
	for d := 0; d < rel.NumDims(); d++ {
		for _, v := range rel.Dim(d).Values() {
			e.values = append(e.values, valueEntry{
				phrase: refNormalize(v),
				dim:    d,
				value:  v,
			})
		}
	}
	sort.SliceStable(e.values, func(i, j int) bool {
		if len(e.values[i].phrase) != len(e.values[j].phrase) {
			return len(e.values[i].phrase) > len(e.values[j].phrase)
		}
		return e.values[i].phrase < e.values[j].phrase
	})
	e.buildDimPhrases()
	e.detectTimeDim()
	return e
}

func (e *refExtractor) buildDimPhrases() {
	seen := map[string]bool{}
	add := func(phrase, dim string) {
		if phrase == "" || seen[phrase] {
			return
		}
		seen[phrase] = true
		e.dimPhrases = append(e.dimPhrases, dimPhrase{phrase: phrase, dim: dim})
	}
	for _, d := range e.rel.Schema().Dimensions {
		base := refNormalize(strings.ReplaceAll(d, "_", " "))
		add(base, d)
		words := strings.Fields(base)
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
	sort.SliceStable(e.dimPhrases, func(i, j int) bool {
		if len(e.dimPhrases[i].phrase) != len(e.dimPhrases[j].phrase) {
			return len(e.dimPhrases[i].phrase) > len(e.dimPhrases[j].phrase)
		}
		return e.dimPhrases[i].phrase < e.dimPhrases[j].phrase
	})
}

func (e *refExtractor) TimePeriods() []string { return e.periods }

func refNormalize(s string) string {
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

// refPhraseIndex returns the start of the first word-bounded occurrence
// of phrase in text, or -1. Both inputs must be normalized.
func refPhraseIndex(text, phrase string) int {
	if phrase == "" {
		return -1
	}
	idx := 0
	for {
		i := strings.Index(text[idx:], phrase)
		if i < 0 {
			return -1
		}
		start := idx + i
		end := start + len(phrase)
		okLeft := start == 0 || text[start-1] == ' '
		okRight := end == len(text) || text[end] == ' '
		if okLeft && okRight {
			return start
		}
		idx = start + 1
	}
}

func refContainsPhrase(text, phrase string) bool { return refPhraseIndex(text, phrase) >= 0 }

// refConsume replaces the occurrence of phrase at i with one space.
func refConsume(text string, i int, phrase string) string {
	return text[:i] + " " + text[i+len(phrase):]
}

func (e *refExtractor) Extract(text string) (engine.Query, bool) {
	norm := refNormalize(text)
	target := ""
	bestLen := 0
	for _, tp := range e.targetPhrases {
		if len(tp.phrase) > bestLen && refContainsPhrase(norm, tp.phrase) {
			target, bestLen = tp.target, len(tp.phrase)
		}
	}
	if target == "" {
		return engine.Query{}, false
	}
	q := engine.Query{Target: target}
	usedDim := map[int]bool{}
	consumed := norm
	for _, ve := range e.values {
		if usedDim[ve.dim] {
			continue
		}
		i := refPhraseIndex(consumed, ve.phrase)
		if i < 0 {
			continue
		}
		usedDim[ve.dim] = true
		q.Predicates = append(q.Predicates, engine.NamedPredicate{
			Column: e.rel.Schema().Dimensions[ve.dim],
			Value:  ve.value,
		})
		consumed = refConsume(consumed, i, ve.phrase)
	}
	return q.Canonical(), true
}

func (e *refExtractor) ExtractDimension(text string) (string, bool) {
	norm := refNormalize(text)
	for _, dp := range e.dimPhrases {
		if refContainsPhrase(norm, dp.phrase) {
			return dp.dim, true
		}
	}
	return "", false
}

func (e *refExtractor) ExtractValues(text string) []engine.NamedPredicate {
	consumed := refNormalize(text)
	var out []engine.NamedPredicate
	for _, ve := range e.values {
		i := refPhraseIndex(consumed, ve.phrase)
		if i < 0 {
			continue
		}
		out = append(out, engine.NamedPredicate{
			Column: e.rel.Schema().Dimensions[ve.dim],
			Value:  ve.value,
		})
		consumed = refConsume(consumed, i, ve.phrase)
	}
	return out
}

// ---- slots ----

func refParseNumToken(tok string) (float64, bool) {
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
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, false
	}
	return v * mult, true
}

func refParseSpokenNumber(toks []string, i int) (float64, int) {
	if i >= len(toks) {
		return 0, 0
	}
	var v float64
	n := 0
	if toks[i] == "a" || toks[i] == "an" {
		if i+1 < len(toks) {
			if _, ok := numberMults[toks[i+1]]; ok {
				v, n = 1, 1
			}
		}
		if n == 0 {
			return 0, 0
		}
	} else {
		base, ok := refParseNumToken(toks[i])
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

func (e *refExtractor) detectTimeDim() {
	e.timeDim = -1
	type cand struct {
		dim    int
		hinted bool
	}
	var best *cand
	for d := 0; d < e.rel.NumDims(); d++ {
		vals := e.rel.Dim(d).Values()
		if len(vals) < 3 {
			continue
		}
		ok := true
		for _, v := range vals {
			if _, good := parsePeriodKey(refNormalize(v)); !good {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		name := strings.ToLower(e.rel.Schema().Dimensions[d])
		hinted := strings.Contains(name, "month") || strings.Contains(name, "date") ||
			strings.Contains(name, "period") || strings.Contains(name, "quarter") ||
			strings.Contains(name, "year") || strings.Contains(name, "time")
		c := cand{dim: d, hinted: hinted}
		if best == nil || (hinted && !best.hinted) {
			best = &c
		}
	}
	if best == nil {
		return
	}
	e.timeDim = best.dim
	e.timeName = e.rel.Schema().Dimensions[best.dim]
	vals := e.rel.Dim(best.dim).Values()
	type pv struct {
		key int
		val string
	}
	pvs := make([]pv, 0, len(vals))
	for _, v := range vals {
		k, _ := parsePeriodKey(refNormalize(v))
		pvs = append(pvs, pv{key: k, val: v})
	}
	sort.SliceStable(pvs, func(i, j int) bool { return pvs[i].key < pvs[j].key })
	e.periods = make([]string, len(pvs))
	e.periodIdx = make(map[string]int, len(pvs))
	for i, p := range pvs {
		e.periods[i] = p.val
		e.periodIdx[refNormalize(p.val)] = i
	}
}

func (e *refExtractor) matchPeriodAt(toks []string, i int) (idx, n int) {
	for n := 2; n >= 1; n-- {
		if i+n <= len(toks) {
			if idx, ok := e.periodIdx[strings.Join(toks[i:i+n], " ")]; ok {
				return idx, n
			}
		}
	}
	return 0, 0
}

func refJoinExcept(toks []string, from, to int) string {
	out := make([]string, 0, len(toks))
	out = append(out, toks[:from]...)
	out = append(out, toks[to:]...)
	return strings.Join(out, " ")
}

var refConstraintIntros = map[string]bool{
	"with": true, "where": true, "whose": true, "having": true,
	"have": true, "has": true,
}

var refConstraintUnits = map[string]bool{
	"dollars": true, "dollar": true, "people": true, "residents": true,
	"minutes": true, "points": true,
}

func (e *refExtractor) matchTargetAt(toks []string, i int) (string, int) {
	best, bestN := "", 0
	for _, tp := range e.targetPhrases {
		p := strings.Fields(tp.phrase)
		if len(p) <= bestN || i+len(p) > len(toks) {
			continue
		}
		match := true
		for k, w := range p {
			if toks[i+k] != w {
				match = false
				break
			}
		}
		if match {
			best, bestN = tp.target, len(p)
		}
	}
	return best, bestN
}

func (e *refExtractor) extractConstraint(norm string) (*engine.Constraint, string) {
	toks := strings.Fields(norm)
	for i, tok := range toks {
		if !refConstraintIntros[tok] {
			continue
		}
		j := i + 1
		if j < len(toks) && (toks[j] == "the" || toks[j] == "a" || toks[j] == "an") {
			j++
		}
		tgt, tn := e.matchTargetAt(toks, j)
		if tn == 0 {
			continue
		}
		j += tn
		if j < len(toks) {
			switch toks[j] {
			case "of", "is", "are", "was", "were":
				j++
			}
		}
		var op engine.ConstraintOp
		on := 0
		for _, c := range constraintOps {
			if j+len(c.words) > len(toks) {
				continue
			}
			match := true
			for k, w := range c.words {
				if toks[j+k] != w {
					match = false
					break
				}
			}
			if match {
				op, on = c.op, len(c.words)
				break
			}
		}
		if on == 0 {
			continue
		}
		j += on
		v, vn := refParseSpokenNumber(toks, j)
		if vn == 0 {
			continue
		}
		j += vn
		if j < len(toks) && refConstraintUnits[toks[j]] {
			j++
		}
		return &engine.Constraint{Target: tgt, Op: op, Value: v}, refJoinExcept(toks, i, j)
	}
	return nil, norm
}

func (e *refExtractor) extractWindow(norm string) (*Window, string) {
	if e.timeDim < 0 {
		return nil, norm
	}
	toks := strings.Fields(norm)
	n := len(e.periods)
	for i, tok := range toks {
		switch tok {
		case "since":
			if idx, pn := e.matchPeriodAt(toks, i+1); pn > 0 {
				return &Window{From: idx, To: n - 1}, refJoinExcept(toks, i, i+1+pn)
			}
		case "between", "from":
			sep := "and"
			if tok == "from" {
				sep = "to"
			}
			a, an := e.matchPeriodAt(toks, i+1)
			if an == 0 {
				continue
			}
			j := i + 1 + an
			if j >= len(toks) || toks[j] != sep {
				continue
			}
			b, bn := e.matchPeriodAt(toks, j+1)
			if bn == 0 {
				continue
			}
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			return &Window{From: lo, To: hi}, refJoinExcept(toks, i, j+1+bn)
		case "last", "past":
			j := i + 1
			count := 1.0
			if v, vn := refParseSpokenNumber(toks, j); vn > 0 {
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
			return &Window{From: from, To: n - 1}, refJoinExcept(toks, start, j+1)
		}
	}
	return nil, norm
}

func (e *refExtractor) matchDimAt(toks []string, i int) (string, int) {
	best, bestN := "", 0
	for _, dp := range e.dimPhrases {
		p := strings.Fields(dp.phrase)
		if len(p) <= bestN || i+len(p) > len(toks) {
			continue
		}
		match := true
		for k, w := range p {
			if toks[i+k] != w {
				match = false
				break
			}
		}
		if match {
			best, bestN = dp.dim, len(p)
		}
	}
	return best, bestN
}

func (e *refExtractor) extractCount(norm string) (k int, dim string, rest string, bottom bool) {
	toks := strings.Fields(norm)
	for i, tok := range toks {
		if tok == "top" || tok == "bottom" {
			v, vn := refParseSpokenNumber(toks, i+1)
			if vn == 0 || v != float64(int(v)) || v < 1 || v > 100 {
				continue
			}
			j := i + 1 + vn
			d, dn := e.matchDimAt(toks, j)
			return int(v), d, refJoinExcept(toks, i, j+dn), tok == "bottom"
		}
		v, vn := refParseSpokenNumber(toks, i)
		if vn == 0 || v != float64(int(v)) || v < 1 || v > 100 {
			continue
		}
		d, dn := e.matchDimAt(toks, i+vn)
		if dn == 0 {
			continue
		}
		return int(v), d, refJoinExcept(toks, i, i+vn+dn), false
	}
	return 0, "", norm, false
}

func refFollowUpBody(norm string) (string, bool) {
	for _, p := range followUpPrefixes {
		if norm == p {
			return "", true
		}
		if strings.HasPrefix(norm, p+" ") {
			return strings.TrimSpace(norm[len(p)+1:]), true
		}
	}
	return norm, false
}

func (e *refExtractor) extractSlots(norm string) Classification {
	var c Classification
	var rest string
	c.Constraint, rest = e.extractConstraint(norm)
	var win *Window
	win, rest = e.extractWindow(rest)

	target, bestLen := "", 0
	for _, tp := range e.targetPhrases {
		if len(tp.phrase) > bestLen && refContainsPhrase(rest, tp.phrase) {
			target, bestLen = tp.target, len(tp.phrase)
		}
	}
	c.Query.Target = target

	consumed := rest
	usedDim := map[int]bool{}
	for _, ve := range e.values {
		i := refPhraseIndex(consumed, ve.phrase)
		if i < 0 {
			continue
		}
		np := engine.NamedPredicate{
			Column: e.rel.Schema().Dimensions[ve.dim],
			Value:  ve.value,
		}
		c.Values = append(c.Values, np)
		if !usedDim[ve.dim] {
			usedDim[ve.dim] = true
			c.Query.Predicates = append(c.Query.Predicates, np)
		}
		consumed = refConsume(consumed, i, ve.phrase)
	}

	var bottom bool
	var afterCount string
	c.K, c.Dim, afterCount, bottom = e.extractCount(consumed)
	if c.Dim == "" {
		if d, ok := e.ExtractDimension(afterCount); ok {
			c.Dim = d
		}
	}

	comparison := refContainsAny(rest, comparisonMarkers)
	extremum := refContainsAny(rest, extremumMarkers) || bottom || c.K > 0
	trend := refContainsAny(rest, trendMarkers) || win != nil
	switch {
	case comparison:
		c.Kind = Comparison
	case extremum:
		if c.K > 1 {
			c.Kind = TopK
		} else {
			c.Kind = Extremum
		}
		c.HasDirection = refContainsAny(rest, extremumMarkers) || bottom
		if bottom || refContainsAny(rest, extremumMinWords) {
			c.Direction = engine.Min
		} else {
			c.Direction = engine.Max
		}
	case trend:
		c.Kind = Trend
		c.Window = win
	default:
		c.Kind = Retrieval
	}

	c.Query = c.Query.Canonical()
	c.Predicates = len(c.Query.Predicates)
	return c
}

func refContainsAny(text string, markers []string) bool {
	for _, m := range markers {
		if refContainsPhrase(text, refNormalize(m)) {
			return true
		}
	}
	return false
}

func refClassify(text string, ex *refExtractor) Classification {
	norm := refNormalize(text)
	if refContainsAny(norm, helpMarkers) {
		return Classification{Type: Help}
	}
	if refContainsAny(norm, repeatMarkers) {
		return Classification{Type: Repeat}
	}
	body, hasPrefix := refFollowUpBody(norm)
	var c Classification
	if hasPrefix {
		c = ex.extractSlots(body)
		elliptical := c.Query.Target == "" ||
			(len(c.Query.Predicates) == 0 && c.Constraint == nil && c.Window == nil &&
				c.Kind == Retrieval && c.Dim == "")
		if elliptical {
			c.Type = FollowUp
			return c
		}
	} else {
		c = ex.extractSlots(norm)
	}
	if c.Query.Target == "" && c.Constraint != nil {
		c.Query.Target = c.Constraint.Target
	}
	if c.Query.Target == "" {
		if c.Kind != Retrieval {
			return Classification{Type: UQuery, Kind: c.Kind, Dim: c.Dim, K: c.K,
				Direction: c.Direction, HasDirection: c.HasDirection, Window: c.Window}
		}
		return Classification{Type: Other}
	}
	if c.Kind != Retrieval || c.Constraint != nil ||
		len(c.Query.Predicates) > ex.maxQueryLen {
		c.Type = UQuery
		return c
	}
	c.Type = SQuery
	return c
}
