package engine

import (
	"fmt"
	"sort"
	"strings"

	"cicero/internal/relation"
)

// This file grows the run-time answer surface beyond the extremum and
// comparison shapes in extended.go: numeric entity constraints ("cities
// with population over 500 thousand"), top-k extrema ("the three cities
// with the highest rent"), and trends over an ordered time dimension
// ("how did rent change since January 2023"). Like the extended shapes
// they read the group-by cells of Aggregates, never the relation's rows,
// and need no pre-processing.

// ConstraintOp compares an entity's aggregate against a threshold.
type ConstraintOp int

const (
	// Over requires the aggregate to be strictly greater than the value.
	Over ConstraintOp = iota
	// Under requires it to be strictly less.
	Under
	// AtLeast and AtMost are the inclusive variants.
	AtLeast
	AtMost
)

// String returns the spoken form of the operator.
func (op ConstraintOp) String() string {
	switch op {
	case Over:
		return "over"
	case Under:
		return "under"
	case AtLeast:
		return "at least"
	default:
		return "at most"
	}
}

// Constraint is a numeric filter on a target aggregate, qualifying the
// entities of some dimension ("population over 500000" keeps the cities
// whose average population exceeds the threshold).
type Constraint struct {
	// Target is the constraining target column.
	Target string
	Op     ConstraintOp
	Value  float64
}

// Satisfied reports whether an aggregate passes the constraint.
func (c Constraint) Satisfied(mean float64) bool {
	switch c.Op {
	case Over:
		return mean > c.Value
	case Under:
		return mean < c.Value
	case AtLeast:
		return mean >= c.Value
	default:
		return mean <= c.Value
	}
}

// Describe renders the constraint as speech.
func (c Constraint) Describe() string {
	return fmt.Sprintf("%s %s %s",
		strings.ReplaceAll(c.Target, "_", " "), c.Op, SpokenNumber(c.Value))
}

// SpokenNumber formats a threshold the way it would be said aloud.
func SpokenNumber(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%g million", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%g thousand", v/1e3)
	default:
		return fmt.Sprintf("%g", v)
	}
}

// spokenFloat renders a computed mean for speech: roughly three
// significant digits and never scientific notation, which %.3g falls
// into above 1000 (a voice channel cannot say "3.34e+03").
func spokenFloat(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case av >= 1e6:
		return fmt.Sprintf("%.3g million", v/1e6)
	case av >= 1e4:
		return fmt.Sprintf("%.3g thousand", v/1e3)
	case av >= 1e3:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// qualifyingCodes returns the dimension codes whose whole-relation
// average of the constraint target satisfies the constraint. The whole
// relation is used on purpose: a city's population does not depend on
// which subset of rows the main query selects.
func qualifyingCodes(agg *Aggregates, di int, cons Constraint, minRows int) (map[int32]bool, error) {
	ci := agg.Relation().Schema().TargetIndex(cons.Target)
	if ci < 0 {
		return nil, fmt.Errorf("constraint: no target column %q", cons.Target)
	}
	groups := agg.groups(di, nil)
	ok := make(map[int32]bool)
	for i := range groups.len() {
		g := groups.group(i, ci)
		if g.Count < minRows {
			continue
		}
		if cons.Satisfied(g.Mean()) {
			ok[g.Key.Codes[0]] = true
		}
	}
	if len(ok) == 0 {
		return nil, fmt.Errorf("constraint: no group satisfies %s", cons.Describe())
	}
	return ok, nil
}

// TopKEntry is one ranked group in a top-k answer.
type TopKEntry struct {
	Value string
	Mean  float64
	Count int
}

// TopKAnswer ranks the k dimension values with the extremal target
// average, the multi-winner generalization of ExtremumAnswer.
type TopKAnswer struct {
	// Dimension is the column the ranking ranges over.
	Dimension string
	// K is the requested count; Entries may be shorter when fewer
	// groups qualify.
	K       int
	Entries []TopKEntry
	// Total counts all qualifying groups, so answers can say
	// "of 18 cities".
	Total int
}

// Text renders the ranking as speech.
func (a TopKAnswer) Text(kind ExtremumKind, target string) string {
	word := "highest"
	if kind == Min {
		word = "lowest"
	}
	dim := strings.ReplaceAll(a.Dimension, "_", " ")
	t := strings.ReplaceAll(target, "_", " ")
	parts := make([]string, len(a.Entries))
	for i, e := range a.Entries {
		parts[i] = fmt.Sprintf("%s at %s", e.Value, spokenFloat(e.Mean))
	}
	var list string
	switch len(parts) {
	case 1:
		return fmt.Sprintf("The %s value with the %s average %s is %s.",
			dim, word, t, parts[0])
	case 2:
		list = parts[0] + " and " + parts[1]
	default:
		list = strings.Join(parts[:len(parts)-1], ", ") + ", and " + parts[len(parts)-1]
	}
	return fmt.Sprintf("The %d %s values with the %s average %s are %s.",
		len(a.Entries), dim, word, t, list)
}

// AnswerTopK ranks dimension values by target average within the subset
// selected by preds and returns the top (or bottom) k. Groups smaller
// than minRows are ignored. A non-nil constraint first restricts the
// ranking to qualifying entities ("cities with population over 500k").
func AnswerTopK(agg *Aggregates, target, dim string, preds []relation.Predicate, kind ExtremumKind, k, minRows int, cons *Constraint) (TopKAnswer, error) {
	if k <= 0 {
		return TopKAnswer{}, fmt.Errorf("topk: k must be positive, got %d", k)
	}
	rel := agg.Relation()
	ti := rel.Schema().TargetIndex(target)
	if ti < 0 {
		return TopKAnswer{}, fmt.Errorf("topk: no target column %q", target)
	}
	di := rel.Schema().DimIndex(dim)
	if di < 0 {
		return TopKAnswer{}, fmt.Errorf("topk: no dimension column %q", dim)
	}
	var allowed map[int32]bool
	if cons != nil {
		var err error
		allowed, err = qualifyingCodes(agg, di, *cons, minRows)
		if err != nil {
			return TopKAnswer{}, err
		}
	}
	groups := agg.groups(di, preds)
	var entries []TopKEntry
	for i := range groups.len() {
		g := groups.group(i, ti)
		if g.Count < minRows {
			continue
		}
		code := g.Key.Codes[0]
		if allowed != nil && !allowed[code] {
			continue
		}
		entries = append(entries, TopKEntry{
			Value: rel.Dim(di).Value(code),
			Mean:  g.Mean(),
			Count: g.Count,
		})
	}
	if len(entries) == 0 {
		return TopKAnswer{}, fmt.Errorf("topk: no group of %q has at least %d rows", dim, minRows)
	}
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].Mean != entries[j].Mean {
			if kind == Max {
				return entries[i].Mean > entries[j].Mean
			}
			return entries[i].Mean < entries[j].Mean
		}
		return entries[i].Value < entries[j].Value
	})
	total := len(entries)
	if len(entries) > k {
		entries = entries[:k]
	}
	return TopKAnswer{Dimension: dim, K: k, Entries: entries, Total: total}, nil
}

// TrendPoint is one period of a trend answer.
type TrendPoint struct {
	Period string
	Mean   float64
	Count  int
}

// TrendAnswer describes how a target average moved across an ordered
// time dimension.
type TrendAnswer struct {
	Target        string
	TimeDimension string
	// Points are chronological; periods with too few rows are skipped.
	Points []TrendPoint
	// First and Last are the endpoint means, ChangePct the relative
	// move between them in percent (0 when First is 0).
	First, Last float64
	ChangePct   float64
	// Direction is "rose", "fell", or "held steady".
	Direction string
	// PeakPeriod and PeakMean locate the extreme point of the window.
	PeakPeriod string
	PeakMean   float64
}

// Text renders the trend as speech.
func (a TrendAnswer) Text() string {
	t := strings.ReplaceAll(a.Target, "_", " ")
	first := a.Points[0]
	last := a.Points[len(a.Points)-1]
	s := fmt.Sprintf("The average %s %s", t, a.Direction)
	if a.Direction != "held steady" && a.ChangePct != 0 {
		s += fmt.Sprintf(" about %.3g percent", absFloat(a.ChangePct))
	}
	s += fmt.Sprintf(" between %s and %s, from %s to %s.",
		first.Period, last.Period, spokenFloat(a.First), spokenFloat(a.Last))
	if a.PeakPeriod != "" && a.PeakPeriod != first.Period && a.PeakPeriod != last.Period {
		s += fmt.Sprintf(" It peaked at %s in %s.", spokenFloat(a.PeakMean), a.PeakPeriod)
	}
	return s
}

func absFloat(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// AnswerTrend computes the target average per period of an ordered time
// dimension, restricted to the subset selected by preds. The caller
// supplies the periods in chronological order (the voice layer owns the
// calendar); periods with fewer than minRows rows are skipped and at
// least two must survive to make a trend.
func AnswerTrend(agg *Aggregates, target, timeDim string, periods []string, preds []relation.Predicate, minRows int) (TrendAnswer, error) {
	rel := agg.Relation()
	ti := rel.Schema().TargetIndex(target)
	if ti < 0 {
		return TrendAnswer{}, fmt.Errorf("trend: no target column %q", target)
	}
	di := rel.Schema().DimIndex(timeDim)
	if di < 0 {
		return TrendAnswer{}, fmt.Errorf("trend: no dimension column %q", timeDim)
	}
	if len(periods) < 2 {
		return TrendAnswer{}, fmt.Errorf("trend: need at least 2 periods, got %d", len(periods))
	}
	groups := agg.groups(di, preds)
	byPeriod := make(map[string]TrendPoint, groups.len())
	col := rel.Dim(di)
	for i := range groups.len() {
		g := groups.group(i, ti)
		if g.Count < minRows {
			continue
		}
		v := col.Value(g.Key.Codes[0])
		byPeriod[v] = TrendPoint{Period: v, Mean: g.Mean(), Count: g.Count}
	}
	a := TrendAnswer{Target: target, TimeDimension: timeDim}
	for _, p := range periods {
		if pt, ok := byPeriod[p]; ok {
			a.Points = append(a.Points, pt)
		}
	}
	if len(a.Points) < 2 {
		return TrendAnswer{}, fmt.Errorf("trend: only %d of %d periods have at least %d rows", len(a.Points), len(periods), minRows)
	}
	a.First = a.Points[0].Mean
	a.Last = a.Points[len(a.Points)-1].Mean
	if a.First != 0 {
		a.ChangePct = (a.Last - a.First) / absFloat(a.First) * 100
	}
	switch {
	case absFloat(a.ChangePct) < 1:
		a.Direction = "held steady"
	case a.Last > a.First:
		a.Direction = "rose"
	default:
		a.Direction = "fell"
	}
	peak := a.Points[0]
	for _, pt := range a.Points[1:] {
		if pt.Mean > peak.Mean {
			peak = pt
		}
	}
	a.PeakPeriod, a.PeakMean = peak.Period, peak.Mean
	return a, nil
}

// ConstrainedAnswer is the result of a retrieval restricted to entities
// that satisfy a numeric constraint.
type ConstrainedAnswer struct {
	Target string
	// Dimension is the entity column the constraint qualifies.
	Dimension string
	// Qualifying lists the entity values that passed, sorted.
	Qualifying []string
	// Mean and Count aggregate the target over preds AND the
	// qualifying entities.
	Mean  float64
	Count int
}

// Text renders the constrained answer as speech.
func (a ConstrainedAnswer) Text(cons Constraint) string {
	t := strings.ReplaceAll(a.Target, "_", " ")
	dim := strings.ReplaceAll(a.Dimension, "_", " ")
	s := fmt.Sprintf("Across the %d %s values with %s, the average %s is about %s.",
		len(a.Qualifying), dim, cons.Describe(), t, spokenFloat(a.Mean))
	if len(a.Qualifying) <= 4 {
		s += " They are " + strings.Join(a.Qualifying, ", ") + "."
	}
	return s
}

// AnswerConstrained averages the target over the subset selected by
// preds, restricted to entities of entityDim whose constraint aggregate
// qualifies ("rent for two-bedroom apartments in cities with population
// over 500 thousand").
func AnswerConstrained(agg *Aggregates, target, entityDim string, preds []relation.Predicate, cons Constraint, minRows int) (ConstrainedAnswer, error) {
	rel := agg.Relation()
	ti := rel.Schema().TargetIndex(target)
	if ti < 0 {
		return ConstrainedAnswer{}, fmt.Errorf("constrained: no target column %q", target)
	}
	di := rel.Schema().DimIndex(entityDim)
	if di < 0 {
		return ConstrainedAnswer{}, fmt.Errorf("constrained: no dimension column %q", entityDim)
	}
	allowed, err := qualifyingCodes(agg, di, cons, minRows)
	if err != nil {
		return ConstrainedAnswer{}, err
	}
	groups := agg.groups(di, preds)
	a := ConstrainedAnswer{Target: target, Dimension: entityDim}
	var sum float64
	col := rel.Dim(di)
	for i := range groups.len() {
		g := groups.group(i, ti)
		if !allowed[g.Key.Codes[0]] {
			continue
		}
		sum += g.Sum
		a.Count += g.Count
	}
	for code := range allowed {
		a.Qualifying = append(a.Qualifying, col.Value(code))
	}
	sort.Strings(a.Qualifying)
	if a.Count == 0 {
		return ConstrainedAnswer{}, fmt.Errorf("constrained: no rows match both the query and %s", cons.Describe())
	}
	a.Mean = sum / float64(a.Count)
	return a, nil
}
