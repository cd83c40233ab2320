package engine

import (
	"fmt"
	"sort"
	"strings"

	"cicero/internal/relation"
)

// This file implements the extension the deployment logs motivate
// (Section VIII-D): about a third of unsupported data-access queries ask
// for extrema ("which airline has the most cancellations") or relative
// comparisons ("compare job satisfaction between men and women"). The
// paper lists these as future work. Both are answered at run time from
// the group-by cells of Aggregates, computed once per generation, with
// no pass over the relation's rows per request and no pre-processing.

// ExtremumKind selects maxima or minima.
type ExtremumKind int

const (
	// Max asks for the dimension value with the highest target average.
	Max ExtremumKind = iota
	// Min asks for the lowest.
	Min
)

// ExtremumAnswer is the result of an extremum query.
type ExtremumAnswer struct {
	// Dimension is the column the extremum ranges over.
	Dimension string
	// Value is the extremal dimension value, Mean its target average.
	Value string
	Mean  float64
	// RunnerUpValue and RunnerUpMean give voice answers useful contrast.
	RunnerUpValue string
	RunnerUpMean  float64
	// Count is the number of rows supporting the extremal group.
	Count int
}

// Text renders the answer as speech.
func (a ExtremumAnswer) Text(kind ExtremumKind, target string) string {
	word := "highest"
	if kind == Min {
		word = "lowest"
	}
	s := fmt.Sprintf("The %s with the %s average %s is %s, at about %s.",
		strings.ReplaceAll(a.Dimension, "_", " "), word,
		strings.ReplaceAll(target, "_", " "), a.Value, spokenFloat(a.Mean))
	if a.RunnerUpValue != "" {
		s += fmt.Sprintf(" Next is %s with %s.", a.RunnerUpValue, spokenFloat(a.RunnerUpMean))
	}
	return s
}

// AnswerExtremum finds the dimension value with the extremal target
// average within the data subset selected by preds. Groups smaller than
// minRows are ignored so tiny subsets cannot win by noise.
func AnswerExtremum(agg *Aggregates, target string, dim string, preds []relation.Predicate, kind ExtremumKind, minRows int) (ExtremumAnswer, error) {
	rel := agg.Relation()
	ti := rel.Schema().TargetIndex(target)
	if ti < 0 {
		return ExtremumAnswer{}, fmt.Errorf("extremum: no target column %q", target)
	}
	di := rel.Schema().DimIndex(dim)
	if di < 0 {
		return ExtremumAnswer{}, fmt.Errorf("extremum: no dimension column %q", dim)
	}
	groups := agg.groups(di, preds)
	type entry struct {
		value string
		mean  float64
		count int
	}
	entries := make([]entry, 0, groups.len())
	for i := range groups.len() {
		g := groups.group(i, ti)
		if g.Count < minRows {
			continue
		}
		entries = append(entries, entry{
			value: rel.Dim(di).Value(g.Key.Codes[0]),
			mean:  g.Mean(),
			count: g.Count,
		})
	}
	if len(entries) == 0 {
		return ExtremumAnswer{}, fmt.Errorf("extremum: no group of %q has at least %d rows", dim, minRows)
	}
	sort.SliceStable(entries, func(i, j int) bool {
		if kind == Max {
			return entries[i].mean > entries[j].mean
		}
		return entries[i].mean < entries[j].mean
	})
	a := ExtremumAnswer{
		Dimension: dim,
		Value:     entries[0].value,
		Mean:      entries[0].mean,
		Count:     entries[0].count,
	}
	if len(entries) > 1 {
		a.RunnerUpValue = entries[1].value
		a.RunnerUpMean = entries[1].mean
	}
	return a, nil
}

// ComparisonAnswer is the result of a relative comparison between two
// data subsets.
type ComparisonAnswer struct {
	MeanA, MeanB   float64
	CountA, CountB int
	// Ratio is MeanA/MeanB (0 when MeanB is 0).
	Ratio float64
}

// Text renders the comparison as speech.
func (c ComparisonAnswer) Text(target, labelA, labelB string) string {
	t := strings.ReplaceAll(target, "_", " ")
	switch {
	case c.MeanA > c.MeanB:
		return fmt.Sprintf("The average %s is higher for %s (%s) than for %s (%s).",
			t, labelA, spokenFloat(c.MeanA), labelB, spokenFloat(c.MeanB))
	case c.MeanA < c.MeanB:
		return fmt.Sprintf("The average %s is lower for %s (%s) than for %s (%s).",
			t, labelA, spokenFloat(c.MeanA), labelB, spokenFloat(c.MeanB))
	default:
		return fmt.Sprintf("The average %s is the same for %s and %s (%s).",
			t, labelA, labelB, spokenFloat(c.MeanA))
	}
}

// AnswerComparison compares the target averages of two data subsets.
func AnswerComparison(agg *Aggregates, target string, predsA, predsB []relation.Predicate) (ComparisonAnswer, error) {
	ti := agg.Relation().Schema().TargetIndex(target)
	if ti < 0 {
		return ComparisonAnswer{}, fmt.Errorf("comparison: no target column %q", target)
	}
	a := agg.subset(predsA, ti)
	b := agg.subset(predsB, ti)
	if a.Count == 0 || b.Count == 0 {
		return ComparisonAnswer{}, fmt.Errorf("comparison: a subset is empty (%d vs %d rows)", a.Count, b.Count)
	}
	out := ComparisonAnswer{
		MeanA: a.Mean(), MeanB: b.Mean(),
		CountA: a.Count, CountB: b.Count,
	}
	if out.MeanB != 0 {
		out.Ratio = out.MeanA / out.MeanB
	}
	return out, nil
}
