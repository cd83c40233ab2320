package engine

import (
	"fmt"
	"sort"

	"cicero/internal/relation"
)

// The run-time shapes as they were before they read group-by cells:
// every request scans the whole relation. They are kept, body for body,
// as the oracle Aggregates is checked against (TestCellsMatchScan). The
// one change is that the filtered group-by they called is spelled
// Select(preds).GroupBy, which it was defined to equal.

func referenceQualifyingCodes(rel *relation.Relation, di int, cons Constraint, minRows int) (map[int32]bool, error) {
	ci := rel.Schema().TargetIndex(cons.Target)
	if ci < 0 {
		return nil, fmt.Errorf("constraint: no target column %q", cons.Target)
	}
	groups := rel.FullView().GroupBy([]int{di}, ci)
	ok := make(map[int32]bool)
	for _, g := range groups {
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

func referenceExtremum(rel *relation.Relation, target string, dim string, preds []relation.Predicate, kind ExtremumKind, minRows int) (ExtremumAnswer, error) {
	ti := rel.Schema().TargetIndex(target)
	if ti < 0 {
		return ExtremumAnswer{}, fmt.Errorf("extremum: no target column %q", target)
	}
	di := rel.Schema().DimIndex(dim)
	if di < 0 {
		return ExtremumAnswer{}, fmt.Errorf("extremum: no dimension column %q", dim)
	}
	groups := rel.FullView().Select(preds).GroupBy([]int{di}, ti)
	type entry struct {
		value string
		mean  float64
		count int
	}
	var entries []entry
	for _, g := range groups {
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

func referenceComparison(rel *relation.Relation, target string, predsA, predsB []relation.Predicate) (ComparisonAnswer, error) {
	ti := rel.Schema().TargetIndex(target)
	if ti < 0 {
		return ComparisonAnswer{}, fmt.Errorf("comparison: no target column %q", target)
	}
	full := rel.FullView()
	a := full.Select(predsA).Stats(ti)
	b := full.Select(predsB).Stats(ti)
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

func referenceTopK(rel *relation.Relation, target, dim string, preds []relation.Predicate, kind ExtremumKind, k, minRows int, cons *Constraint) (TopKAnswer, error) {
	if k <= 0 {
		return TopKAnswer{}, fmt.Errorf("topk: k must be positive, got %d", k)
	}
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
		allowed, err = referenceQualifyingCodes(rel, di, *cons, minRows)
		if err != nil {
			return TopKAnswer{}, err
		}
	}
	groups := rel.FullView().Select(preds).GroupBy([]int{di}, ti)
	var entries []TopKEntry
	for _, g := range groups {
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

func referenceTrend(rel *relation.Relation, target, timeDim string, periods []string, preds []relation.Predicate, minRows int) (TrendAnswer, error) {
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
	groups := rel.FullView().Select(preds).GroupBy([]int{di}, ti)
	byPeriod := make(map[string]TrendPoint, len(groups))
	col := rel.Dim(di)
	for _, g := range groups {
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

func referenceConstrained(rel *relation.Relation, target, entityDim string, preds []relation.Predicate, cons Constraint, minRows int) (ConstrainedAnswer, error) {
	ti := rel.Schema().TargetIndex(target)
	if ti < 0 {
		return ConstrainedAnswer{}, fmt.Errorf("constrained: no target column %q", target)
	}
	di := rel.Schema().DimIndex(entityDim)
	if di < 0 {
		return ConstrainedAnswer{}, fmt.Errorf("constrained: no dimension column %q", entityDim)
	}
	allowed, err := referenceQualifyingCodes(rel, di, cons, minRows)
	if err != nil {
		return ConstrainedAnswer{}, err
	}
	groups := rel.FullView().Select(preds).GroupBy([]int{di}, ti)
	a := ConstrainedAnswer{Target: target, Dimension: entityDim}
	var sum float64
	col := rel.Dim(di)
	for _, g := range groups {
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
