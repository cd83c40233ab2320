package engine

import (
	"strings"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/relation"
)

// cityRel builds a tiny rent relation with a planted ordering: rents
// rise Austin < Dallas < Houston, populations 100k / 600k / 2m, and a
// rising month-over-month trend.
func cityRel(t *testing.T) *relation.Relation {
	t.Helper()
	b := relation.NewBuilder("rents", relation.Schema{
		Dimensions: []string{"city", "month"},
		Targets:    []string{"rent", "population"},
	})
	months := []string{"January 2024", "February 2024", "March 2024"}
	base := map[string]float64{"Austin": 1000, "Dallas": 1500, "Houston": 2000}
	pop := map[string]float64{"Austin": 100_000, "Dallas": 600_000, "Houston": 2_000_000}
	for city, r := range base {
		for mi, m := range months {
			for rep := 0; rep < 3; rep++ {
				b.MustAddRow([]string{city, m}, []float64{r + float64(mi)*100, pop[city]})
			}
		}
	}
	return b.Freeze()
}

func TestAnswerTopK(t *testing.T) {
	rel := cityRel(t)
	a, err := AnswerTopK(NewAggregates(rel), "rent", "city", nil, Max, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Entries) != 2 || a.Entries[0].Value != "Houston" || a.Entries[1].Value != "Dallas" {
		t.Fatalf("top-2 = %+v, want Houston then Dallas", a.Entries)
	}
	if a.Total != 3 {
		t.Errorf("total = %d, want 3", a.Total)
	}
	text := a.Text(Max, "rent")
	if !strings.Contains(text, "Houston") || !strings.Contains(text, "highest") {
		t.Errorf("text = %q", text)
	}

	low, err := AnswerTopK(NewAggregates(rel), "rent", "city", nil, Min, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if low.Entries[0].Value != "Austin" {
		t.Errorf("bottom-1 = %q, want Austin", low.Entries[0].Value)
	}
	if !strings.Contains(low.Text(Min, "rent"), "lowest") {
		t.Errorf("text = %q", low.Text(Min, "rent"))
	}
}

func TestAnswerTopKWithConstraint(t *testing.T) {
	rel := cityRel(t)
	cons := &Constraint{Target: "population", Op: Over, Value: 500_000}
	a, err := AnswerTopK(NewAggregates(rel), "rent", "city", nil, Min, 1, 1, cons)
	if err != nil {
		t.Fatal(err)
	}
	// Austin has the lowest rent but only 100k people; Dallas wins.
	if a.Entries[0].Value != "Dallas" {
		t.Errorf("constrained bottom-1 = %q, want Dallas", a.Entries[0].Value)
	}
	if a.Total != 2 {
		t.Errorf("qualifying total = %d, want 2", a.Total)
	}
}

func TestAnswerTopKFlights(t *testing.T) {
	rel := dataset.Flights(12000, 1)
	a, err := AnswerTopK(NewAggregates(rel), "cancelled", "month", nil, Max, 3, 30, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(a.Entries))
	}
	// Planted effect: February leads cancellations.
	if a.Entries[0].Value != "February" {
		t.Errorf("top month = %q, want February", a.Entries[0].Value)
	}
	for i := 1; i < len(a.Entries); i++ {
		if a.Entries[i].Mean > a.Entries[i-1].Mean {
			t.Errorf("entries not ranked: %+v", a.Entries)
		}
	}
}

func TestAnswerTopKErrors(t *testing.T) {
	rel := cityRel(t)
	if _, err := AnswerTopK(NewAggregates(rel), "rent", "city", nil, Max, 0, 1, nil); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := AnswerTopK(NewAggregates(rel), "nope", "city", nil, Max, 1, 1, nil); err == nil {
		t.Error("unknown target should fail")
	}
	if _, err := AnswerTopK(NewAggregates(rel), "rent", "nope", nil, Max, 1, 1, nil); err == nil {
		t.Error("unknown dimension should fail")
	}
	if _, err := AnswerTopK(NewAggregates(rel), "rent", "city", nil, Max, 1, 10_000, nil); err == nil {
		t.Error("impossible minRows should fail")
	}
	bad := &Constraint{Target: "population", Op: Over, Value: 1e12}
	if _, err := AnswerTopK(NewAggregates(rel), "rent", "city", nil, Max, 1, 1, bad); err == nil {
		t.Error("unsatisfiable constraint should fail")
	}
}

func TestAnswerTrend(t *testing.T) {
	rel := cityRel(t)
	periods := []string{"January 2024", "February 2024", "March 2024"}
	a, err := AnswerTrend(NewAggregates(rel), "rent", "month", periods, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(a.Points))
	}
	if a.Direction != "rose" {
		t.Errorf("direction = %q, want rose (first %.0f last %.0f)", a.Direction, a.First, a.Last)
	}
	if a.ChangePct <= 0 {
		t.Errorf("change = %.2f%%, want positive", a.ChangePct)
	}
	if a.PeakPeriod != "March 2024" {
		t.Errorf("peak = %q, want March 2024", a.PeakPeriod)
	}
	text := a.Text()
	if !strings.Contains(text, "rose") || !strings.Contains(text, "January 2024") {
		t.Errorf("text = %q", text)
	}
}

func TestAnswerTrendSubsetAndWindow(t *testing.T) {
	rel := cityRel(t)
	austin, err := rel.PredicateByName("city", "Austin")
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnswerTrend(NewAggregates(rel), "rent", "month",
		[]string{"February 2024", "March 2024"}, []relation.Predicate{austin}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.First != 1100 || a.Last != 1200 {
		t.Errorf("window means = %.0f..%.0f, want 1100..1200", a.First, a.Last)
	}
}

func TestAnswerTrendFlat(t *testing.T) {
	rel := cityRel(t)
	// Population is constant per city, so overall it holds steady.
	a, err := AnswerTrend(NewAggregates(rel), "population", "month",
		[]string{"January 2024", "February 2024", "March 2024"}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Direction != "held steady" {
		t.Errorf("direction = %q, want held steady", a.Direction)
	}
	if !strings.Contains(a.Text(), "held steady") {
		t.Errorf("text = %q", a.Text())
	}
}

func TestAnswerTrendErrors(t *testing.T) {
	rel := cityRel(t)
	periods := []string{"January 2024", "February 2024"}
	if _, err := AnswerTrend(NewAggregates(rel), "nope", "month", periods, nil, 1); err == nil {
		t.Error("unknown target should fail")
	}
	if _, err := AnswerTrend(NewAggregates(rel), "rent", "nope", periods, nil, 1); err == nil {
		t.Error("unknown dimension should fail")
	}
	if _, err := AnswerTrend(NewAggregates(rel), "rent", "month", periods[:1], nil, 1); err == nil {
		t.Error("single period should fail")
	}
	if _, err := AnswerTrend(NewAggregates(rel), "rent", "month", periods, nil, 10_000); err == nil {
		t.Error("impossible minRows should fail")
	}
}

func TestAnswerConstrained(t *testing.T) {
	rel := cityRel(t)
	cons := Constraint{Target: "population", Op: Over, Value: 500_000}
	a, err := AnswerConstrained(NewAggregates(rel), "rent", "city", nil, cons, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Qualifying) != 2 || a.Qualifying[0] != "Dallas" || a.Qualifying[1] != "Houston" {
		t.Fatalf("qualifying = %v, want [Dallas Houston]", a.Qualifying)
	}
	// Dallas mean 1600, Houston mean 2100 -> combined 1850.
	if a.Mean < 1849 || a.Mean > 1851 {
		t.Errorf("mean = %.1f, want 1850", a.Mean)
	}
	text := a.Text(cons)
	if !strings.Contains(text, "population over 500 thousand") {
		t.Errorf("text = %q", text)
	}
}

func TestAnswerConstrainedWithPredicate(t *testing.T) {
	rel := cityRel(t)
	jan, _ := rel.PredicateByName("month", "January 2024")
	cons := Constraint{Target: "population", Op: AtLeast, Value: 600_000}
	a, err := AnswerConstrained(NewAggregates(rel), "rent", "city", []relation.Predicate{jan}, cons, 1)
	if err != nil {
		t.Fatal(err)
	}
	// January only: Dallas 1500, Houston 2000 -> 1750.
	if a.Mean < 1749 || a.Mean > 1751 {
		t.Errorf("mean = %.1f, want 1750", a.Mean)
	}
}

func TestAnswerConstrainedErrors(t *testing.T) {
	rel := cityRel(t)
	good := Constraint{Target: "population", Op: Over, Value: 500_000}
	if _, err := AnswerConstrained(NewAggregates(rel), "nope", "city", nil, good, 1); err == nil {
		t.Error("unknown target should fail")
	}
	if _, err := AnswerConstrained(NewAggregates(rel), "rent", "nope", nil, good, 1); err == nil {
		t.Error("unknown dimension should fail")
	}
	bad := Constraint{Target: "nope", Op: Over, Value: 1}
	if _, err := AnswerConstrained(NewAggregates(rel), "rent", "city", nil, bad, 1); err == nil {
		t.Error("unknown constraint target should fail")
	}
	never := Constraint{Target: "population", Op: Over, Value: 1e12}
	if _, err := AnswerConstrained(NewAggregates(rel), "rent", "city", nil, never, 1); err == nil {
		t.Error("unsatisfiable constraint should fail")
	}
	// Query predicate disjoint from qualifying entities.
	austin, _ := rel.PredicateByName("city", "Austin")
	if _, err := AnswerConstrained(NewAggregates(rel), "rent", "city", []relation.Predicate{austin}, good, 1); err == nil {
		t.Error("disjoint subset should fail")
	}
}

func TestConstraintOpsAndSpokenNumbers(t *testing.T) {
	cases := []struct {
		c    Constraint
		v    float64
		want bool
	}{
		{Constraint{"p", Over, 10}, 11, true},
		{Constraint{"p", Over, 10}, 10, false},
		{Constraint{"p", Under, 10}, 9, true},
		{Constraint{"p", Under, 10}, 10, false},
		{Constraint{"p", AtLeast, 10}, 10, true},
		{Constraint{"p", AtLeast, 10}, 9, false},
		{Constraint{"p", AtMost, 10}, 10, true},
		{Constraint{"p", AtMost, 10}, 11, false},
	}
	for _, c := range cases {
		if got := c.c.Satisfied(c.v); got != c.want {
			t.Errorf("%s satisfied by %g = %v, want %v", c.c.Describe(), c.v, got, c.want)
		}
	}
	if got := SpokenNumber(2_500_000); got != "2.5 million" {
		t.Errorf("SpokenNumber(2.5e6) = %q", got)
	}
	if got := SpokenNumber(500_000); got != "500 thousand" {
		t.Errorf("SpokenNumber(5e5) = %q", got)
	}
	if got := SpokenNumber(42); got != "42" {
		t.Errorf("SpokenNumber(42) = %q", got)
	}
	if got := (Constraint{"job_satisfaction", AtMost, 3}).Describe(); got != "job satisfaction at most 3" {
		t.Errorf("Describe = %q", got)
	}
}
