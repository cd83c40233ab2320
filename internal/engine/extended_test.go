package engine

import (
	"encoding/json"
	"strings"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/relation"
)

func TestAnswerExtremumMax(t *testing.T) {
	rel := dataset.Flights(12000, 1)
	a, err := AnswerExtremum(NewAggregates(rel), "cancelled", "month", nil, Max, 30)
	if err != nil {
		t.Fatal(err)
	}
	// The planted effect: February has the highest cancellation rate.
	if a.Value != "February" {
		t.Errorf("max-cancellation month = %q, want February (mean %.3f)", a.Value, a.Mean)
	}
	if a.RunnerUpValue == "" || a.RunnerUpMean > a.Mean {
		t.Errorf("runner-up %q/%.3f inconsistent", a.RunnerUpValue, a.RunnerUpMean)
	}
	text := a.Text(Max, "cancelled")
	if !strings.Contains(text, "February") || !strings.Contains(text, "highest") {
		t.Errorf("text = %q", text)
	}
}

func TestAnswerExtremumMinWithinSubset(t *testing.T) {
	rel := dataset.Flights(12000, 1)
	winter, err := rel.PredicateByName("season", "Winter")
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnswerExtremum(NewAggregates(rel), "delay", "time_of_day", []relation.Predicate{winter}, Min, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Evening has the planted +6 delay, so it must not be the minimum.
	if a.Value == "Evening" {
		t.Error("Evening should not have minimal winter delay")
	}
	if !strings.Contains(a.Text(Min, "delay"), "lowest") {
		t.Errorf("text = %q", a.Text(Min, "delay"))
	}
}

func TestAnswerExtremumErrors(t *testing.T) {
	rel := dataset.Flights(500, 1)
	if _, err := AnswerExtremum(NewAggregates(rel), "nope", "month", nil, Max, 1); err == nil {
		t.Error("unknown target should fail")
	}
	if _, err := AnswerExtremum(NewAggregates(rel), "delay", "nope", nil, Max, 1); err == nil {
		t.Error("unknown dimension should fail")
	}
	if _, err := AnswerExtremum(NewAggregates(rel), "delay", "month", nil, Max, 10_000); err == nil {
		t.Error("impossible minRows should fail")
	}
}

func TestAnswerComparison(t *testing.T) {
	rel := dataset.Flights(12000, 1)
	feb, _ := rel.PredicateByName("month", "February")
	jul, _ := rel.PredicateByName("month", "July")
	c, err := AnswerComparison(NewAggregates(rel), "cancelled", []relation.Predicate{feb}, []relation.Predicate{jul})
	if err != nil {
		t.Fatal(err)
	}
	if c.MeanA <= c.MeanB {
		t.Errorf("February cancel rate %.3f should exceed July %.3f", c.MeanA, c.MeanB)
	}
	if c.Ratio <= 1 {
		t.Errorf("ratio = %.2f, want > 1", c.Ratio)
	}
	text := c.Text("cancelled", "February", "July")
	if !strings.Contains(text, "higher for February") {
		t.Errorf("text = %q", text)
	}
	// Reversed order renders "lower".
	c2, err := AnswerComparison(NewAggregates(rel), "cancelled", []relation.Predicate{jul}, []relation.Predicate{feb})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c2.Text("cancelled", "July", "February"), "lower for July") {
		t.Errorf("reverse text = %q", c2.Text("cancelled", "July", "February"))
	}
}

func TestAnswerComparisonErrors(t *testing.T) {
	rel := dataset.Flights(500, 1)
	feb, _ := rel.PredicateByName("month", "February")
	if _, err := AnswerComparison(NewAggregates(rel), "nope", []relation.Predicate{feb}, nil); err == nil {
		t.Error("unknown target should fail")
	}
	empty := []relation.Predicate{{Dim: 0, Code: 9999}}
	if _, err := AnswerComparison(NewAggregates(rel), "delay", empty, []relation.Predicate{feb}); err == nil {
		t.Error("empty subset should fail")
	}
}

func TestComparisonEqualMeans(t *testing.T) {
	b := relation.NewBuilder("flat", relation.Schema{
		Dimensions: []string{"g"}, Targets: []string{"v"},
	})
	b.MustAddRow([]string{"a"}, []float64{5})
	b.MustAddRow([]string{"b"}, []float64{5})
	rel := b.Freeze()
	pa, _ := rel.PredicateByName("g", "a")
	pb, _ := rel.PredicateByName("g", "b")
	c, err := AnswerComparison(NewAggregates(rel), "v", []relation.Predicate{pa}, []relation.Predicate{pb})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.Text("v", "a", "b"), "same") {
		t.Errorf("equal-mean text = %q", c.Text("v", "a", "b"))
	}
}

func TestStorePersistenceRoundTrip(t *testing.T) {
	rel := dataset.Flights(1500, 1)
	cfg := Config{
		Dataset: rel.Name(), Targets: []string{"delay"},
		Dimensions: []string{"season"}, MaxQueryLen: 1,
		MaxFactDims: 2, MaxFacts: 3,
	}
	store := buildStore(t, rel, cfg, Template{Unit: "minutes"})

	var buf strings.Builder
	if err := store.Save(&buf, rel); err != nil {
		t.Fatal(err)
	}
	// Save has no loader: decode the dump by hand and restore each
	// speech the way the checkpoint and patch readers do.
	var dump persistedStore
	if err := json.Unmarshal([]byte(buf.String()), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Version != storeVersion || dump.Dataset != rel.Name() {
		t.Fatalf("dump header = version %d dataset %q", dump.Version, dump.Dataset)
	}
	loaded := NewStore()
	for _, ps := range dump.Speeches {
		sp, err := ps.Restore(rel)
		if err != nil {
			t.Fatal(err)
		}
		loaded.Add(sp)
	}
	if loaded.Len() != store.Len() {
		t.Fatalf("loaded %d speeches, want %d", loaded.Len(), store.Len())
	}
	for _, sp := range store.Speeches() {
		got, ok := loaded.Exact(sp.Query)
		if !ok {
			t.Fatalf("speech for %v missing after round trip", sp.Query)
		}
		if got.Text != sp.Text || got.Utility != sp.Utility {
			t.Fatalf("speech for %v corrupted: %+v vs %+v", sp.Query, got, sp)
		}
		if len(got.Facts) != len(sp.Facts) {
			t.Fatalf("speech for %v lost facts: %d vs %d", sp.Query, len(got.Facts), len(sp.Facts))
		}
		for i := range got.Facts {
			if !got.Facts[i].Scope.Equal(sp.Facts[i].Scope) || got.Facts[i].Value != sp.Facts[i].Value {
				t.Fatalf("fact %d differs after round trip", i)
			}
		}
	}
}

func TestRestoreDropsUnresolvableFacts(t *testing.T) {
	rel := dataset.Flights(200, 1)
	in := `{"query":{"target":"delay"},
		 "facts":[{"columns":["season"],"values":["Winter"],"value":12},
		          {"columns":["season"],"values":["Monsoon"],"value":99},
		          {"columns":["bogus"],"values":["x"],"value":1}],
		 "utility":5,"prior_error":10,"text":"t"}`
	var ps PersistedSpeech
	if err := json.Unmarshal([]byte(in), &ps); err != nil {
		t.Fatal(err)
	}
	sp, err := ps.Restore(rel)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Text != "t" || sp.Query.Target != "delay" {
		t.Fatalf("restored speech = %+v", sp)
	}
	if len(sp.Facts) != 1 {
		t.Errorf("facts = %d, want 1 (unresolvable dropped)", len(sp.Facts))
	}
}

func TestAnswerTextNeverScientific(t *testing.T) {
	// Housing-scale means (thousands of dollars) must render as spoken
	// numbers, not the "3.34e+03" that %.3g produces above 1000.
	ext := ExtremumAnswer{
		Dimension: "city", Value: "New York", Mean: 3341.7,
		RunnerUpValue: "San Francisco", RunnerUpMean: 3289.2,
	}
	if s := ext.Text(Max, "rent"); strings.Contains(s, "e+0") {
		t.Errorf("extremum text uses scientific notation: %q", s)
	}
	cmp := ComparisonAnswer{MeanA: 1804.3, MeanB: 1253.9, CountA: 10, CountB: 10}
	if s := cmp.Text("rent", "Austin", "San Antonio"); strings.Contains(s, "e+0") {
		t.Errorf("comparison text uses scientific notation: %q", s)
	}
	tmpl := Template{Unit: "dollars"}
	if s := tmpl.formatValue(2541.8); strings.Contains(s, "e+0") {
		t.Errorf("summary value uses scientific notation: %q", s)
	}
}
