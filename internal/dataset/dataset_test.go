package dataset

import (
	"testing"

	"cicero/internal/relation"
)

func TestTable1Structure(t *testing.T) {
	// Dimension and target counts must match Table I of the paper.
	cases := []struct {
		name     string
		rel      *relation.Relation
		dims     int
		targets  int
		minCards int // every dimension has at least this many values
	}{
		{"acs", ACS(500, 1), 3, 6, 2},
		{"stackoverflow", StackOverflow(2000, 1), 7, 6, 2},
		{"flights", Flights(2000, 1), 6, 2, 4},
		{"primaries", Primaries(800, 1), 5, 1, 3},
	}
	for _, c := range cases {
		if got := c.rel.NumDims(); got != c.dims {
			t.Errorf("%s dims = %d, want %d", c.name, got, c.dims)
		}
		if got := c.rel.NumTargets(); got != c.targets {
			t.Errorf("%s targets = %d, want %d", c.name, got, c.targets)
		}
		for d := 0; d < c.rel.NumDims(); d++ {
			if card := c.rel.Dim(d).Cardinality(); card < c.minCards {
				t.Errorf("%s dim %s cardinality %d < %d",
					c.name, c.rel.Schema().Dimensions[d], card, c.minCards)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := Flights(1000, 42)
	b := Flights(1000, 42)
	if a.NumRows() != b.NumRows() {
		t.Fatal("row counts differ")
	}
	for i := 0; i < a.NumRows(); i++ {
		if a.Target(1).At(i) != b.Target(1).At(i) {
			t.Fatalf("row %d differs between identical seeds", i)
		}
	}
	c := Flights(1000, 43)
	same := true
	for i := 0; i < a.NumRows() && same; i++ {
		same = a.Target(1).At(i) == c.Target(1).At(i)
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

// TestPlantedEffectsFlights verifies the domain structure the paper's
// example speeches rely on: February cancellations spike, the West is
// calmer, winter delays are elevated.
func TestPlantedEffectsFlights(t *testing.T) {
	rel := Flights(20000, 7)
	view := rel.FullView()
	cancelled := rel.Schema().TargetIndex("cancelled")
	delay := rel.Schema().TargetIndex("delay")

	overallCancel := view.Stats(cancelled).Mean()
	feb, err := rel.PredicateByName("month", "February")
	if err != nil {
		t.Fatal(err)
	}
	febCancel := view.Select([]relation.Predicate{feb}).Stats(cancelled).Mean()
	if febCancel < overallCancel*1.5 {
		t.Errorf("February cancel rate %.3f not elevated vs overall %.3f", febCancel, overallCancel)
	}

	west, _ := rel.PredicateByName("origin_region", "West")
	westCancel := view.Select([]relation.Predicate{west}).Stats(cancelled).Mean()
	if westCancel > overallCancel {
		t.Errorf("West cancel rate %.3f not reduced vs overall %.3f", westCancel, overallCancel)
	}

	winter, _ := rel.PredicateByName("season", "Winter")
	summer, _ := rel.PredicateByName("season", "Summer")
	wd := view.Select([]relation.Predicate{winter}).Stats(delay).Mean()
	sd := view.Select([]relation.Predicate{summer}).Stats(delay).Mean()
	if wd <= sd {
		t.Errorf("winter delay %.2f not above summer %.2f", wd, sd)
	}
}

// TestPlantedEffectsACS verifies the age gradient behind the paper's
// best speech for visual impairment (elders ≫ adults ≫ teenagers).
func TestPlantedEffectsACS(t *testing.T) {
	rel := ACS(6000, 7)
	view := rel.FullView()
	visual := rel.Schema().TargetIndex("visual")
	means := map[string]float64{}
	for _, ag := range []string{"Teenagers", "Adults", "Elders"} {
		p, err := rel.PredicateByName("age_group", ag)
		if err != nil {
			t.Fatal(err)
		}
		means[ag] = view.Select([]relation.Predicate{p}).Stats(visual).Mean()
	}
	if !(means["Elders"] > means["Adults"] && means["Adults"] > means["Teenagers"]) {
		t.Errorf("age gradient broken: %+v", means)
	}
	// Rough magnitudes from Table II: elders ≈ 80, adults ≈ 17, teens ≈ 3.
	if means["Elders"] < 50 || means["Elders"] > 120 {
		t.Errorf("elder visual prevalence %.1f outside plausible range", means["Elders"])
	}
}

// TestPlantedEffectsStackOverflow verifies seniority raises competence
// and lowers optimism, the effects behind the S-C and S-O scenarios.
func TestPlantedEffectsStackOverflow(t *testing.T) {
	rel := StackOverflow(15000, 7)
	view := rel.FullView()
	comp := rel.Schema().TargetIndex("competence")
	opt := rel.Schema().TargetIndex("optimism")
	young, _ := rel.PredicateByName("age_range", "<20")
	old, _ := rel.PredicateByName("age_range", "55+")
	vy := view.Select([]relation.Predicate{young})
	vo := view.Select([]relation.Predicate{old})
	if vy.Stats(comp).Mean() >= vo.Stats(comp).Mean() {
		t.Error("competence should rise with age")
	}
	if vy.Stats(opt).Mean() <= vo.Stats(opt).Mean() {
		t.Error("optimism should fall with age")
	}
}

// TestPlantedEffectsPrimaries verifies candidate-state interactions.
func TestPlantedEffectsPrimaries(t *testing.T) {
	rel := Primaries(12000, 7)
	view := rel.FullView()
	biden, _ := rel.PredicateByName("candidate", "Biden")
	sc, _ := rel.PredicateByName("state", "South Carolina")
	ia, _ := rel.PredicateByName("state", "Iowa")
	bidenSC := view.Select([]relation.Predicate{biden, sc}).Stats(0).Mean()
	bidenIA := view.Select([]relation.Predicate{biden, ia}).Stats(0).Mean()
	if bidenSC <= bidenIA {
		t.Errorf("Biden SC %.1f should exceed IA %.1f", bidenSC, bidenIA)
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		rel := ByName(name, 1)
		if rel == nil {
			t.Fatalf("ByName(%q) = nil", name)
		}
		if rel.NumRows() != DefaultRows[name] {
			t.Errorf("%s rows = %d, want %d", name, rel.NumRows(), DefaultRows[name])
		}
		if sized := ByNameRows(name, 500, 1); sized == nil || sized.NumRows() != 500 {
			t.Errorf("ByNameRows(%q, 500) did not generate 500 rows", name)
		}
	}
	if ByName("nope", 1) != nil || ByNameRows("nope", 500, 1) != nil {
		t.Error("unknown name should return nil")
	}
}

func TestSeasonConsistency(t *testing.T) {
	// month and season dimensions must agree for every flights row.
	rel := Flights(5000, 3)
	seasonOf := map[string]string{
		"December": "Winter", "January": "Winter", "February": "Winter",
		"March": "Spring", "April": "Spring", "May": "Spring",
		"June": "Summer", "July": "Summer", "August": "Summer",
		"September": "Fall", "October": "Fall", "November": "Fall",
	}
	mi := rel.Schema().DimIndex("month")
	si := rel.Schema().DimIndex("season")
	for row := 0; row < rel.NumRows(); row++ {
		m := rel.Dim(mi).Value(rel.Dim(mi).CodeAt(row))
		s := rel.Dim(si).Value(rel.Dim(si).CodeAt(row))
		if seasonOf[m] != s {
			t.Fatalf("row %d: month %s has season %s, want %s", row, m, s, seasonOf[m])
		}
	}
}

// TestHousingPlantedEffects verifies the time-series tenant's structure:
// 18 chronological month periods, a rising rent trend, stable per-city
// populations, coastal metros renting highest, and the Texas subset the
// follow-up examples lean on.
func TestHousingPlantedEffects(t *testing.T) {
	rel := Housing(12000, 5)
	if rel.Name() != "housing" {
		t.Fatalf("name = %q", rel.Name())
	}
	if got := rel.NumDims(); got != 4 {
		t.Fatalf("dims = %d, want 4", got)
	}
	if got := rel.NumTargets(); got != 2 {
		t.Fatalf("targets = %d, want 2", got)
	}
	mi := rel.Schema().DimIndex("month")
	if card := rel.Dim(mi).Cardinality(); card != 18 {
		t.Fatalf("month cardinality = %d, want 18", card)
	}

	view := rel.FullView()
	rent := rel.Schema().TargetIndex("rent")
	pop := rel.Schema().TargetIndex("population")

	first, _ := rel.PredicateByName("month", "January 2023")
	last, _ := rel.PredicateByName("month", "June 2024")
	firstMean := view.Select([]relation.Predicate{first}).Stats(rent).Mean()
	lastMean := view.Select([]relation.Predicate{last}).Stats(rent).Mean()
	if lastMean <= firstMean {
		t.Errorf("rent trend not rising: %.0f -> %.0f", firstMean, lastMean)
	}

	ny, _ := rel.PredicateByName("city", "New York")
	bo, _ := rel.PredicateByName("city", "Boise")
	nyRent := view.Select([]relation.Predicate{ny}).Stats(rent).Mean()
	boRent := view.Select([]relation.Predicate{bo}).Stats(rent).Mean()
	if nyRent <= boRent {
		t.Errorf("New York rent %.0f not above Boise %.0f", nyRent, boRent)
	}
	nyPop := view.Select([]relation.Predicate{ny}).Stats(pop).Mean()
	if nyPop < 8_000_000 || nyPop > 8_800_000 {
		t.Errorf("New York population %.0f out of range", nyPop)
	}

	tx, err := rel.PredicateByName("state", "Texas")
	if err != nil {
		t.Fatal(err)
	}
	txRows := view.Select([]relation.Predicate{tx}).NumRows()
	if txRows < 1000 {
		t.Errorf("Texas subset has only %d rows", txRows)
	}

	if ByName("housing", 5) == nil {
		t.Error("ByName does not know housing")
	}
	if DefaultRows["housing"] == 0 {
		t.Error("DefaultRows missing housing")
	}
}
