package relation

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// flightsSchema mirrors the running example of the paper: region and
// season dimensions, delay target.
func flightsSchema() Schema {
	return Schema{Dimensions: []string{"region", "season"}, Targets: []string{"delay"}}
}

// buildFlights builds the 4x4 running-example relation of Figure 1 with
// one row per (region, season) combination: 20-minute delays in the South
// and West during Spring/Summer, 10-minute delays elsewhere... The exact
// values follow Example 4: total error 4*20+4*10 = 120 against a zero
// prior, meaning four cells at 20 and four at 10 and eight at 0.
func buildFlights(t testing.TB) *Relation {
	t.Helper()
	b := NewBuilder("flights", flightsSchema())
	regions := []string{"East", "South", "West", "North"}
	seasons := []string{"Spring", "Summer", "Fall", "Winter"}
	delay := map[[2]string]float64{
		{"South", "Spring"}: 20, {"South", "Summer"}: 20,
		{"West", "Spring"}: 20, {"West", "Summer"}: 20,
		{"East", "Winter"}: 10, {"South", "Winter"}: 10,
		{"West", "Winter"}: 10, {"North", "Winter"}: 10,
	}
	for _, r := range regions {
		for _, s := range seasons {
			b.MustAddRow([]string{r, s}, []float64{delay[[2]string{r, s}]})
		}
	}
	return b.Freeze()
}

func TestBuilderBasics(t *testing.T) {
	r := buildFlights(t)
	if r.NumRows() != 16 {
		t.Fatalf("NumRows = %d, want 16", r.NumRows())
	}
	if r.NumDims() != 2 || r.NumTargets() != 1 {
		t.Fatalf("dims/targets = %d/%d, want 2/1", r.NumDims(), r.NumTargets())
	}
	if got := r.Dim(0).Cardinality(); got != 4 {
		t.Errorf("region cardinality = %d, want 4", got)
	}
	if r.Name() != "flights" {
		t.Errorf("Name = %q", r.Name())
	}
}

func TestBuilderRejectsBadRows(t *testing.T) {
	b := NewBuilder("x", flightsSchema())
	if err := b.AddRow([]string{"East"}, []float64{1}); err == nil {
		t.Error("AddRow with missing dimension should fail")
	}
	if err := b.AddRow([]string{"East", "Winter"}, nil); err == nil {
		t.Error("AddRow with missing target should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAddRow should panic on bad row")
		}
	}()
	b.MustAddRow([]string{"East"}, []float64{1})
}

func TestDictionaryRoundTrip(t *testing.T) {
	r := buildFlights(t)
	col := r.DimByName("season")
	if col == nil {
		t.Fatal("season column not found")
	}
	for _, v := range col.Values() {
		code, ok := col.Code(v)
		if !ok {
			t.Fatalf("Code(%q) not found", v)
		}
		if got := col.Value(code); got != v {
			t.Errorf("Value(Code(%q)) = %q", v, got)
		}
	}
	if _, ok := col.Code("Monsoon"); ok {
		t.Error("Code for absent value should report false")
	}
	if got := col.Value(-1); got != "" {
		t.Errorf("Value(-1) = %q, want empty", got)
	}
}

func TestSchemaLookups(t *testing.T) {
	s := flightsSchema()
	if s.DimIndex("season") != 1 || s.DimIndex("nope") != -1 {
		t.Error("DimIndex wrong")
	}
	if s.TargetIndex("delay") != 0 || s.TargetIndex("nope") != -1 {
		t.Error("TargetIndex wrong")
	}
	c := s.Clone()
	c.Dimensions[0] = "mutated"
	if s.Dimensions[0] == "mutated" {
		t.Error("Clone must deep-copy")
	}
}

func TestSelect(t *testing.T) {
	r := buildFlights(t)
	winter, err := r.PredicateByName("season", "Winter")
	if err != nil {
		t.Fatal(err)
	}
	v := r.FullView().Select([]Predicate{winter})
	if v.NumRows() != 4 {
		t.Fatalf("winter rows = %d, want 4", v.NumRows())
	}
	st := v.Stats(0)
	if st.Mean() != 10 {
		t.Errorf("winter mean delay = %v, want 10", st.Mean())
	}
	south, _ := r.PredicateByName("region", "South")
	v2 := v.Select([]Predicate{south})
	if v2.NumRows() != 1 {
		t.Fatalf("winter+south rows = %d, want 1", v2.NumRows())
	}
	// Empty predicate list returns the same view.
	if got := v.Select(nil); got != v {
		t.Error("Select(nil) should return receiver")
	}
}

func TestPredicateByNameUnknowns(t *testing.T) {
	r := buildFlights(t)
	if _, err := r.PredicateByName("bogus", "x"); err == nil {
		t.Error("unknown column should error")
	}
	p, err := r.PredicateByName("season", "Monsoon")
	if err != nil {
		t.Fatalf("unknown value should not error: %v", err)
	}
	if got := r.FullView().Select([]Predicate{p}).NumRows(); got != 0 {
		t.Errorf("predicate on absent value selected %d rows, want 0", got)
	}
}

func TestStats(t *testing.T) {
	r := buildFlights(t)
	st := r.FullView().Stats(0)
	if st.Count != 16 {
		t.Fatalf("count = %d", st.Count)
	}
	if st.Sum != 120 {
		t.Errorf("sum = %v, want 120 (Example 4 total error)", st.Sum)
	}
	if st.Min != 0 || st.Max != 20 {
		t.Errorf("min/max = %v/%v, want 0/20", st.Min, st.Max)
	}
	if got := st.Mean(); got != 7.5 {
		t.Errorf("mean = %v, want 7.5", got)
	}
	empty := r.FullView().Select([]Predicate{{Dim: 0, Code: 99}})
	if es := empty.Stats(0); es.Count != 0 || es.Mean() != 0 {
		t.Errorf("empty stats = %+v", es)
	}
}

func TestGroupBy(t *testing.T) {
	r := buildFlights(t)
	groups := r.FullView().GroupBy([]int{1}, 0) // by season
	if len(groups) != 4 {
		t.Fatalf("groups = %d, want 4", len(groups))
	}
	bySeason := map[string]float64{}
	col := r.Dim(1)
	for _, g := range groups {
		if g.Count != 4 {
			t.Errorf("group count = %d, want 4", g.Count)
		}
		bySeason[col.Value(g.Key.Codes[0])] = g.Mean()
	}
	if bySeason["Winter"] != 10 {
		t.Errorf("winter mean = %v, want 10", bySeason["Winter"])
	}
	if bySeason["Fall"] != 0 {
		t.Errorf("fall mean = %v, want 0", bySeason["Fall"])
	}
	// Two-column grouping yields all 16 combinations.
	g2 := r.FullView().GroupBy([]int{0, 1}, 0)
	if len(g2) != 16 {
		t.Errorf("two-dim groups = %d, want 16", len(g2))
	}
	// Zero-dimension grouping yields a single global group.
	g0 := r.FullView().GroupBy(nil, 0)
	if len(g0) != 1 || g0[0].Sum != 120 {
		t.Errorf("global group = %+v", g0)
	}
}

func TestGroupByDeterministicOrder(t *testing.T) {
	r := buildFlights(t)
	first := r.FullView().GroupBy([]int{0, 1}, 0)
	for i := 0; i < 10; i++ {
		again := r.FullView().GroupBy([]int{0, 1}, 0)
		if !reflect.DeepEqual(first, again) {
			t.Fatal("GroupBy order is not deterministic")
		}
	}
}

func TestDistinctCombinations(t *testing.T) {
	r := buildFlights(t)
	combos := r.FullView().DistinctCombinations([]int{0})
	if len(combos) != 4 {
		t.Fatalf("distinct regions = %d, want 4", len(combos))
	}
	combos2 := r.FullView().DistinctCombinations([]int{0, 1})
	if len(combos2) != 16 {
		t.Fatalf("distinct pairs = %d, want 16", len(combos2))
	}
}

func TestViewRows(t *testing.T) {
	r := buildFlights(t)
	v := r.FullView()
	if v.NumRows() != 16 || v.Row(0) != 0 || v.Row(15) != 15 {
		t.Errorf("full view rows wrong: %d rows, first %d, last %d", v.NumRows(), v.Row(0), v.Row(15))
	}
	winter, _ := r.PredicateByName("season", "Winter")
	sub := r.FullView().Select([]Predicate{winter})
	for i := 0; i < sub.NumRows(); i++ {
		if r.Dim(1).CodeAt(int(sub.Row(i))) != winter.Code {
			t.Errorf("Row(%d) = %d is not a Winter row", i, sub.Row(i))
		}
	}
}

func TestSizeBytes(t *testing.T) {
	r := buildFlights(t)
	if r.SizeBytes() <= 0 {
		t.Error("SizeBytes should be positive")
	}
	// 2 dim cols * 16 rows * 4 bytes + 1 target * 16 * 8 = 256 plus dictionary strings.
	if r.SizeBytes() < 256 {
		t.Errorf("SizeBytes = %d, want >= 256", r.SizeBytes())
	}
}

func TestFromCSVErrors(t *testing.T) {
	schema := flightsSchema()
	if _, _, err := FromCSV("x", strings.NewReader(""), schema); err == nil {
		t.Error("empty input should fail")
	}
	if _, _, err := FromCSV("x", strings.NewReader("a,b\n1,2\n"), schema); err == nil {
		t.Error("missing columns should fail")
	}
	// Unparsable target rows are skipped, not fatal.
	csvData := "region,season,delay\nEast,Winter,10\nWest,Winter,n/a\n"
	r, skipped, err := FromCSV("x", strings.NewReader(csvData), schema)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 1 || skipped != 1 {
		t.Errorf("rows/skipped = %d/%d, want 1/1", r.NumRows(), skipped)
	}
}

// TestPropertySelectPartition checks that for any dimension, the sizes of
// the per-value selections partition the relation.
func TestPropertySelectPartition(t *testing.T) {
	r := buildFlights(t)
	f := func(dimPick uint8) bool {
		d := int(dimPick) % r.NumDims()
		total := 0
		for code := int32(0); code < int32(r.Dim(d).Cardinality()); code++ {
			total += r.FullView().Select([]Predicate{{Dim: d, Code: code}}).NumRows()
		}
		return total == r.NumRows()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropertyGroupBySumsMatch checks on random relations that group sums
// add up to the global sum and group counts to the row count.
func TestPropertyGroupBySumsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		b := NewBuilder("rand", Schema{
			Dimensions: []string{"a", "b", "c"},
			Targets:    []string{"v"},
		})
		n := 1 + rng.Intn(200)
		vals := []string{"x", "y", "z", "w"}
		for i := 0; i < n; i++ {
			b.MustAddRow(
				[]string{vals[rng.Intn(4)], vals[rng.Intn(3)], vals[rng.Intn(2)]},
				[]float64{rng.NormFloat64() * 10},
			)
		}
		r := b.Freeze()
		want := r.FullView().Stats(0)
		for _, dims := range [][]int{{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2}} {
			var sum float64
			count := 0
			for _, g := range r.FullView().GroupBy(dims, 0) {
				sum += g.Sum
				count += g.Count
			}
			if count != want.Count {
				t.Fatalf("trial %d dims %v: count %d want %d", trial, dims, count, want.Count)
			}
			if diff := sum - want.Sum; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("trial %d dims %v: sum %v want %v", trial, dims, sum, want.Sum)
			}
		}
	}
}

func TestEdgeCaseSingleRow(t *testing.T) {
	b := NewBuilder("one", Schema{Dimensions: []string{"d"}, Targets: []string{"v"}})
	b.MustAddRow([]string{"only"}, []float64{42})
	r := b.Freeze()
	if r.NumRows() != 1 {
		t.Fatal("one row expected")
	}
	st := r.FullView().Stats(0)
	if st.Mean() != 42 || st.Min != 42 || st.Max != 42 {
		t.Errorf("stats = %+v", st)
	}
	groups := r.FullView().GroupBy([]int{0}, 0)
	if len(groups) != 1 || groups[0].Mean() != 42 {
		t.Errorf("groups = %+v", groups)
	}
}

func TestEdgeCaseEmptyRelation(t *testing.T) {
	b := NewBuilder("empty", Schema{Dimensions: []string{"d"}, Targets: []string{"v"}})
	r := b.Freeze()
	if r.NumRows() != 0 {
		t.Fatal("empty expected")
	}
	if got := r.FullView().Stats(0); got.Count != 0 {
		t.Errorf("stats = %+v", got)
	}
	if groups := r.FullView().GroupBy([]int{0}, 0); len(groups) != 0 {
		t.Errorf("groups on empty relation = %v", groups)
	}
	if combos := r.FullView().DistinctCombinations([]int{0}); len(combos) != 0 {
		t.Errorf("combos = %v", combos)
	}
}

func TestEdgeCaseNonFiniteTargets(t *testing.T) {
	// NaN and Inf targets flow through without panics; aggregation
	// propagates them per IEEE semantics (documented behaviour).
	b := NewBuilder("naninf", Schema{Dimensions: []string{"d"}, Targets: []string{"v"}})
	b.MustAddRow([]string{"a"}, []float64{math.NaN()})
	b.MustAddRow([]string{"b"}, []float64{math.Inf(1)})
	b.MustAddRow([]string{"c"}, []float64{1})
	r := b.Freeze()
	st := r.FullView().Stats(0)
	if !math.IsNaN(st.Sum) {
		t.Errorf("sum with NaN = %v, want NaN", st.Sum)
	}
	p, _ := r.PredicateByName("d", "b")
	if got := r.FullView().Select([]Predicate{p}).Stats(0).Mean(); !math.IsInf(got, 1) {
		t.Errorf("inf subset mean = %v", got)
	}
}

func TestEdgeCaseHighCardinalityDictionary(t *testing.T) {
	b := NewBuilder("wide", Schema{Dimensions: []string{"id"}, Targets: []string{"v"}})
	for i := 0; i < 5000; i++ {
		b.MustAddRow([]string{strconv.Itoa(i)}, []float64{float64(i)})
	}
	r := b.Freeze()
	if r.Dim(0).Cardinality() != 5000 {
		t.Fatalf("cardinality = %d", r.Dim(0).Cardinality())
	}
	p, err := r.PredicateByName("id", "4999")
	if err != nil {
		t.Fatal(err)
	}
	v := r.FullView().Select([]Predicate{p})
	if v.NumRows() != 1 || v.Stats(0).Mean() != 4999 {
		t.Errorf("high-cardinality lookup failed: %+v", v.Stats(0))
	}
}
