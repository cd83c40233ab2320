package voice

import (
	"reflect"
	"strings"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/engine"
)

func housingExtractor(t testing.TB) *Extractor {
	t.Helper()
	rel := dataset.Housing(4000, 1)
	return NewExtractor(rel, DefaultSamples("housing"), 2)
}

// wordsOf splits normalized text into the words the slot stages take.
func (e *Extractor) wordsOf(norm string) words { return e.split(norm, new(wordBuf)) }

// joined renders what a slot stage left of the words.
func (w words) joined() string { return strings.Join(w.text, " ") }

func TestParseSpokenNumber(t *testing.T) {
	cases := []struct {
		text string
		want float64
		n    int
	}{
		{"500", 500, 1},
		{"500k", 500_000, 1},
		{"2m", 2e6, 1},
		{"five", 5, 1},
		{"500 thousand", 500_000, 2},
		{"2 million", 2e6, 2},
		{"five hundred thousand", 500_000, 3},
		{"a million", 1e6, 2},
		{"10 percent", 0.1, 2},
		{"twenty", 20, 1},
		{"winter", 0, 0},
		{"", 0, 0},
	}
	for _, c := range cases {
		toks := strings.Fields(c.text)
		got, n := parseSpokenNumber(toks, 0)
		if got != c.want || n != c.n {
			t.Errorf("parseSpokenNumber(%q) = %g/%d, want %g/%d", c.text, got, n, c.want, c.n)
		}
	}
}

func TestParsePeriodKey(t *testing.T) {
	if k, ok := parsePeriodKey("february"); !ok || k != 2 {
		t.Errorf("february = %d/%v", k, ok)
	}
	if k, ok := parsePeriodKey("january 2024"); !ok || k != 2024*12+1 {
		t.Errorf("january 2024 = %d/%v", k, ok)
	}
	if k, ok := parsePeriodKey("2023 04"); !ok || k != 2023*12+4 {
		t.Errorf("2023 04 = %d/%v", k, ok)
	}
	for _, bad := range []string{"winter", "13 2023", "2023 13", "one two three", ""} {
		if _, ok := parsePeriodKey(bad); ok {
			t.Errorf("parsePeriodKey(%q) should fail", bad)
		}
	}
}

func TestDetectTimeDimHousing(t *testing.T) {
	ex := housingExtractor(t)
	name, ok := ex.TimeDim()
	if !ok || name != "month" {
		t.Fatalf("time dim = %q/%v, want month", name, ok)
	}
	periods := ex.TimePeriods()
	if len(periods) != 18 {
		t.Fatalf("periods = %d, want 18", len(periods))
	}
	if periods[0] != "January 2023" || periods[17] != "June 2024" {
		t.Errorf("period order wrong: first %q last %q", periods[0], periods[17])
	}
}

func TestDetectTimeDimFlights(t *testing.T) {
	_, ex := flightsExtractor(t)
	name, ok := ex.TimeDim()
	if !ok || name != "month" {
		t.Fatalf("time dim = %q/%v, want month", name, ok)
	}
	periods := ex.TimePeriods()
	if len(periods) != 12 || periods[0] != "January" || periods[11] != "December" {
		t.Errorf("periods = %v", periods)
	}
}

func TestNoTimeDim(t *testing.T) {
	rel := dataset.ACS(400, 1)
	ex := NewExtractor(rel, DefaultSamples("acs"), 2)
	if name, ok := ex.TimeDim(); ok {
		t.Errorf("ACS should have no time dim, got %q", name)
	}
	if w, rest := ex.extractWindow(ex.wordsOf("visual since january")); w != nil || rest.joined() != "visual since january" {
		t.Errorf("window without time dim = %+v, %q", w, rest.joined())
	}
}

func TestExtractConstraint(t *testing.T) {
	ex := housingExtractor(t)
	cons, rest := ex.extractConstraint(ex.wordsOf("rent in cities with population over 500 thousand"))
	if cons == nil {
		t.Fatal("constraint not extracted")
	}
	if cons.Target != "population" || cons.Op != engine.Over || cons.Value != 500_000 {
		t.Errorf("constraint = %+v", cons)
	}
	if rest.joined() != "rent in cities" {
		t.Errorf("rest = %q", rest.joined())
	}

	cons, _ = ex.extractConstraint(ex.wordsOf("cities whose rent is nothing with the population of at least 2 million people"))
	if cons == nil || cons.Op != engine.AtLeast || cons.Value != 2e6 {
		t.Errorf("at-least constraint = %+v", cons)
	}

	cons, _ = ex.extractConstraint(ex.wordsOf("cities with rent under 1500 dollars"))
	if cons == nil || cons.Target != "rent" || cons.Op != engine.Under || cons.Value != 1500 {
		t.Errorf("under constraint = %+v", cons)
	}

	for _, noCons := range []string{
		"rent in austin",
		"with population",
		"with population over",
		"with over 500",
		"population over 500 thousand", // no intro word
	} {
		if cons, _ := ex.extractConstraint(ex.wordsOf(noCons)); cons != nil {
			t.Errorf("extractConstraint(%q) = %+v, want nil", noCons, cons)
		}
	}
}

func TestExtractWindow(t *testing.T) {
	ex := housingExtractor(t)
	cases := []struct {
		text     string
		from, to int
		rest     string
	}{
		{"rent since january 2024", 12, 17, "rent"},
		{"rent between february 2023 and april 2023", 1, 3, "rent"},
		{"rent from june 2024 to january 2024", 12, 17, "rent"}, // reversed bounds swap
		{"rent over the last three months", 15, 17, "rent over"},
		{"rent in the last year", 6, 17, "rent in"},
		{"rent for the past 2 quarters", 12, 17, "rent for"},
		{"rent over the last 99 months", 0, 17, "rent over"}, // clamped
	}
	for _, c := range cases {
		w, words := ex.extractWindow(ex.wordsOf(c.text))
		rest := words.joined()
		if w == nil {
			t.Errorf("extractWindow(%q) = nil", c.text)
			continue
		}
		if w.From != c.from || w.To != c.to {
			t.Errorf("extractWindow(%q) = %+v, want %d..%d", c.text, w, c.from, c.to)
		}
		if rest != c.rest {
			t.Errorf("extractWindow(%q) rest = %q, want %q", c.text, rest, c.rest)
		}
	}
	for _, noWin := range []string{"rent in austin", "rent since tuesday", "rent between austin and dallas"} {
		if w, _ := ex.extractWindow(ex.wordsOf(noWin)); w != nil {
			t.Errorf("extractWindow(%q) = %+v, want nil", noWin, w)
		}
	}
}

func TestExtractCount(t *testing.T) {
	ex := housingExtractor(t)
	cases := []struct {
		text   string
		k      int
		dim    string
		bottom bool
	}{
		{"the top 3 cities by rent", 3, "city", false},
		{"top three cities", 3, "city", false},
		{"bottom 2 states", 2, "state", true},
		{"the three cities", 3, "city", false},
		{"five states", 5, "state", false},
		{"top ten", 10, "", false},
		{"no count here", 0, "", false},
		{"500 thousand", 0, "", false}, // number without dim is not a count
	}
	for _, c := range cases {
		k, dim, _, bottom := ex.extractCount(ex.wordsOf(c.text))
		if k != c.k || dim != c.dim || bottom != c.bottom {
			t.Errorf("extractCount(%q) = %d/%q/%v, want %d/%q/%v",
				c.text, k, dim, bottom, c.k, c.dim, c.bottom)
		}
	}
}

func TestExtractDimensionPlural(t *testing.T) {
	ex := housingExtractor(t)
	for text, want := range map[string]string{
		"the cities with the highest rent": "city",
		"which city is cheapest":           "city",
		"rank the states by rent":          "state",
		"rent by bedrooms":                 "bedrooms",
	} {
		if dim, ok := ex.ExtractDimension(text); !ok || dim != want {
			t.Errorf("ExtractDimension(%q) = %q/%v, want %q", text, dim, ok, want)
		}
	}
}

func TestClassifyConstrained(t *testing.T) {
	ex := housingExtractor(t)
	c := Classify("rent for two bedroom apartments in cities with population over 500 thousand", ex)
	if c.Type != UQuery || c.Kind != Retrieval {
		t.Fatalf("classification = %+v", c)
	}
	if c.Constraint == nil || c.Constraint.Target != "population" || c.Constraint.Value != 500_000 {
		t.Fatalf("constraint = %+v", c.Constraint)
	}
	if c.Query.Target != "rent" {
		t.Errorf("target = %q", c.Query.Target)
	}
	if len(c.Query.Predicates) != 1 || c.Query.Predicates[0].Value != "Two bedroom" {
		t.Errorf("predicates = %v", c.Query.Predicates)
	}
	if c.Dim != "city" {
		t.Errorf("dim = %q, want city", c.Dim)
	}
	// No main target: the constraint target doubles as the aggregate.
	c2 := Classify("which cities have a population of at least 2 million", ex)
	if c2.Type != UQuery || c2.Query.Target != "population" || c2.Constraint == nil {
		t.Errorf("constraint-only query = %+v", c2)
	}
}

func TestClassifyTopK(t *testing.T) {
	ex := housingExtractor(t)
	c := Classify("the three cities with the highest rent", ex)
	if c.Type != UQuery || c.Kind != TopK {
		t.Fatalf("classification = %+v", c)
	}
	if c.K != 3 || c.Dim != "city" {
		t.Errorf("K=%d dim=%q", c.K, c.Dim)
	}
	if !c.HasDirection || c.Direction != engine.Max {
		t.Errorf("direction = %v/%v", c.Direction, c.HasDirection)
	}
	low := Classify("bottom two states by rent", ex)
	if low.Kind != TopK || low.Direction != engine.Min || low.Dim != "state" {
		t.Errorf("bottom classification = %+v", low)
	}
	// K of 1 stays an extremum.
	one := Classify("the top 1 city by rent", ex)
	if one.Kind != Extremum {
		t.Errorf("top-1 kind = %v, want extremum", one.Kind)
	}
}

func TestClassifyTrend(t *testing.T) {
	ex := housingExtractor(t)
	c := Classify("how did rent change since january 2024", ex)
	if c.Type != UQuery || c.Kind != Trend {
		t.Fatalf("classification = %+v", c)
	}
	if c.Window == nil || c.Window.From != 12 || c.Window.To != 17 {
		t.Errorf("window = %+v", c.Window)
	}
	// A window alone implies a trend question.
	w := Classify("rent in austin over the last six months", ex)
	if w.Kind != Trend || w.Window == nil {
		t.Errorf("window-only classification = %+v", w)
	}
	if len(w.Query.Predicates) != 1 || w.Query.Predicates[0].Value != "Austin" {
		t.Errorf("predicates = %v", w.Query.Predicates)
	}
	// A trend marker without a window leaves Window nil (full range).
	m := Classify("what is the trend of rent in dallas", ex)
	if m.Kind != Trend || m.Window != nil {
		t.Errorf("marker-only classification = %+v", m)
	}
}

func TestClassifyFollowUp(t *testing.T) {
	ex := housingExtractor(t)
	// Value-only follow-up.
	c := Classify("what about Texas", ex)
	if c.Type != FollowUp {
		t.Fatalf("classification = %+v", c)
	}
	if len(c.Values) != 1 || c.Values[0].Column != "state" || c.Values[0].Value != "Texas" {
		t.Errorf("values = %v", c.Values)
	}
	// Target-only follow-up.
	tg := Classify("what about population", ex)
	if tg.Type != FollowUp || tg.Query.Target != "population" {
		t.Errorf("target follow-up = %+v", tg)
	}
	// Kind-switching follow-ups.
	low := Classify("and the lowest", ex)
	if low.Type != FollowUp || low.Kind != Extremum || low.Direction != engine.Min || !low.HasDirection {
		t.Errorf("lowest follow-up = %+v", low)
	}
	top := Classify("how about the top five", ex)
	if top.Type != FollowUp || top.Kind != TopK || top.K != 5 {
		t.Errorf("top-five follow-up = %+v", top)
	}
	// A complete query behind the prefix is NOT a follow-up.
	full := Classify("what about rent in Houston", ex)
	if full.Type != SQuery || len(full.Query.Predicates) != 1 {
		t.Errorf("full query after prefix = %+v", full)
	}
	// Bare prefix carries nothing but stays a follow-up.
	bare := Classify("what about", ex)
	if bare.Type != FollowUp {
		t.Errorf("bare prefix = %+v", bare)
	}
}

func TestClassifyValuesPopulated(t *testing.T) {
	_, ex := flightsExtractor(t)
	c := Classify("compare cancellations between Winter and Summer", ex)
	if c.Kind != Comparison {
		t.Fatalf("kind = %v", c.Kind)
	}
	if len(c.Values) != 2 {
		t.Fatalf("values = %v", c.Values)
	}
	want := map[string]bool{"Winter": true, "Summer": true}
	for _, v := range c.Values {
		if !want[v.Value] {
			t.Errorf("unexpected value %v", v)
		}
	}
}

func TestClassifyOldShapesUnchanged(t *testing.T) {
	// The seed shapes must classify exactly as before the grammar grew.
	_, ex := flightsExtractor(t)
	cases := []struct {
		text string
		typ  RequestType
		kind QueryKind
	}{
		{"cancellations in Winter", SQuery, Retrieval},
		{"what is the average delay", SQuery, Retrieval},
		{"which airline has the highest cancellations", UQuery, Extremum},
		{"compare delays between Winter and Summer", UQuery, Comparison},
		{"what about delays in Winter", SQuery, Retrieval},
		{"play some music", Other, Retrieval},
		{"help", Help, Retrieval},
		{"say that again", Repeat, Retrieval},
	}
	for _, c := range cases {
		got := Classify(c.text, ex)
		if got.Type != c.typ || (got.Type == SQuery || got.Type == UQuery) && got.Kind != c.kind {
			t.Errorf("Classify(%q) = %v/%v, want %v/%v", c.text, got.Type, got.Kind, c.typ, c.kind)
		}
	}
}

func TestFollowUpBody(t *testing.T) {
	ex := housingExtractor(t)
	cases := []struct {
		in   string
		body string
		ok   bool
	}{
		{"what about texas", "texas", true},
		{"how about the top five", "the top five", true},
		{"and the lowest", "the lowest", true},
		{"what about", "", true},
		{"rent in texas", "rent in texas", false},
		{"sandwich about", "sandwich about", false},
	}
	for _, c := range cases {
		w, ok := ex.followUpBody(ex.wordsOf(c.in))
		body := w.joined()
		if body != c.body || ok != c.ok {
			t.Errorf("followUpBody(%q) = %q/%v, want %q/%v", c.in, body, ok, c.body, c.ok)
		}
	}
}

func TestSlotValuesOnePerDim(t *testing.T) {
	_, ex := flightsExtractor(t)
	c := Classify("delays for AA DL in February", ex)
	// Predicates collapse to one per dimension; Values keep both airlines.
	if len(c.Query.Predicates) != 2 {
		t.Errorf("predicates = %v", c.Query.Predicates)
	}
	if len(c.Values) != 3 {
		t.Errorf("values = %v", c.Values)
	}
	if !reflect.DeepEqual(c.Query, c.Query.Canonical()) {
		t.Error("query not canonical")
	}
}
