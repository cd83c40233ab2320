package voice

import (
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/relation"
)

func flightsExtractor(t testing.TB) (*relation.Relation, *Extractor) {
	t.Helper()
	rel := dataset.Flights(1000, 1)
	ex := NewExtractor(rel, []Sample{
		{Phrase: "cancellations", Target: "cancelled"},
		{Phrase: "cancellation probability", Target: "cancelled"},
		{Phrase: "delays", Target: "delay"},
	}, 2)
	return rel, ex
}

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"Cancellations in Winter?":  "cancellations in winter",
		"  What's the   DELAY!! ":   "what s the delay",
		"flight UA-123 to NYC":      "flight ua 123 to nyc",
		"":                          "",
		"!!!":                       "",
		"United  States of America": "united states of america",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

// containsPhrase reports whether phrase occurs in text, both
// normalized, through a one-phrase table.
func containsPhrase(text, phrase string) bool {
	v := vocabulary{}
	var table phraseTable
	if phrase != "" {
		table.add(v, appendWords(nil, phrase))
	}
	var ids []int32
	for _, w := range appendWords(nil, text) {
		ids = append(ids, v.lookup(w))
	}
	return table.best(ids) >= 0
}

func TestContainsPhrase(t *testing.T) {
	cases := []struct {
		text, phrase string
		want         bool
	}{
		{"cancellations in winter", "winter", true},
		{"cancellations in winter", "win", false}, // word boundary
		{"early winter storms", "winter", true},
		{"winter", "winter", true},
		{"winterize everything", "winter", false},
		{"x", "", false},
		{"the united states wins", "united states", true},
	}
	for _, c := range cases {
		if got := containsPhrase(c.text, c.phrase); got != c.want {
			t.Errorf("containsPhrase(%q, %q) = %v, want %v", c.text, c.phrase, got, c.want)
		}
	}
}

func TestExtractBasic(t *testing.T) {
	_, ex := flightsExtractor(t)
	q, ok := ex.Extract("cancellations in Winter?")
	if !ok {
		t.Fatal("target not recognized")
	}
	if q.Target != "cancelled" {
		t.Errorf("target = %q", q.Target)
	}
	if len(q.Predicates) != 1 || q.Predicates[0].Column != "season" || q.Predicates[0].Value != "Winter" {
		t.Errorf("predicates = %v", q.Predicates)
	}
}

func TestExtractTwoPredicates(t *testing.T) {
	_, ex := flightsExtractor(t)
	q, ok := ex.Extract("what is the delay for AA in February")
	if !ok {
		t.Fatal("target not recognized")
	}
	if len(q.Predicates) != 2 {
		t.Fatalf("predicates = %v", q.Predicates)
	}
	cols := map[string]string{}
	for _, p := range q.Predicates {
		cols[p.Column] = p.Value
	}
	if cols["airline"] != "AA" || cols["month"] != "February" {
		t.Errorf("predicates = %v", q.Predicates)
	}
}

func TestExtractNoTarget(t *testing.T) {
	_, ex := flightsExtractor(t)
	if _, ok := ex.Extract("tell me a joke"); ok {
		t.Error("joke request should have no target")
	}
}

func TestExtractPrefersLongestTarget(t *testing.T) {
	rel := dataset.StackOverflow(500, 1)
	ex := NewExtractor(rel, []Sample{
		{Phrase: "satisfaction", Target: "career_satisfaction"},
		{Phrase: "job satisfaction", Target: "job_satisfaction"},
	}, 2)
	q, ok := ex.Extract("what is the job satisfaction in Germany")
	if !ok || q.Target != "job_satisfaction" {
		t.Errorf("longest-phrase target = %+v ok=%v", q, ok)
	}
}

func TestExtractIgnoresUnknownTargetSample(t *testing.T) {
	rel := dataset.Flights(200, 1)
	ex := NewExtractor(rel, []Sample{{Phrase: "unicorns", Target: "not_a_column"}}, 2)
	if _, ok := ex.Extract("unicorns in Winter"); ok {
		t.Error("sample with unknown target must be ignored")
	}
}

func TestClassifyHelp(t *testing.T) {
	_, ex := flightsExtractor(t)
	for _, text := range []string{"help", "What can you do?", "how does this work"} {
		if c := Classify(text, ex); c.Type != Help {
			t.Errorf("Classify(%q) = %v, want Help", text, c.Type)
		}
	}
}

func TestClassifyRepeat(t *testing.T) {
	_, ex := flightsExtractor(t)
	for _, text := range []string{"repeat that", "say that again please"} {
		if c := Classify(text, ex); c.Type != Repeat {
			t.Errorf("Classify(%q) = %v, want Repeat", text, c.Type)
		}
	}
}

func TestClassifySupportedQuery(t *testing.T) {
	_, ex := flightsExtractor(t)
	c := Classify("cancellations in Winter", ex)
	if c.Type != SQuery || c.Kind != Retrieval || c.Predicates != 1 {
		t.Errorf("classification = %+v", c)
	}
	c0 := Classify("what is the average delay", ex)
	if c0.Type != SQuery || c0.Predicates != 0 {
		t.Errorf("zero-predicate query = %+v", c0)
	}
}

func TestClassifyUnsupportedComparison(t *testing.T) {
	_, ex := flightsExtractor(t)
	c := Classify("make a comparison of delays between Winter and Summer", ex)
	if c.Type != UQuery || c.Kind != Comparison {
		t.Errorf("comparison = %+v", c)
	}
}

func TestClassifyUnsupportedExtremum(t *testing.T) {
	_, ex := flightsExtractor(t)
	c := Classify("which airline has the highest cancellations", ex)
	if c.Type != UQuery || c.Kind != Extremum {
		t.Errorf("extremum = %+v", c)
	}
}

func TestClassifyTooManyPredicates(t *testing.T) {
	rel := dataset.Flights(1000, 1)
	ex := NewExtractor(rel, []Sample{{Phrase: "delays", Target: "delay"}}, 1)
	c := Classify("delays for AA in February on Mon", ex)
	if c.Type != UQuery {
		t.Errorf("over-length query = %+v, want U-Query", c)
	}
}

func TestClassifyOther(t *testing.T) {
	_, ex := flightsExtractor(t)
	for _, text := range []string{"play some music", "thank you", "good morning"} {
		if c := Classify(text, ex); c.Type != Other {
			t.Errorf("Classify(%q) = %v, want Other", text, c.Type)
		}
	}
}

func TestSimulateLogRoundTrip(t *testing.T) {
	rel, ex := flightsExtractor(t)
	dep := &Deployment{
		Name: "Flights", Rel: rel, Extractor: ex,
		TargetPhrases: map[string][]string{
			"cancelled": {"cancellations"},
			"delay":     {"delays"},
		},
	}
	counts := Table3Counts()["Flights"]
	log := dep.SimulateLog(counts, 7)
	total := 0
	for _, c := range counts {
		total += c
	}
	if len(log) != total {
		t.Fatalf("log length = %d, want %d", len(log), total)
	}
	// Classifying the log recovers the intended distribution with high
	// accuracy (small slack for genuinely ambiguous utterances).
	got := map[RequestType]int{}
	misses := 0
	for _, entry := range log {
		c := Classify(entry.Text, ex)
		got[c.Type]++
		if c.Type != entry.Intent {
			misses++
		}
	}
	if misses > total/10 {
		t.Errorf("classifier missed %d/%d intents", misses, total)
		for _, entry := range log {
			if c := Classify(entry.Text, ex); c.Type != entry.Intent {
				t.Logf("  %q: want %v got %v", entry.Text, entry.Intent, c.Type)
			}
		}
	}
}

func TestSimulateLogDeterministic(t *testing.T) {
	rel, ex := flightsExtractor(t)
	dep := &Deployment{Name: "Flights", Rel: rel, Extractor: ex,
		TargetPhrases: map[string][]string{"delay": {"delays"}}}
	counts := map[RequestType]int{SQuery: 10, Help: 2}
	a := dep.SimulateLog(counts, 3)
	b := dep.SimulateLog(counts, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("log generation not deterministic")
		}
	}
}

func TestTable3Counts(t *testing.T) {
	counts := Table3Counts()
	if len(counts) != 3 {
		t.Fatalf("deployments = %d", len(counts))
	}
	for name, m := range counts {
		total := 0
		for _, c := range m {
			total += c
		}
		if total != 50 {
			t.Errorf("%s total = %d, want 50 (last 50 requests)", name, total)
		}
	}
}

func TestRequestTypeStrings(t *testing.T) {
	want := []string{"Help", "Repeat", "S-Query", "U-Query", "Other", "Follow-up"}
	for i, rt := range RequestTypes() {
		if rt.String() != want[i] {
			t.Errorf("type %d = %q, want %q", i, rt.String(), want[i])
		}
	}
	kinds := []QueryKind{Retrieval, Comparison, Extremum, TopK, Trend}
	names := []string{"retrieval", "comparison", "extremum", "topk", "trend"}
	for i, k := range kinds {
		if k.String() != names[i] {
			t.Errorf("kind %d = %q", i, k.String())
		}
	}
}

func TestExtractDimension(t *testing.T) {
	_, ex := flightsExtractor(t)
	dim, ok := ex.ExtractDimension("which airline has the highest cancellations")
	if !ok || dim != "airline" {
		t.Errorf("dimension = %q ok=%v, want airline", dim, ok)
	}
	// Underscored column names match their spoken form.
	dim, ok = ex.ExtractDimension("cancellations by time of day")
	if !ok || dim != "time_of_day" {
		t.Errorf("dimension = %q ok=%v, want time_of_day", dim, ok)
	}
	if _, ok := ex.ExtractDimension("tell me a joke"); ok {
		t.Error("no dimension should match")
	}
}

func TestExtractValuesSameDimension(t *testing.T) {
	_, ex := flightsExtractor(t)
	vals := ex.ExtractValues("compare delays between Winter and Summer")
	if len(vals) != 2 {
		t.Fatalf("values = %v, want 2", vals)
	}
	seasons := map[string]bool{}
	for _, v := range vals {
		if v.Column != "season" {
			t.Errorf("column = %q, want season", v.Column)
		}
		seasons[v.Value] = true
	}
	if !seasons["Winter"] || !seasons["Summer"] {
		t.Errorf("values = %v", vals)
	}
}

func TestExtractValuesMixedDimensions(t *testing.T) {
	_, ex := flightsExtractor(t)
	vals := ex.ExtractValues("AA in February")
	if len(vals) != 2 {
		t.Fatalf("values = %v", vals)
	}
}
