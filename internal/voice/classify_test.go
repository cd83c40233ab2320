package voice

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/load"
	"cicero/internal/relation"
)

// The table-driven classifier against the string-scanning reference of
// classify_reference_test.go, on every corpus the repository has:
// fuzz seeds, paraphrase families, the HTTP routing golden, one
// utterance per stored speech key, and the load generators' traffic.

// goldenRoutingTexts returns the texts of the HTTP tier's routing golden.
func goldenRoutingTexts(t testing.TB) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "httpserve", "testdata", "routing_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var entries []struct {
		Text string `json:"text"`
	}
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	texts := make([]string, len(entries))
	for i, e := range entries {
		texts[i] = e.Text
	}
	return texts
}

// storeKeyUtterance renders the question a user would ask for exactly
// the stored query q, as the benchmark's serve_miss traffic does.
func storeKeyUtterance(q engine.Query, phrases map[string][]string) string {
	target := spokenName(q.Target)
	if p := phrases[q.Target]; len(p) > 0 {
		target = p[0]
	}
	switch len(q.Predicates) {
	case 0:
		return "what is the average " + target
	case 1:
		return fmt.Sprintf("what is the %s for %s", target, q.Predicates[0].Value)
	default:
		return fmt.Sprintf("what is the %s for %s and %s", target, q.Predicates[0].Value, q.Predicates[1].Value)
	}
}

// storeKeyTexts returns one utterance per problem of rel at query
// length 2.
func storeKeyTexts(t testing.TB, rel *relation.Relation, samples []Sample) []string {
	t.Helper()
	phrases := SpokenTargetPhrases(samples)
	var texts []string
	err := engine.EachProblemLazy(rel, engine.DefaultConfig(rel), func(lp engine.LazyProblem) error {
		texts = append(texts, storeKeyUtterance(lp.Query.Canonical(), phrases))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return texts
}

// dialogueTexts returns the turns of the dialogue generator's traffic.
func dialogueTexts(rel *relation.Relation, samples []Sample, n int) []string {
	var texts []string
	for _, d := range load.GenerateDialogues(rel, load.DialogOptions{
		Dialogues: n, Turns: 4, Seed: 1, TargetPhrases: SpokenTargetPhrases(samples),
	}) {
		for _, turn := range d.Turns {
			texts = append(texts, turn.Text)
		}
	}
	return texts
}

// checkReference compares every entry point with the reference on text
// and reports whether they agree.
func checkReference(t *testing.T, ex *Extractor, ref *refExtractor, text string) bool {
	t.Helper()
	if got, want := Normalize(text), refNormalize(text); got != want {
		t.Errorf("Normalize(%q) = %q, reference %q", text, got, want)
		return false
	}
	if got, want := Classify(text, ex), refClassify(text, ref); !reflect.DeepEqual(got, want) {
		t.Errorf("Classify(%q) =\n  %+v\nreference\n  %+v", text, got, want)
		return false
	}
	q, ok := ex.Extract(text)
	if wq, wok := ref.Extract(text); ok != wok || !reflect.DeepEqual(q, wq) {
		t.Errorf("Extract(%q) = %+v/%v, reference %+v/%v", text, q, ok, wq, wok)
		return false
	}
	d, ok := ex.ExtractDimension(text)
	if wd, wok := ref.ExtractDimension(text); d != wd || ok != wok {
		t.Errorf("ExtractDimension(%q) = %q/%v, reference %q/%v", text, d, ok, wd, wok)
		return false
	}
	if got, want := ex.ExtractValues(text), ref.ExtractValues(text); !reflect.DeepEqual(got, want) {
		t.Errorf("ExtractValues(%q) = %v, reference %v", text, got, want)
		return false
	}
	return true
}

func TestClassifyMatchesReference(t *testing.T) {
	shared := append([]string(nil), fuzzSeeds...)
	for _, fam := range append(append([]paraphraseFamily(nil), flightsFamilies...), housingFamilies...) {
		shared = append(shared, fam.canonical)
		shared = append(shared, fam.rewrites...)
	}
	golden := goldenRoutingTexts(t)
	shared = append(shared, golden...)

	type corpus struct {
		name    string
		rel     *relation.Relation
		samples []Sample
		texts   []string
	}
	var corpora []corpus
	for _, name := range dataset.Names() {
		rel := dataset.ByNameRows(name, 2000, 1)
		samples := DefaultSamples(name)
		texts := append([]string(nil), shared...)
		texts = append(texts, load.Generate(rel, load.Options{
			Requests: 500, Seed: 1, TargetPhrases: SpokenTargetPhrases(samples),
		})...)
		texts = append(texts, dialogueTexts(rel, samples, 60)...)
		if name == "flights" || name == "housing" {
			texts = append(texts, storeKeyTexts(t, rel, samples)...)
		}
		corpora = append(corpora, corpus{name, rel, samples, texts})
	}
	// The routing golden's own extractor: flights with two samples.
	corpora = append(corpora, corpus{"flights-golden", dataset.Flights(2000, 1), []Sample{
		{Phrase: "cancellations", Target: "cancelled"},
		{Phrase: "cancellation probability", Target: "cancelled"},
	}, golden})

	for _, c := range corpora {
		t.Run(c.name, func(t *testing.T) {
			ex, ref := NewExtractor(c.rel, c.samples, 2), newRefExtractor(c.rel, c.samples, 2)
			seen := map[string]bool{}
			failures := 0
			for _, text := range c.texts {
				if seen[text] {
					continue
				}
				seen[text] = true
				if !checkReference(t, ex, ref, text) {
					if failures++; failures == 10 {
						t.Fatal("too many disagreements")
					}
				}
			}
			t.Logf("%d distinct texts", len(seen))
		})
	}
}

// Equal-length target phrases ("cancellations" and "flight delays",
// 13 bytes each) tie-break lexicographically on every call, so the
// answer cache cannot pin whichever a map happened to yield first.
func TestTargetTieIsDeterministic(t *testing.T) {
	rel := dataset.Flights(400, 1)
	const text = "cancellations and flight delays in Winter"
	for run := 0; run < 200; run++ {
		ex := NewExtractor(rel, DefaultSamples("flights"), 2)
		if c := Classify(text, ex); c.Query.Target != "cancelled" {
			t.Fatalf("run %d: Classify target = %q, want cancelled", run, c.Query.Target)
		}
		if q, ok := ex.Extract(text); !ok || q.Target != "cancelled" {
			t.Fatalf("run %d: Extract target = %q/%v, want cancelled", run, q.Target, ok)
		}
	}
}

// A consumed value takes its word-bounded occurrence with it, not the
// first raw substring: "Mon" must not cut "mon" out of "month".
func TestValueConsumesMatchedOccurrence(t *testing.T) {
	_, ex := flightsExtractor(t)
	for _, day := range []string{"Mon", "Tue"} {
		text := "which month has the highest delays on " + day
		c := Classify(text, ex)
		if c.Dim != "month" || c.Kind != Extremum {
			t.Errorf("Classify(%q): dim %q kind %v, want month extremum", text, c.Dim, c.Kind)
		}
		if len(c.Values) != 1 || c.Values[0] != (engine.NamedPredicate{Column: "day_of_week", Value: day}) {
			t.Errorf("Classify(%q): values %v", text, c.Values)
		}
	}
	if vals := ex.ExtractValues("month of Mon and Mon"); len(vals) != 1 || vals[0].Value != "Mon" {
		t.Errorf("ExtractValues = %v, want one Mon", vals)
	}
}

// allocUtterances are the fixed sets TestClassifyAllocCeiling and
// BenchmarkClassify run: 200 flights store-key utterances spread over
// every query length, as serve_miss sends them, and housing dialogue
// turns, as dialog_scan does.
func allocUtterances(t testing.TB) (flights, housing []string, fex, hex *Extractor) {
	t.Helper()
	frel := dataset.Flights(2000, 1)
	keys := storeKeyTexts(t, frel, DefaultSamples("flights"))
	for i := 0; i < 200; i++ {
		flights = append(flights, keys[i*len(keys)/200])
	}
	hrel := dataset.Housing(4000, 1)
	housing = dialogueTexts(hrel, DefaultSamples("housing"), 60)
	return flights, housing, NewExtractor(frel, DefaultSamples("flights"), 2), NewExtractor(hrel, DefaultSamples("housing"), 2)
}

// Classify allocates its normalized text, one backing array shared by
// Values and Query.Predicates when it finds a value, and a Window or
// Constraint when it finds one; everything else lives on the stack.
// The counts are exact totals over each set. The string-scanning
// classifier took 99 allocations per flights utterance and 80 per
// housing turn.
func TestClassifyAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	flights, housing, fex, hex := allocUtterances(t)
	for _, c := range []struct {
		name  string
		ex    *Extractor
		texts []string
		want  float64
	}{
		{"flights store keys", fex, flights, 398},
		{"housing dialogue turns", hex, housing, 241},
	} {
		got := testing.AllocsPerRun(10, func() {
			for _, text := range c.texts {
				Classify(text, c.ex)
			}
		})
		if got != c.want || got > 8*float64(len(c.texts)) {
			t.Errorf("%s: %v allocations over %d utterances, want %v", c.name, got, len(c.texts), c.want)
		}
	}
}

// Benchmark results land here so the compiler keeps the measured calls.
var (
	classifySink  Classification
	normalizeSink string
)

func BenchmarkClassify(b *testing.B) {
	flights, housing, fex, hex := allocUtterances(b)
	for _, c := range []struct {
		name  string
		ex    *Extractor
		texts []string
	}{
		{"flights_store_keys", fex, flights},
		{"housing_dialogue", hex, housing},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				classifySink = Classify(c.texts[i%len(c.texts)], c.ex)
			}
		})
	}
	b.Run("normalize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			normalizeSink = Normalize(flights[i%len(flights)])
		}
	})
}
