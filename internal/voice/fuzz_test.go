package voice

import (
	"reflect"
	"strings"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/relation"
)

// Native fuzz targets for the voice path: every request passes through
// Classify/Extract before any backend runs, so these prove the
// front-end neither panics nor produces out-of-contract results on
// arbitrary byte sequences (including invalid UTF-8), and that it
// agrees with the reference classifier of classify_reference_test.go.

// fuzzSeeds is the shared corpus of adversarial phrasings.
var fuzzSeeds = []string{
	"",
	" ",
	"help",
	"repeat that",
	"cancellations in Winter",
	"what is the delay for UA on Mon in the Evening",
	"which airline has the fewest cancellations",
	"compare cancellations between Winter and Summer",
	"help help help repeat repeat",
	"cancellations cancellations cancellations",
	"¿cancelaciones? ✈️ 取消 冬 🎤",
	"Wínter délay façade",
	"\x00\x01\x02cancellations\xff\xfe",
	string([]byte{0xc3, 0x28}),          // invalid UTF-8 sequence
	strings.Repeat("winter ", 200),      // long repeated value
	strings.Repeat("a", 4096),           // long single token
	"min max top least most best worst", // marker pile-up
	"smallest largest greatest fewest",  // extremum synonyms
	"delay UA DL WN B6 AS NK F9",        // many same-dimension values
	"cancellations Winter Spring Summer Fall Morning Night Mon Tue",
	// Extended grammar: top-k counts, constraints, windows, follow-ups.
	"the top 3 airlines with the highest cancellations",
	"top three months by delays",
	"bottom 2 airlines by cancellation probability",
	"the three airlines with the fewest cancellations",
	"airlines with cancellations over 10 percent",
	"months with delay of at least 20 minutes",
	"airlines with cancellations above 500 thousand",
	"with over without numbers",
	"how did delays change since January",
	"delay trend over the last three months",
	"delays between February and June",
	"delays from January to March",
	"delays over the last 2 quarters",
	"what about Winter",
	"what about delays",
	"how about the top five airlines",
	"and the lowest",
	"and delays in Winter",
	"what about",
	"top 99999 airlines",
	"top 0 airlines",
	"since since since",
	"last last months percent",
	"5 airlines 6 months 7 seasons",
	"2 million delays in February",
	// Runes that lowercase to ASCII, and invalid UTF-8 next to a value:
	// Normalize's rune path, not its ASCII one, must see them.
	"\u212a cancellations in \u212aelvin Winter", // Kelvin sign → "k"
	"\u0130 delays on Mon \u0130n February",      // dotted capital I → "i" + U+0307
	"delays in Win\xffter on Mon\xc3",
	// A value inside a longer word must not be the occurrence consumed.
	"which month has the highest delays on Mon",
	// Equal-length target phrases: the lexicographic tie-break decides.
	"cancellations and flight delays in Winter",
	// A consumed value between a count and its dimension joins them;
	// a value that starts with a number word is no count.
	"the 3 Winter airlines with the most delays",
	"top two bedroom cities by rent",
	// Numerals ParseFloat spells without a leading digit, and with one.
	"airlines with delay over inf minutes",
	"airlines with delay over infk",
	"delays over the last nan months",
	"airlines with delay above 1e3 or 0x1p4",
}

// fuzzExtractor returns the relation the fuzz targets run over, its
// extractor, and the reference classifier over the same relation.
func fuzzExtractor(f *testing.F) (*relation.Relation, *Extractor, *refExtractor) {
	f.Helper()
	rel := dataset.Flights(400, 1)
	samples := DefaultSamples("flights")
	return rel, NewExtractor(rel, samples, 2), newRefExtractor(rel, samples, 2)
}

func FuzzClassify(f *testing.F) {
	rel, ex, ref := fuzzExtractor(f)
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		c := Classify(text, ex)
		if want := refClassify(text, ref); !reflect.DeepEqual(c, want) {
			t.Fatalf("Classify(%q) = %+v, reference %+v", text, c, want)
		}
		switch c.Type {
		case Help, Repeat, SQuery, UQuery, Other, FollowUp:
		default:
			t.Fatalf("Classify(%q) invalid type %d", text, int(c.Type))
		}
		switch c.Kind {
		case Retrieval, Comparison, Extremum, TopK, Trend:
		default:
			t.Fatalf("Classify(%q) invalid kind %d", text, int(c.Kind))
		}
		switch c.Type {
		case SQuery:
			if c.Query.Target == "" {
				t.Fatalf("Classify(%q) SQuery without target", text)
			}
			if c.Kind != Retrieval {
				t.Fatalf("Classify(%q) SQuery with kind %v", text, c.Kind)
			}
			if c.Constraint != nil || c.Window != nil {
				t.Fatalf("Classify(%q) SQuery carries constraint/window", text)
			}
			if len(c.Query.Predicates) > ex.MaxQueryLen() {
				t.Fatalf("Classify(%q) SQuery with %d predicates over bound %d",
					text, len(c.Query.Predicates), ex.MaxQueryLen())
			}
		case Help, Repeat, Other:
			if c.Query.Target != "" || len(c.Query.Predicates) > 0 {
				t.Fatalf("Classify(%q) conversational type carries query %v", text, c.Query)
			}
		}
		if c.Type == SQuery || c.Type == UQuery {
			if c.Predicates != len(c.Query.Predicates) {
				t.Fatalf("Classify(%q) Predicates=%d but query has %d",
					text, c.Predicates, len(c.Query.Predicates))
			}
		}
		if c.K < 0 || c.K > 100 {
			t.Fatalf("Classify(%q) K=%d out of range", text, c.K)
		}
		if c.Kind == TopK && c.Type != Other && c.K < 2 {
			t.Fatalf("Classify(%q) TopK with K=%d", text, c.K)
		}
		if w := c.Window; w != nil {
			n := len(ex.TimePeriods())
			if w.From < 0 || w.To >= n || w.From > w.To {
				t.Fatalf("Classify(%q) window %+v out of 0..%d", text, w, n-1)
			}
		}
		if c.Constraint != nil && c.Constraint.Target == "" {
			t.Fatalf("Classify(%q) constraint without target", text)
		}
		if c.Dim != "" {
			found := false
			for _, d := range rel.Schema().Dimensions {
				found = found || d == c.Dim
			}
			if !found {
				t.Fatalf("Classify(%q) unknown dim %q", text, c.Dim)
			}
		}
		for _, p := range c.Values {
			if _, err := rel.PredicateByName(p.Column, p.Value); err != nil {
				t.Fatalf("Classify(%q) unresolvable value %v: %v", text, p, err)
			}
		}
	})
}

func FuzzExtract(f *testing.F) {
	rel, ex, ref := fuzzExtractor(f)
	dims := rel.Schema().Dimensions
	isTarget := map[string]bool{}
	for _, t := range rel.Schema().Targets {
		isTarget[t] = true
	}
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		norm := Normalize(text)
		if want := refNormalize(text); norm != want {
			t.Fatalf("Normalize(%q) = %q, reference %q", text, norm, want)
		}
		if again := Normalize(norm); again != norm {
			t.Fatalf("Normalize not idempotent on %q: %q vs %q", text, norm, again)
		}

		q, ok := ex.Extract(text)
		if wq, wok := ref.Extract(text); ok != wok || !reflect.DeepEqual(q, wq) {
			t.Fatalf("Extract(%q) = %+v/%v, reference %+v/%v", text, q, ok, wq, wok)
		}
		if !ok {
			if q.Target != "" || len(q.Predicates) > 0 {
				t.Fatalf("Extract(%q) not-ok but non-empty query %v", text, q)
			}
		} else {
			if !isTarget[q.Target] {
				t.Fatalf("Extract(%q) unknown target %q", text, q.Target)
			}
			if len(q.Predicates) > len(dims) {
				t.Fatalf("Extract(%q) %d predicates over %d dimensions", text, len(q.Predicates), len(dims))
			}
			seen := map[string]bool{}
			for _, p := range q.Predicates {
				if seen[p.Column] {
					t.Fatalf("Extract(%q) duplicate predicate column %q", text, p.Column)
				}
				seen[p.Column] = true
				if _, err := rel.PredicateByName(p.Column, p.Value); err != nil {
					t.Fatalf("Extract(%q) unresolvable predicate %v: %v", text, p, err)
				}
			}
		}

		dim, ok := ex.ExtractDimension(text)
		if wd, wok := ref.ExtractDimension(text); dim != wd || ok != wok {
			t.Fatalf("ExtractDimension(%q) = %q/%v, reference %q/%v", text, dim, ok, wd, wok)
		}
		if ok {
			found := false
			for _, d := range dims {
				found = found || d == dim
			}
			if !found {
				t.Fatalf("ExtractDimension(%q) unknown dimension %q", text, dim)
			}
		}
		vals := ex.ExtractValues(text)
		if want := ref.ExtractValues(text); !reflect.DeepEqual(vals, want) {
			t.Fatalf("ExtractValues(%q) = %v, reference %v", text, vals, want)
		}
		for _, p := range vals {
			if _, err := rel.PredicateByName(p.Column, p.Value); err != nil {
				t.Fatalf("ExtractValues(%q) unresolvable predicate %v: %v", text, p, err)
			}
		}
	})
}
