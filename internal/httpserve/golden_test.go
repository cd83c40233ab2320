package httpserve

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cicero/internal/serve"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/routing_golden.json from current behavior")

// goldenTexts is the pinned query-log sample: every request type and
// phrasing family the voice path distinguishes, including the edge
// cases the hardening pass added.
var goldenTexts = []string{
	// Help phrasings.
	"help",
	"what can you do",
	"what can I ask you",
	"how does this work",
	// Repeat phrasings (the stateless server apologizes).
	"repeat that",
	"say that again please",
	"come again",
	// Supported summaries: overall, one predicate per dimension family.
	"cancellations",
	"what is the average cancellations",
	"cancellations in Winter",
	"cancellations in Spring",
	"cancellations in Summer",
	"cancellations in Fall",
	"cancellations on UA",
	"cancellations on DL",
	"cancellations on NK",
	"cancellation probability for AA flights",
	"Cancellations... in WINTER!?",
	"tell me about cancellations in winter",
	// Two predicates with a one-predicate store: most-specific match.
	"cancellations in Winter on UA",
	"cancellations on B6 in Summer",
	// Extrema, across the synonym vocabulary.
	"which airline has the highest cancellations",
	"which airline has the most cancellations",
	"which airline has the fewest cancellations",
	"which season has the lowest cancellations",
	"which season has the largest cancellations",
	"airline with the smallest cancellations",
	"what is the worst season for cancellations",
	// Comparisons.
	"compare cancellations between Winter and Summer",
	"cancellations UA versus DL",
	"what is the difference between Winter and Fall cancellations",
	"are cancellations in Winter more than in Summer",
	// Unknown target.
	"what about delays in Winter",
	"average delay on UA",
	// Unsupported / not understood.
	"play some music",
	"tell me a joke",
	"what is the weather like",
	"good morning",
	"",
	"???",
	"winter",
	"UA",
	"which mountain is the highest",
	// Top-k rankings, spoken and digit counts, both directions.
	"the top three airlines with the highest cancellations",
	"top 3 airlines with the highest cancellations",
	"the two seasons with the highest cancellations",
	"bottom two airlines by cancellations",
	"the three airlines with the fewest cancellations",
	"top five airlines by cancellation probability",
	"what are the top 2 seasons for cancellations",
	"give me the top four airlines with the lowest cancellations",
	// Numeric entity constraints across the operator vocabulary.
	"airlines with cancellations over 10 percent",
	"airlines with cancellations above 15 percent",
	"which airlines have cancellations of at least 5 percent",
	"airlines whose cancellations are under 50 percent",
	"seasons with cancellations over 10 percent",
	"airlines with cancellations greater than 90 percent",
	"airlines having cancellations below 99 percent",
	// Constrained extremum: ranking restricted to qualifying entities.
	"the airline with the highest cancellations among airlines with cancellations over 5 percent",
	// Trends and time windows over the month dimension.
	"how did cancellations change over time",
	"cancellation trend",
	"cancellations since July",
	"how did cancellations change since February",
	"cancellations between February and June",
	"cancellations from January to March",
	"cancellation trend over the last three months",
	"how did cancellations evolve over the last 2 quarters",
	"cancellations in Winter since March",
	// Elliptical follow-ups: the stateless endpoint apologizes, pinning
	// that they are recognized as follow-ups rather than noise.
	"what about Winter",
	"what about UA",
	"and the lowest",
	"how about the top five airlines",
	"what about",
	"and",
	// Adversarial shapes the grammar must not crash or misroute on.
	"top 99999 airlines",
	"top 0 airlines by cancellations",
	"since since since",
	"cancellations over 10",
	"the top three mountains with the highest snowfall",
	"airlines with altitude over 10 thousand",
}

// goldenEntry pins one routing outcome.
type goldenEntry struct {
	Text   string `json:"text"`
	Kind   string `json:"kind"`
	Answer string `json:"answer"`
}

func goldenPath(t *testing.T) string {
	t.Helper()
	return filepath.Join("testdata", "routing_golden.json")
}

// TestRoutingGolden pins ~40 query phrasings to their answer kind and
// rendered text, and proves the cached and uncached serving paths
// return byte-identical answers to the direct in-process path.
func TestRoutingGolden(t *testing.T) {
	rel := flightsRel()
	store := buildFlightsStore(t, rel, 1, "cancellation probability")
	a := serve.New(rel, store, flightsExtractor(rel), serve.Options{})
	sUncached := New(a, Options{CacheEntries: -1})
	sCached := New(a, Options{})
	ctx := context.Background()

	got := make([]goldenEntry, len(goldenTexts))
	for i, text := range goldenTexts {
		direct := a.Answer(text)

		uncached, err := sUncached.AnswerDataset(ctx, DefaultDataset, text)
		if err != nil {
			t.Fatalf("uncached answer for %q: %v", text, err)
		}
		if uncached.Cached {
			t.Fatalf("cache-disabled serving of %q claims cached", text)
		}
		if _, err := sCached.AnswerDataset(ctx, DefaultDataset, text); err != nil { // prime
			t.Fatalf("priming answer for %q: %v", text, err)
		}
		cached, err := sCached.AnswerDataset(ctx, DefaultDataset, text)
		if err != nil {
			t.Fatalf("cached answer for %q: %v", text, err)
		}
		if !cached.Cached {
			t.Fatalf("second serving of %q not cached", text)
		}

		for path, ans := range map[string]serve.Answer{"uncached": uncached.Answer, "cached": cached.Answer} {
			if ans.Kind != direct.Kind || ans.Text != direct.Text {
				t.Errorf("%s path diverges from direct for %q:\n  direct: %v %q\n  %s: %v %q",
					path, text, direct.Kind, direct.Text, path, ans.Kind, ans.Text)
			}
		}
		got[i] = goldenEntry{Text: text, Kind: direct.Kind.String(), Answer: direct.Text}
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(t), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d entries", goldenPath(t), len(got))
		return
	}

	data, err := os.ReadFile(goldenPath(t))
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d entries, test produced %d (regenerate with -update)", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("routing drift for %q:\n  want kind=%s answer=%q\n  got  kind=%s answer=%q",
				want[i].Text, want[i].Kind, want[i].Answer, got[i].Kind, got[i].Answer)
		}
	}
}
