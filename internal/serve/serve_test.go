package serve

import (
	"context"
	"strings"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/pipeline"
	"cicero/internal/voice"
)

// newFlightsAnswerer builds a serving stack over the flights data set:
// pre-generated speeches for the cancellation target plus the voice
// extractor the REPL uses.
func newFlightsAnswerer(t testing.TB) *Answerer {
	t.Helper()
	rel := dataset.Flights(4000, 1)
	cfg := engine.DefaultConfig(rel)
	cfg.Targets = []string{"cancelled"}
	cfg.MaxQueryLen = 1
	store, _, err := pipeline.Run(context.Background(), rel, cfg, pipeline.Options{
		Template: engine.Template{TargetPhrase: "cancellation probability", Percent: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := voice.NewExtractor(rel, []voice.Sample{
		{Phrase: "cancellations", Target: "cancelled"},
		{Phrase: "cancellation probability", Target: "cancelled"},
	}, cfg.MaxQueryLen)
	return New(rel, store, ex, Options{})
}

func TestAnswererRoutesAllKinds(t *testing.T) {
	a := newFlightsAnswerer(t)

	cases := []struct {
		text string
		kind Kind
		ans  bool
	}{
		{"help", Help, true},
		{"cancellations in Winter", Summary, true},
		{"which airline has the most cancellations", Extremum, true},
		{"compare cancellations between Winter and Summer", Comparison, true},
		{"what a lovely day", Unknown, false},
	}
	for _, c := range cases {
		got := a.Answer(c.text)
		if got.Kind != c.kind || got.Answered != c.ans {
			t.Errorf("Answer(%q) = kind %v answered %v; want %v/%v (text %q)",
				c.text, got.Kind, got.Answered, c.kind, c.ans, got.Text)
		}
		if got.Text == "" {
			t.Errorf("Answer(%q) has empty text", c.text)
		}
		if got.Latency <= 0 {
			t.Errorf("Answer(%q) did not measure latency", c.text)
		}
	}
}

func TestAnswererSummaryMetadata(t *testing.T) {
	a := newFlightsAnswerer(t)

	// Exact: a one-predicate query has its own pre-generated speech.
	got := a.Answer("cancellation probability in Winter")
	if got.Kind != Summary || got.Matched == nil || !got.Exact {
		t.Fatalf("exact summary = %+v", got)
	}
	if got.Query.Target != "cancelled" || len(got.Query.Predicates) != 1 {
		t.Errorf("extracted query = %v", got.Query)
	}

	// Generalization: two predicates exceed MaxQueryLen=1, classified
	// unsupported by the front-end — but a direct structured query must
	// fall back to the most specific stored generalization.
	q := engine.Query{Target: "cancelled", Predicates: []engine.NamedPredicate{
		{Column: "season", Value: "Winter"}, {Column: "airline", Value: "AA"},
	}}
	direct := answerSummary(a.live.Load(), q)
	if direct.Kind != Summary || direct.Exact || direct.Matched == nil {
		t.Fatalf("generalized summary = %+v", direct)
	}
	if len(direct.Matched.Query.Predicates) != 1 {
		t.Errorf("matched speech %v is not a 1-predicate generalization",
			direct.Matched.Query)
	}

	// The same over-long retrieval arriving as raw text is classified
	// U-Query by the front-end, yet the serving layer still answers it
	// from the most specific stored generalization.
	overlong := a.Answer("cancellations in Winter with AA")
	if overlong.Kind != Summary || !overlong.Answered || overlong.Exact {
		t.Fatalf("over-long retrieval = %+v", overlong)
	}
	if overlong.Request != voice.UQuery {
		t.Errorf("over-long retrieval classified %v, want UQuery", overlong.Request)
	}

	// Unknown target: apology names the target.
	miss := answerSummary(a.live.Load(), engine.Query{Target: "delay"})
	if miss.Answered || miss.Kind != Unsupported || !strings.Contains(miss.Text, "delay") {
		t.Errorf("missing-target answer = %+v", miss)
	}
}

func TestSessionRepeat(t *testing.T) {
	a := newFlightsAnswerer(t)
	s := a.NewSession()

	first := s.Answer("say that again")
	if first.Kind != Repeat || first.Answered {
		t.Fatalf("repeat before content = %+v", first)
	}
	ans := s.Answer("cancellations in Winter")
	if !ans.Answered {
		t.Fatalf("summary failed: %+v", ans)
	}
	rep := s.Answer("repeat")
	if rep.Kind != Repeat || !rep.Answered || rep.Text != ans.Text {
		t.Fatalf("repeat = %+v, want %q", rep, ans.Text)
	}
	// Help is served but does not overwrite repeatable content.
	s.Answer("help")
	if rep2 := s.Answer("repeat"); rep2.Text != ans.Text {
		t.Errorf("repeat after help = %q, want %q", rep2.Text, ans.Text)
	}
}
