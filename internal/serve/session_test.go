package serve

import (
	"context"
	"strings"
	"sync"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/pipeline"
	"cicero/internal/voice"
)

// newHousingAnswerer builds a serving stack over the housing time
// series: rents and populations by city, state, bedrooms, and month.
func newHousingAnswerer(t testing.TB) *Answerer {
	t.Helper()
	rel := dataset.Housing(6000, 1)
	cfg := engine.DefaultConfig(rel)
	cfg.Targets = []string{"rent"}
	cfg.MaxQueryLen = 1
	store, _, err := pipeline.Run(context.Background(), rel, cfg, pipeline.Options{
		Template: engine.Template{TargetPhrase: "monthly rent", Unit: "dollars"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := voice.NewExtractor(rel, voice.DefaultSamples("housing"), cfg.MaxQueryLen)
	return New(rel, store, ex, Options{})
}

func TestAnswererNewShapes(t *testing.T) {
	a := newHousingAnswerer(t)

	cases := []struct {
		name, text string
		kind       Kind
		contains   string
	}{
		{"topk", "the three cities with the highest rent", TopK, "New York"},
		{"topk-bottom", "the bottom two cities by rent", TopK, "Asheville"},
		{"trend", "how did rent change over time", Trend, "rose"},
		{"trend-window", "how did rent change since January 2024", Trend, "January 2024"},
		// Per-city population is planted flat; the city mix makes the
		// unrestricted mean drift, so the flat check needs the predicate.
		{"trend-flat", "population trend in Chicago over time", Trend, "held steady"},
		{"constrained", "rent in cities with population over 500 thousand", Constrained, "over 500 thousand"},
		{"multi-constraint", "rent for Two bedroom apartments in cities with population over 500 thousand", Constrained, "over 500 thousand"},
		{"constrained-extremum", "the city with the highest rent among cities with population over 500 thousand", Extremum, "New York"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := a.Answer(c.text)
			if got.Kind != c.kind || !got.Answered {
				t.Fatalf("Answer(%q) = kind %v answered %v (text %q); want kind %v answered",
					c.text, got.Kind, got.Answered, got.Text, c.kind)
			}
			if !strings.Contains(got.Text, c.contains) {
				t.Errorf("Answer(%q) = %q, want mention of %q", c.text, got.Text, c.contains)
			}
		})
	}

	// The planted effect is ranked correctly: New York, San Francisco,
	// Boston carry the highest base rents, in that order.
	top := a.Answer("the three cities with the highest rent")
	ny := strings.Index(top.Text, "New York")
	sf := strings.Index(top.Text, "San Francisco")
	bos := strings.Index(top.Text, "Boston")
	if ny < 0 || sf < 0 || bos < 0 || !(ny < sf && sf < bos) {
		t.Errorf("top-3 ranking = %q, want New York before San Francisco before Boston", top.Text)
	}
}

// TestSessionFollowUpAfterExtremum is the regression for the old
// Session, which retained only the last answer text: a follow-up after
// an extremum must answer the extremum over the narrowed subset, not
// fall back to a summary (or apologize).
func TestSessionFollowUpAfterExtremum(t *testing.T) {
	a := newHousingAnswerer(t)
	s := a.NewSession()

	first := s.Answer("which city has the highest rent")
	if first.Kind != Extremum || !first.Answered {
		t.Fatalf("seed extremum = %+v", first)
	}
	if !strings.Contains(first.Text, "New York") {
		t.Fatalf("seed extremum text = %q, want New York", first.Text)
	}

	fu := s.Answer("what about Texas")
	if fu.Request != voice.FollowUp {
		t.Fatalf("follow-up request = %v, want FollowUp", fu.Request)
	}
	if fu.Kind != Extremum || !fu.Answered {
		t.Fatalf("follow-up = kind %v answered %v (text %q); want the extremum re-run",
			fu.Kind, fu.Answered, fu.Text)
	}
	// Austin has the highest planted base rent among the Texas cities.
	if !strings.Contains(fu.Text, "Austin") {
		t.Errorf("follow-up text = %q, want the Texas extremum (Austin)", fu.Text)
	}

	// The session context retains the merged structured query, not just
	// the answer text.
	ctx := s.ctx.Load()
	if ctx == nil || ctx.Kind != Extremum || ctx.Query.Target != "rent" || ctx.Dim != "city" {
		t.Fatalf("context after follow-up = %+v", ctx)
	}
	if len(ctx.Query.Predicates) != 1 || ctx.Query.Predicates[0].Value != "Texas" {
		t.Errorf("context predicates = %v, want the Texas narrowing", ctx.Query.Predicates)
	}
}

func TestSessionFollowUpChains(t *testing.T) {
	a := newHousingAnswerer(t)
	s := a.NewSession()

	if ans := s.Answer("which city has the highest rent"); !ans.Answered {
		t.Fatalf("seed = %+v", ans)
	}
	steps := []struct {
		text     string
		kind     Kind
		contains string
	}{
		// Direction flip inherits target and dimension.
		{"and the lowest", Extremum, "Asheville"},
		// Kind shift to a ranked list keeps the minimum direction.
		{"what about the bottom three", TopK, "Asheville"},
		// Value follow-up narrows the ranked list to Texas cities.
		{"what about Texas", TopK, "San Antonio"},
		// And a repeat replays the last spoken answer verbatim.
	}
	var last Answer
	for _, st := range steps {
		got := s.Answer(st.text)
		if got.Request != voice.FollowUp || got.Kind != st.kind || !got.Answered {
			t.Fatalf("Answer(%q) = request %v kind %v answered %v (text %q); want resolved %v",
				st.text, got.Request, got.Kind, got.Answered, got.Text, st.kind)
		}
		if !strings.Contains(got.Text, st.contains) {
			t.Errorf("Answer(%q) = %q, want mention of %q", st.text, got.Text, st.contains)
		}
		last = got
	}
	rep := s.Answer("repeat that")
	if rep.Kind != Repeat || !rep.Answered || rep.Text != last.Text {
		t.Errorf("repeat = %+v, want replay of %q", rep, last.Text)
	}

	// A fresh full query resets the dialogue: the next follow-up builds
	// on it, not on the old chain.
	if ans := s.Answer("rent in Boston"); ans.Kind != Summary || !ans.Answered {
		t.Fatalf("reset query = %+v", ans)
	}
	fu := s.Answer("what about Miami")
	if fu.Kind != Summary || !fu.Answered || !strings.Contains(fu.Text, "Miami") {
		t.Errorf("follow-up after reset = kind %v (text %q), want a Miami summary", fu.Kind, fu.Text)
	}
}

func TestSessionFollowUpWithoutContext(t *testing.T) {
	a := newHousingAnswerer(t)
	s := a.NewSession()
	got := s.Answer("what about Texas")
	if got.Kind != FollowUp || got.Answered {
		t.Fatalf("context-free follow-up = %+v, want the follow-up apology", got)
	}
	// Help leaves no followable context either.
	s.Answer("help")
	if got := s.Answer("what about Texas"); got.Kind != FollowUp || got.Answered {
		t.Errorf("follow-up after help = %+v, want the follow-up apology", got)
	}
	// The stateless Answerer never resolves follow-ups.
	if got := a.Answer("what about Texas"); got.Kind != FollowUp || got.Answered {
		t.Errorf("stateless follow-up = %+v, want the follow-up apology", got)
	}
}

// TestSessionFollowUpSwapRace drives concurrent follow-ups on one
// session while the store is swapped underneath: no request may observe
// a mixed-generation context (run under -race). The context lives in a
// single atomic pointer, so every answer sees one coherent previous
// query even mid-swap.
func TestSessionFollowUpSwapRace(t *testing.T) {
	a := newHousingAnswerer(t)
	s := a.NewSession()
	if ans := s.Answer("which city has the highest rent"); !ans.Answered {
		t.Fatalf("seed = %+v", ans)
	}

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		// Re-installing the live pair still publishes a fresh generation,
		// which is exactly the hostile schedule the context must survive.
		for {
			select {
			case <-stop:
				return
			default:
				g := a.live.Load()
				a.SwapData(g.agg.Relation(), g.store)
			}
		}
	}()

	texts := []string{"what about Texas", "and the lowest", "what about the top three"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ans := s.Answer(texts[(g+i)%len(texts)])
				if !ans.Answered || !followable(ans.Kind) {
					t.Errorf("follow-up %q resolved to kind %v answered %v (text %q)",
						texts[(g+i)%len(texts)], ans.Kind, ans.Answered, ans.Text)
					return
				}
				ctx := s.ctx.Load()
				// Whatever interleaving happened, the published context is
				// an internally consistent snapshot of some answered query.
				if ctx == nil || ctx.Query.Target != "rent" || ctx.Dim != "city" ||
					ctx.LastText == "" || !followable(ctx.Kind) {
					t.Errorf("incoherent context snapshot: %+v", ctx)
					return
				}
			}
		}(g)
	}
	// Stop the swapper only after the followers finish, so swaps overlap
	// the whole run.
	wg.Wait()
	close(stop)
	swapper.Wait()
}

func TestAnswerContextExplicit(t *testing.T) {
	a := newHousingAnswerer(t)

	ans, ctx := a.AnswerContext("which city has the highest rent", nil)
	if !ans.Answered || ctx == nil {
		t.Fatalf("seed = %+v ctx %v", ans, ctx)
	}
	// The context is a value: callers can branch a dialogue by reusing
	// the same snapshot for independent follow-ups.
	texas, _ := a.AnswerContext("what about Texas", ctx)
	lowest, _ := a.AnswerContext("and the lowest", ctx)
	if !strings.Contains(texas.Text, "Austin") {
		t.Errorf("texas branch = %q", texas.Text)
	}
	if !strings.Contains(lowest.Text, "Asheville") {
		t.Errorf("lowest branch = %q", lowest.Text)
	}
	// Failed requests leave the context untouched.
	_, after := a.AnswerContext("utter gibberish", ctx)
	if after != ctx {
		t.Errorf("unanswered request advanced the context")
	}
}
