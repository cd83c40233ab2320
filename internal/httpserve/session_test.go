package httpserve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/pipeline"
	"cicero/internal/serve"
	"cicero/internal/voice"
)

// newHousingAnswerer builds the housing tenant: a time-series dataset
// with rents and populations by city, state, bedrooms, and month.
func newHousingAnswerer(t testing.TB) *serve.Answerer {
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
	return serve.New(rel, store, ex, serve.Options{})
}

// newDialogueServer mounts flights (default) and housing behind one
// registry server, the two-tenant shape the dialogue smoke run uses.
func newDialogueServer(t testing.TB, opts Options) *Server {
	t.Helper()
	reg := serve.NewRegistry()
	fl, _ := newFlightsAnswerer(t, "cancellation probability")
	if err := reg.Add("flights", fl); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("housing", newHousingAnswerer(t)); err != nil {
		t.Fatal(err)
	}
	return NewMulti(reg, "flights", opts)
}

// TestHousingShapesOverHTTP drives all four new query shapes end to end
// through the HTTP tier against the housing tenant.
func TestHousingShapesOverHTTP(t *testing.T) {
	s := newDialogueServer(t, Options{})
	h := s.Handler()

	cases := []struct {
		name, text, kind, contains string
	}{
		{"multi-constraint",
			"rent for Two bedroom apartments in cities with population over 500 thousand",
			"constrained", "over 500 thousand"},
		{"topk", "the three cities with the highest rent", "topk", "New York"},
		{"trend", "how did rent change since January 2024", "trend", "January 2024"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := postTo(t, h, "/v1/housing/answer", fmt.Sprintf(`{"text":%q}`, c.text))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
			}
			var resp AnswerResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Kind != c.kind || !resp.Answered {
				t.Fatalf("kind %q answered %v (text %q); want answered %q",
					resp.Kind, resp.Answered, resp.Text, c.kind)
			}
			if !strings.Contains(resp.Text, c.contains) {
				t.Errorf("answer %q, want mention of %q", resp.Text, c.contains)
			}
		})
	}
}

// TestCellStatsOverHTTP: /v1/{dataset}/stats counts the group-by cell
// sets the run-time shapes built — one per distinct dimension list,
// however many shapes share it — and a publish starts from none.
func TestCellStatsOverHTTP(t *testing.T) {
	s := newDialogueServer(t, Options{})
	h := s.Handler()
	stats := func() DatasetSnapshot {
		t.Helper()
		var snap DatasetSnapshot
		if err := json.Unmarshal(getFrom(t, h, "/v1/housing/stats").Body.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		return snap
	}
	if snap := stats(); snap.CellSets != 0 || snap.CellBytes != 0 {
		t.Fatalf("cells before any shape: %d sets, %d bytes", snap.CellSets, snap.CellBytes)
	}
	for _, text := range []string{
		"which city has the highest rent",                      // [city]
		"the three cities with the highest rent",               // [city] again
		"which city has the lowest rent for Studio apartments", // [city bedrooms]
		"how did rent change since January 2024",               // [month]
		"compare rent between Austin and Houston",              // [city] again
		"compare rent between Studio and Three bedroom",        // [bedrooms]
		// [city] for the qualifying cities, [city bedrooms] again.
		"rent for Two bedroom apartments in cities with population over 500 thousand",
	} {
		resp := decodeAnswer(t, postTo(t, h, "/v1/housing/answer", fmt.Sprintf(`{"text":%q}`, text)))
		if !resp.Answered {
			t.Fatalf("%q went unanswered: %s", text, resp.Text)
		}
	}
	if snap := stats(); snap.CellSets != 4 || snap.CellBytes == 0 {
		t.Fatalf("cells after four distinct lists: %d sets, %d bytes", snap.CellSets, snap.CellBytes)
	}
	a, err := s.registry.Get("housing")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SwapDataFor(context.Background(), "housing", dataset.Housing(6000, 2), a.Store()); err != nil {
		t.Fatal(err)
	}
	if snap := stats(); snap.CellSets != 0 || snap.CellBytes != 0 {
		t.Fatalf("cells after a publish: %d sets, %d bytes", snap.CellSets, snap.CellBytes)
	}
}

// TestDialogueSessionOverHTTP is the fourth shape: follow-up resolution
// through the session field, across stateless HTTP requests.
func TestDialogueSessionOverHTTP(t *testing.T) {
	s := newDialogueServer(t, Options{})
	h := s.Handler()

	ask := func(session, text string) AnswerResponse {
		t.Helper()
		body := fmt.Sprintf(`{"text":%q,"session":%q}`, text, session)
		rec := postTo(t, h, "/v1/housing/answer", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("ask(%q, %q): status %d: %s", session, text, rec.Code, rec.Body.String())
		}
		var resp AnswerResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	seed := ask("alice", "which city has the highest rent")
	if seed.Kind != "extremum" || !seed.Answered || !strings.Contains(seed.Text, "New York") {
		t.Fatalf("seed = %+v", seed)
	}
	fu := ask("alice", "what about Texas")
	if fu.Request != "Follow-up" || fu.Kind != "extremum" || !fu.Answered {
		t.Fatalf("follow-up = %+v, want resolved extremum", fu)
	}
	if !strings.Contains(fu.Text, "Austin") {
		t.Errorf("follow-up text %q, want the Texas extremum (Austin)", fu.Text)
	}

	// A different session shares no context.
	stranger := ask("bob", "what about Texas")
	if stranger.Kind != "followup" || stranger.Answered {
		t.Errorf("cross-session follow-up = %+v, want the apology", stranger)
	}
	// Sessions are scoped per dataset: the same id on another tenant
	// has its own (empty) dialogue.
	rec := postTo(t, h, "/v1/flights/answer", `{"text":"what about Winter","session":"alice"}`)
	var cross AnswerResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cross); err != nil {
		t.Fatal(err)
	}
	if cross.Kind != "followup" || cross.Answered {
		t.Errorf("cross-tenant follow-up = %+v, want the apology", cross)
	}
	// And the same request without a session is stateless.
	rec = postTo(t, h, "/v1/housing/answer", `{"text":"what about Texas"}`)
	var stateless AnswerResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stateless); err != nil {
		t.Fatal(err)
	}
	if stateless.Kind != "followup" || stateless.Answered {
		t.Errorf("sessionless follow-up = %+v, want the apology", stateless)
	}

	// Repeat replays within the session.
	rep := ask("alice", "repeat that")
	if rep.Kind != "repeat" || !rep.Answered || rep.Text != fu.Text {
		t.Errorf("repeat = %+v, want replay of %q", rep, fu.Text)
	}

	if n := s.sessions.Len(); n != 3 {
		t.Errorf("live sessions = %d, want 3 (alice on two tenants, bob)", n)
	}
}

// TestSessionStatelessFallback: a backend without AnswerContext serves
// session requests statelessly rather than failing them.
func TestSessionStatelessFallback(t *testing.T) {
	b := &blockingBackend{store: engine.NewStore(),
		entered: make(chan string, 1), release: make(chan struct{}, 1)}
	b.release <- struct{}{}
	s := NewWithBackend(b, Options{CacheEntries: -1})
	res, err := s.AnswerSession(t.Context(), DefaultDataset, "alice", "hello")
	if err != nil {
		t.Fatal(err)
	}
	<-b.entered
	if res.Text != "done: hello" {
		t.Errorf("fallback answer = %q", res.Text)
	}
	if s.sessions.Len() != 0 {
		t.Errorf("stateless fallback created a session")
	}
}

// TestSessionIDsAreOpaque: a session id is the client's token and is
// keyed byte for byte. Folding it through request-text normalization
// merged ids differing only in case (any base64 scheme) and mapped
// every id without an ASCII letter or digit to one shared dialogue.
func TestSessionIDsAreOpaque(t *testing.T) {
	s := newDialogueServer(t, Options{})
	ctx := t.Context()
	for _, ids := range [][2]string{{"dGVzdA", "DGVZDA"}, {"ключ", "鍵"}} {
		owner, stranger := ids[0], ids[1]
		seed, err := s.AnswerSession(ctx, "housing", owner, "which city has the highest rent")
		if err != nil || !seed.Answered {
			t.Fatalf("%q seed = %+v, %v", owner, seed, err)
		}
		// The stranger's first turn has no context of its own to resolve
		// against: anything but the apology came from the owner's.
		first, err := s.AnswerSession(ctx, "housing", stranger, "what about Texas")
		if err != nil {
			t.Fatal(err)
		}
		if first.Kind != serve.FollowUp || first.Answered {
			t.Errorf("first turn of %q resolved against %q's dialogue: %+v", stranger, owner, first)
		}
		own, err := s.AnswerSession(ctx, "housing", owner, "what about Texas")
		if err != nil || !own.Answered || !strings.Contains(own.Text, "Austin") {
			t.Errorf("%q lost its own context: %+v, %v", owner, own, err)
		}
	}
	if n := s.sessions.Len(); n != 4 {
		t.Errorf("live sessions = %d, want 4 distinct dialogues", n)
	}
}

// TestSessionWaitEndsWithItsClient: nobody shares a dialogue turn's
// result, so — unlike a singleflight leader — a session request stops
// queueing for an admission slot when its client goes away: 499 on the
// wire, and not counted as shed.
func TestSessionWaitEndsWithItsClient(t *testing.T) {
	b := &blockingBackend{store: engine.NewStore(),
		entered: make(chan string, 1), release: make(chan struct{})}
	s := NewWithBackend(b, Options{CacheEntries: -1, MaxInFlight: 1, QueueTimeout: time.Hour})
	held := make(chan error, 1)
	go func() {
		_, err := s.AnswerDataset(context.Background(), DefaultDataset, "occupy the slot")
		held <- err
	}()
	<-b.entered

	gone, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/answer",
		strings.NewReader(`{"text":"hello","session":"alice"}`)).WithContext(gone)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 499 {
		t.Errorf("status = %d, want 499: %s", rec.Code, rec.Body.String())
	}
	if got := s.Stats().Admission.Rejected; got != 0 {
		t.Errorf("admission.rejected = %d, want 0: the client left, the server was not overloaded", got)
	}
	close(b.release)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
}
