package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/httpserve"
	"cicero/internal/pipeline"
	"cicero/internal/relation"
	"cicero/internal/serve"
	"cicero/internal/snapshot"
	"cicero/internal/voice"
)

// buildFlightsSnapshot preprocesses a small flights store and writes
// its tagged snapshot artifact, returning everything a replica needs
// to bootstrap from it.
func buildFlightsSnapshot(t testing.TB, fingerprint string) (string, *relation.Relation, *voice.Extractor) {
	t.Helper()
	rel := dataset.Flights(800, 1)
	cfg := engine.DefaultConfig(rel)
	cfg.Targets = []string{"cancelled"}
	cfg.Dimensions = []string{"season", "airline"}
	cfg.MaxQueryLen = 1
	store, _, err := pipeline.Run(context.Background(), rel, cfg, pipeline.Options{
		Template: engine.Template{TargetPhrase: "cancellation probability", Percent: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "flights.snap")
	if err := snapshot.WriteFileTagged(path, store, rel, fingerprint); err != nil {
		t.Fatal(err)
	}
	ex := voice.NewExtractor(rel, voice.DefaultSamples("flights"), cfg.MaxQueryLen)
	return path, rel, ex
}

// TestRouterSurvivesNodeKill is the one check of the whole seam with no
// fakes in it: three real httpserve nodes, each bootstrapped from the
// same snapshot artifact, behind a real Router with its health sweep
// running, and one node's listener torn down in the middle of a paced
// stream of requests. Failover retries must absorb the kill, and the
// health view must catch up with it.
func TestRouterSurvivesNodeKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second paced cluster run")
	}
	path, rel, ex := buildFlightsSnapshot(t, "fp-1")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	backends := map[string]*httptest.Server{}
	var nodes []Node
	for _, id := range []string{"n1", "n2", "n3"} {
		view, err := snapshot.MapFile(path, rel)
		if err != nil {
			t.Fatal(err)
		}
		reg := serve.NewRegistry()
		if err := reg.Add("flights", serve.New(rel, view, ex, serve.Options{})); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(httpserve.NewMulti(reg, "flights", httpserve.Options{}).Handler())
		defer ts.Close()
		backends[id] = ts
		nodes = append(nodes, Node{ID: id, URL: ts.URL})
	}

	r, err := New(nodes, []string{"flights"}, Options{
		Replication:    2,
		RequestTimeout: time.Second,
		HealthInterval: 100 * time.Millisecond,
		Backoff:        BackoffPolicy{Base: 5 * time.Millisecond, Max: 25 * time.Millisecond, Multiplier: 2, Jitter: 0.2},
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.CheckHealth(ctx)
	go r.Run(ctx)
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	// Kill a replica of flights mid-run: the listener drops and every
	// in-flight connection resets, like a SIGKILL'd process.
	victim := r.HealthSnapshot().Datasets["flights"].Nodes[0]
	killed := make(chan struct{})
	go func() {
		time.Sleep(500 * time.Millisecond)
		backends[victim].CloseClientConnections()
		backends[victim].Close()
		close(killed)
	}()

	texts := []string{
		"what is the cancellation probability for winter",
		"cancellations in summer",
		"what is the cancellation probability for AA",
		"which airline has the most cancellations",
		"compare cancellations between winter and summer",
		"what is the average cancellation probability",
	}
	const requests, ratePerSec = 600, 400 // 1.5 s: the kill lands a third of the way in
	url := front.URL + "/v1/flights/answer"
	errs, tailErrors := 0, 0
	fail := func(i int) {
		errs++
		if i >= requests*3/4 {
			tailErrors++
		}
	}
	perNode := map[string]int{}
	start := time.Now()
	for i := 0; i < requests; i++ {
		// Pace against the ideal schedule, not the previous send, so a
		// slow stretch around the kill does not stretch the run.
		time.Sleep(time.Until(start.Add(time.Duration(i) * time.Second / ratePerSec)))
		body, _ := json.Marshal(httpserve.AnswerRequest{Text: texts[i%len(texts)]})
		resp, err := front.Client().Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			fail(i)
			continue
		}
		var ans httpserve.AnswerResponse
		if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&ans) != nil {
			fail(i)
		} else {
			perNode[resp.Header.Get("X-Cicero-Node")]++
		}
		resp.Body.Close()
	}
	<-killed

	// Failover retries should absorb the kill; any client-visible errors
	// must at least have stopped by the tail of the run.
	t.Logf("%d requests in %v, %d errors, per node %v", requests, time.Since(start).Round(time.Millisecond), errs, perNode)
	if tailErrors != 0 {
		t.Fatalf("%d errors in the final quarter — failover never settled", tailErrors)
	}
	surviving := 0
	for node, count := range perNode {
		if node != victim && count > 0 {
			surviving++
		}
	}
	if surviving == 0 {
		t.Fatalf("no surviving node served traffic: %v", perNode)
	}

	// The router's health view must reflect the dead node once the
	// sweep catches up.
	deadlineAt := time.Now().Add(3 * time.Second)
	for {
		dead := false
		for _, n := range r.HealthSnapshot().Nodes {
			if n.ID == victim && !n.Healthy {
				dead = true
			}
		}
		if dead {
			break
		}
		if time.Now().After(deadlineAt) {
			t.Fatalf("router healthz never marked %s unhealthy", victim)
		}
		time.Sleep(25 * time.Millisecond)
	}
}
