// Deployment runs the paper's public deployment as a multi-dataset
// network service: two scenarios — flight cancellations and ACS
// disability statistics — are pre-processed through the streaming
// pipeline and mounted behind one dataset registry, served over HTTP
// through the caching, deduplicating serving tier. The ACS store is
// persisted as a binary snapshot and mounted by mapping it back before
// the server starts, demonstrating the millisecond cold start a
// restarted daemon gets. Zipf-skewed mixed workloads then hammer both
// datasets concurrently while the flights store is re-summarized with
// wider query coverage and hot-swapped in — the run asserts that not a
// single request fails during the per-dataset swap and that the
// untouched dataset keeps its warm cache.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cicero"
	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/httpserve"
	"cicero/internal/load"
	"cicero/internal/pipeline"
	"cicero/internal/relation"
	"cicero/internal/serve"
	"cicero/internal/voice"
)

// preprocess runs the streaming pipeline for one dataset.
func preprocess(ctx context.Context, rel *relation.Relation, targets []string, maxLen int, tmpl engine.Template) *engine.Store {
	cfg := cicero.DefaultConfig(rel)
	cfg.Targets = targets
	cfg.MaxQueryLen = maxLen
	store, stats, err := pipeline.Run(ctx, rel, cfg, pipeline.Options{
		Solver:   string(engine.AlgGreedyOpt),
		Workers:  runtime.GOMAXPROCS(0),
		Template: tmpl,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("pre-processed %s: %d speeches in %v (%v per query)\n",
		rel.Name(), stats.Speeches, stats.Elapsed.Round(time.Millisecond), stats.PerQuery.Round(time.Microsecond))
	return store
}

// replayReport is what one replay observed from the client side.
type replayReport struct {
	Requests, Errors, Cached int
	Elapsed                  time.Duration
}

func (r replayReport) String() string {
	return fmt.Sprintf("%d requests in %v (%.0f req/s), %d errors, %.1f%% cache hits",
		r.Requests, r.Elapsed.Round(time.Millisecond), float64(r.Requests)/r.Elapsed.Seconds(),
		r.Errors, 100*float64(r.Cached)/float64(r.Requests))
}

// replay posts texts to one dataset's answer route from the given
// number of concurrent clients, counting failures and the answers the
// server served from its cache.
func replay(base, ds string, texts []string, workers int) replayReport {
	// One pooled connection per worker, so the replay exercises the
	// serving tier rather than TCP handshakes.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = workers
	client := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()

	url := base + "/v1/" + ds + "/answer"
	var errs, cached atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(texts); i += workers {
				body, _ := json.Marshal(httpserve.AnswerRequest{Text: texts[i]})
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					errs.Add(1)
					continue
				}
				var ans httpserve.AnswerResponse
				if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&ans) != nil {
					errs.Add(1)
				} else if ans.Cached {
					cached.Add(1)
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	return replayReport{
		Requests: len(texts), Errors: int(errs.Load()), Cached: int(cached.Load()),
		Elapsed: time.Since(start),
	}
}

func main() {
	ctx := context.Background()
	flightsRel := dataset.Flights(8000, 1)
	acsRel := dataset.ACS(3000, 1)
	flightsTmpl := engine.Template{TargetPhrase: "cancellation probability", Percent: true}

	// ── Pre-processing: flights eagerly; ACS once, then persisted as a
	// snapshot so it can mount from the mapped artifact.
	flightsStore := preprocess(ctx, flightsRel, []string{"cancelled"}, 1, flightsTmpl)
	acsStore := preprocess(ctx, acsRel, []string{"visual"}, 1,
		engine.Template{TargetPhrase: "visual impairment rate"})

	snapDir, err := os.MkdirTemp("", "cicero-deploy-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(snapDir)
	acsSnap := filepath.Join(snapDir, "acs.snap")
	if err := cicero.SaveSnapshot(acsSnap, acsStore, acsRel); err != nil {
		panic(err)
	}
	info, err := cicero.SnapshotInfo(acsSnap)
	if err != nil {
		panic(err)
	}
	fmt.Printf("acs snapshot: %d bytes, %d speeches — the deployable artifact\n\n", info.Size, info.Speeches)

	// ── The dataset registry: flights from its heap store, ACS
	// cold-started from the mapped snapshot, both before serving begins.
	flightsSamples := voice.DefaultSamples("flights")
	reg := cicero.NewRegistry()
	if err := reg.Add("flights", serve.New(flightsRel, flightsStore,
		cicero.NewVoiceExtractor(flightsRel, flightsSamples, 2), serve.Options{})); err != nil {
		panic(err)
	}
	start := time.Now()
	acsMapped, err := cicero.MapSnapshot(acsSnap, acsRel)
	if err != nil {
		panic(err)
	}
	fmt.Printf("acs cold start from snapshot: %d speeches in %v\n", acsMapped.Len(), time.Since(start).Round(time.Microsecond))
	if err := reg.Add("acs", serve.New(acsRel, acsMapped,
		cicero.NewVoiceExtractor(acsRel, voice.DefaultSamples("acs"), 2), serve.Options{})); err != nil {
		panic(err)
	}

	srv := httpserve.NewMulti(reg, "flights", httpserve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			panic(err)
		}
	}()
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s (POST /v1/{dataset}/answer, GET /v1/datasets)\n\n", base)

	// ── One spoken exchange per dataset; the ACS one is answered from
	// the mapped snapshot.
	for _, q := range []struct{ ds, text string }{
		{"flights", "cancellations in Winter?"},
		{"acs", "visual impairment for Elders"},
	} {
		res, err := srv.AnswerDataset(ctx, q.ds, q.text)
		if err != nil {
			panic(err)
		}
		fmt.Printf("[%s] Q: %q\nA: %s\n\n", q.ds, q.text, res.Text)
	}

	// ── Zipf-skewed mixed workloads against both datasets at once.
	flightsTexts := load.Generate(flightsRel, load.Options{
		Requests: 2500, Distinct: 48, Zipf: 1.3, Seed: 42,
		TargetPhrases: voice.SpokenTargetPhrases(flightsSamples),
	})
	acsTexts := load.Generate(acsRel, load.Options{
		Requests: 1500, Distinct: 32, Zipf: 1.3, Seed: 43,
		TargetPhrases: voice.SpokenTargetPhrases(voice.DefaultSamples("acs")),
	})
	fmt.Printf("flights workload: %v\n", replay(base, "flights", flightsTexts, 12))
	fmt.Printf("acs workload:     %v\n\n", replay(base, "acs", acsTexts, 8))

	// ── Per-dataset hot swap under fire: while both datasets serve
	// load, the flights store is rebuilt with two-predicate coverage
	// (the paper's production setting) and swapped in. The ACS tenant
	// is untouched: its cache must stay warm, and no request on either
	// dataset may fail.
	fmt.Println("rebuilding flights with two-predicate coverage while both datasets serve ...")
	flightsDone := make(chan replayReport, 1)
	acsDone := make(chan replayReport, 1)
	go func() { flightsDone <- replay(base, "flights", flightsTexts, 8) }()
	go func() { acsDone <- replay(base, "acs", acsTexts, 6) }()

	next := preprocess(ctx, flightsRel, []string{"cancelled"}, 2, flightsTmpl)
	old, err := srv.SwapDataFor(ctx, "flights", flightsRel, next)
	if err != nil {
		panic(err)
	}
	flightsDuring, acsDuring := <-flightsDone, <-acsDone

	fmt.Printf("flights during its swap:    %v\n", flightsDuring)
	fmt.Printf("acs during the flights swap: %v\n", acsDuring)
	if flightsDuring.Errors != 0 || acsDuring.Errors != 0 {
		panic(fmt.Sprintf("hot swap dropped requests: flights=%d acs=%d errors",
			flightsDuring.Errors, acsDuring.Errors))
	}
	// Every ACS answer was cached by the earlier run; the flights swap
	// must not have purged a single one of them.
	if acsDuring.Cached != acsDuring.Requests {
		panic(fmt.Sprintf("flights swap cooled the acs cache: %d/%d hits",
			acsDuring.Cached, acsDuring.Requests))
	}
	fmt.Println("zero errors during the per-dataset hot swap, acs cache fully warm ✓")
	fmt.Printf("flights store swapped: %d speeches -> %d speeches\n\n", old.Len(), next.Len())

	// ── The serving tier's own view of the deployment.
	for _, d := range srv.Datasets() {
		fmt.Printf("dataset %-8s speeches=%d default=%v\n", d.Name, d.Speeches, d.Default)
	}
	snap := srv.Stats()
	fmt.Printf("server stats: %d answers (p99 %v), cache hit rate %.1f%%, %d deduped, %d swaps\n",
		snap.Routes["answer"].Requests, snap.Routes["answer"].Latency.P99,
		100*snap.Cache.HitRate, snap.Deduped, snap.Store.Swaps)
	for name, ds := range snap.Datasets {
		fmt.Printf("  %-8s %d answers, %d swaps\n", name, ds.Answers.Requests, ds.Swaps)
	}
}
