package httpserve

// Regression tests for the cache-fill / swap-generation race: a fill
// racing two swaps must never tag an answer with a store generation it
// was not computed against. The deterministic test reproduces the exact
// ABA interleaving; the loop test publishes deltas in a tight loop (the
// incremental-ingestion pattern: SwapDataFor alternating between two
// store generations, re-installing the same view objects) and asserts
// no stale post-swap answers.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cicero/internal/engine"
	"cicero/internal/serve"
)

// abaBackend is a Backend with an explicit swap generation whose Answer
// can be parked at the exact racy point: after the server captured the
// (store, generation) pair but before the kernel loads the live store.
type abaBackend struct {
	mu    sync.Mutex
	store engine.StoreView
	gen   uint64
	text  map[engine.StoreView]string

	// gate, while non-nil, parks the next Answer call at entry; entered
	// signals that the call is parked.
	gate    chan struct{}
	entered chan struct{}
	// exitGate, while non-nil, parks the same call once more after it
	// computed its answer; computed signals that it is parked there.
	exitGate chan struct{}
	computed chan struct{}
}

func (b *abaBackend) Answer(string) serve.Answer {
	b.mu.Lock()
	gate, entered, exitGate, computed := b.gate, b.entered, b.exitGate, b.computed
	b.gate, b.entered, b.exitGate, b.computed = nil, nil, nil, nil
	b.mu.Unlock()
	if gate != nil {
		close(entered)
		<-gate
	}
	b.mu.Lock()
	text := b.text[b.store]
	b.mu.Unlock()
	if exitGate != nil {
		close(computed)
		<-exitGate
	}
	return serve.Answer{Kind: serve.Summary, Text: text, Answered: true}
}

func (b *abaBackend) Store() engine.StoreView {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.store
}

func (b *abaBackend) StoreGen() (engine.StoreView, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.store, b.gen
}

func (b *abaBackend) swap(s engine.StoreView) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.store = s
	b.gen++
}

// TestCacheFillRacingSwapsNotTaggedWrongGeneration pins the ordering the
// delta publish path depends on. Interleaving: a fill captures store A
// (generation 1) and parks before the kernel; the store is swapped to B
// (generation 2); the kernel resumes and computes against B; the store
// is swapped back to the same view object A (generation 3, a rollback).
// The fill must not insert the B-computed answer under A's identity —
// with A live again, such an entry would serve B's answer as current.
func TestCacheFillRacingSwapsNotTaggedWrongGeneration(t *testing.T) {
	storeA, storeB := engine.NewStore(), engine.NewStore()
	b := &abaBackend{
		store: storeA,
		text:  map[engine.StoreView]string{storeA: "computed on A", storeB: "computed on B"},
		gate:  make(chan struct{}),
	}
	entered := make(chan struct{})
	b.entered = entered
	gate := b.gate
	s := NewWithBackend(b, Options{MaxInFlight: 4})

	done := make(chan Result, 1)
	go func() {
		res, err := s.AnswerDataset(context.Background(), DefaultDataset, "the racy question")
		if err != nil {
			t.Errorf("racing answer failed: %v", err)
		}
		done <- res
	}()

	<-entered      // fill captured (A, gen 1), kernel parked
	b.swap(storeB) // delta publish #1
	close(gate)    // kernel resumes, computes against B
	first := <-done
	if first.Text != "computed on B" {
		t.Fatalf("racing answer = %q, want the B-computed text", first.Text)
	}
	b.swap(storeA) // delta publish #2: rollback re-installs the same view

	// A is live again. The racy fill must not have left a cache entry
	// under A's identity carrying B's answer.
	res, err := s.AnswerDataset(context.Background(), DefaultDataset, "the racy question")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatalf("post-rollback answer served from cache (%q): the racing fill was tagged with a generation it was not computed against", res.Text)
	}
	if res.Text != "computed on A" {
		t.Fatalf("post-rollback answer = %q, want %q", res.Text, "computed on A")
	}
}

// TestFlightNotJoinedAcrossReinstall is the singleflight side of the same
// ABA: a flight that captured store A, computed against B and is still
// in the air when A is re-installed must not be joined by a request of
// the new generation — it would hand B's answer out as current. The
// flight key carries the generation number, so the new request leads a
// flight of its own.
func TestFlightNotJoinedAcrossReinstall(t *testing.T) {
	storeA, storeB := engine.NewStore(), engine.NewStore()
	b := &abaBackend{
		store:    storeA,
		text:     map[engine.StoreView]string{storeA: "computed on A", storeB: "computed on B"},
		gate:     make(chan struct{}),
		entered:  make(chan struct{}),
		exitGate: make(chan struct{}),
		computed: make(chan struct{}),
	}
	gate, entered, exitGate, computed := b.gate, b.entered, b.exitGate, b.computed
	s := NewWithBackend(b, Options{MaxInFlight: 4})

	old := make(chan Result, 1)
	go func() {
		res, _ := s.AnswerDataset(context.Background(), DefaultDataset, "the racy question")
		old <- res
	}()
	<-entered      // the old flight captured (A, gen 0), kernel parked
	b.swap(storeB) // publish #1
	close(gate)
	<-computed     // it computed against B and is parked before returning
	b.swap(storeA) // publish #2 re-installs A: same store, new number

	fresh := make(chan Result, 1)
	go func() {
		res, err := s.AnswerDataset(context.Background(), DefaultDataset, "the racy question")
		if err != nil {
			t.Errorf("fresh answer failed: %v", err)
		}
		fresh <- res
	}()
	select {
	case res := <-fresh:
		if res.Shared || res.Text != "computed on A" {
			t.Errorf("fresh answer = %q (shared=%v), want one computed on A by its own flight", res.Text, res.Shared)
		}
	case <-time.After(2 * time.Second):
		t.Error("the new generation's request joined the superseded generation's flight")
	}
	close(exitGate)
	if res := <-old; res.Text != "computed on B" {
		t.Errorf("old flight answer = %q, want the B-computed text", res.Text)
	}
}

// TestTightDeltaPublishLoopNoStaleAnswers publishes store generations in
// a tight loop through the delta seam (SwapDataFor, alternating between
// two store objects so every second publish re-installs a previous
// view) while reader goroutines hammer the cached path. After each
// publish the publisher itself queries the dataset: the answer must
// carry the phrase of the generation just published — a different
// phrase is a stale post-swap answer.
func TestTightDeltaPublishLoopNoStaleAnswers(t *testing.T) {
	rel := flightsRel()
	phrases := []string{"cancellation odds (even)", "cancellation odds (odd)"}
	stores := []*engine.Store{
		buildFlightsStore(t, rel, 1, phrases[0]),
		buildFlightsStore(t, rel, 1, phrases[1]),
	}
	a := serve.New(rel, stores[0], flightsExtractor(rel), serve.Options{})
	reg := serve.NewRegistry()
	if err := reg.Add("flights", a); err != nil {
		t.Fatal(err)
	}
	s := NewMulti(reg, "flights", Options{MaxInFlight: 64, CacheEntries: 256})
	ctx := context.Background()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var hammered atomic.Int64
	texts := []string{"cancellations in Winter", "cancellations in Summer", "cancellations on UA"}
	const readers = 4
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.AnswerDataset(ctx, "flights", texts[(r+i)%len(texts)]); err != nil {
					t.Errorf("hammer answer failed: %v", err)
					return
				}
				hammered.Add(1)
			}
		}(r)
	}

	// Ensure the reader traffic genuinely overlaps the publish loop
	// before starting it.
	for hammered.Load() == 0 {
	}

	const publishes = 60
	for i := 1; i <= publishes; i++ {
		cur := i % 2
		if _, err := s.SwapDataFor(ctx, "flights", rel, stores[cur]); err != nil {
			t.Fatal(err)
		}
		// The publisher is the only swapper, so the store it just
		// installed is still live for its own sequential query; any
		// other phrase can only come from a mis-tagged cache entry.
		res, err := s.AnswerDataset(ctx, "flights", texts[i%len(texts)])
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Text, phrases[cur]) {
			t.Fatalf("publish %d: stale post-swap answer %q, want phrase %q (cached=%v)",
				i, res.Text, phrases[cur], res.Cached)
		}
	}
	close(stop)
	wg.Wait()

	if got := s.Stats().Store.Swaps; got != publishes {
		t.Errorf("swaps = %d, want %d", got, publishes)
	}
	if fmt.Sprint(s.Stats().Cache.Hits) == "0" {
		t.Log("note: publish loop saw no cache hits (purge kept pace with fills)")
	}
}
