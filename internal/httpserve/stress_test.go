package httpserve

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

// gateBackend blocks in Answer until released, counting entries; used
// to prove exactly-once execution per singleflight group.
type gateBackend struct {
	store   *engine.Store
	calls   atomic.Int64
	release chan struct{}
}

func (b *gateBackend) Answer(text string) serve.Answer {
	b.calls.Add(1)
	<-b.release
	return serve.Answer{Kind: serve.Summary, Text: "answer for " + text, Answered: true}
}

func (b *gateBackend) Store() engine.StoreView { return b.store }

func (b *gateBackend) StoreGen() (engine.StoreView, uint64) { return b.store, 0 }

// TestSingleflightExactlyOnce releases a burst of identical requests
// that all miss the cache at once: exactly one must reach the backend;
// every caller gets the leader's answer.
func TestSingleflightExactlyOnce(t *testing.T) {
	b := &gateBackend{store: engine.NewStore(), release: make(chan struct{})}
	s := NewWithBackend(b, Options{MaxInFlight: 64})

	const n = 32
	var started, finished sync.WaitGroup
	results := make([]Result, n)
	errs := make([]error, n)
	started.Add(n)
	finished.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer finished.Done()
			started.Done()
			started.Wait() // barrier: everyone dispatches together
			results[i], errs[i] = s.AnswerDataset(context.Background(), DefaultDataset, "the same question")
		}(i)
	}
	started.Wait()
	// Let every goroutine reach the cache miss and the flight join, then
	// release the single leader.
	for deadline := time.Now().Add(2 * time.Second); b.calls.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no leader entered the backend")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // give joiners time to pile onto the flight
	close(b.release)
	finished.Wait()

	if got := b.calls.Load(); got != 1 {
		t.Errorf("backend executed %d times for one singleflight group, want 1", got)
	}
	shared := 0
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, errs[i])
		}
		if results[i].Text != "answer for the same question" {
			t.Errorf("request %d got %q", i, results[i].Text)
		}
		if results[i].Shared {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no request reported joining the flight")
	}
	if got := s.Stats().Deduped; got == 0 {
		t.Error("singleflight_shared metric did not move")
	}
}

// genBackend answers with the index of the store generation it loaded,
// so a served answer names the exact generation it was computed from.
type genBackend struct {
	store atomic.Pointer[engine.Store]
	gen   map[engine.StoreView]int
}

func (b *genBackend) Answer(text string) serve.Answer {
	g := b.gen[b.store.Load()]
	return serve.Answer{
		Kind: serve.Summary, Answered: true,
		Text: fmt.Sprintf("%s#gen%d", CacheKey(text), g),
	}
}

func (b *genBackend) Store() engine.StoreView { return b.store.Load() }

// StoreGen numbers a store by its index: every store is installed once.
func (b *genBackend) StoreGen() (engine.StoreView, uint64) {
	s := b.store.Load()
	return s, uint64(b.gen[s])
}

func (b *genBackend) index(s engine.StoreView) int { return b.gen[s] }

// TestStressCacheDuringSwaps hammers the cached answer path from many
// goroutines with a mix of identical and distinct queries while the
// live store is swapped through fresh generations. Run under -race (CI
// does). Invariant: an answer observed by a request must come from a
// generation that was live at some point during that request — never
// from before it started (a stale post-swap answer).
func TestStressCacheDuringSwaps(t *testing.T) {
	const generations = 24
	stores := make([]*engine.Store, generations)
	gen := make(map[engine.StoreView]int, generations)
	for i := range stores {
		stores[i] = engine.NewStore()
		gen[stores[i]] = i
	}
	b := &genBackend{gen: gen}
	b.store.Store(stores[0])
	s := NewWithBackend(b, Options{MaxInFlight: 64, CacheEntries: 1024})

	queries := []string{
		"the hot query", "the hot query", "the hot query", // identical traffic
		"warm query one", "warm query two", "warm query three",
		"cold %d", // distinct per iteration
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var violations atomic.Int64
	const readers = 8
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(r+i)%len(queries)]
				if strings.Contains(q, "%d") {
					q = fmt.Sprintf(q, i)
				}
				before := b.index(b.Store())
				res, err := s.AnswerDataset(ctx, DefaultDataset, q)
				if err != nil {
					t.Errorf("answer failed: %v", err)
					return
				}
				after := b.index(b.Store())
				var got int
				if _, err := fmt.Sscanf(res.Text[strings.LastIndex(res.Text, "#gen"):], "#gen%d", &got); err != nil {
					t.Errorf("unparseable answer %q", res.Text)
					return
				}
				// The answer's generation must overlap the request
				// window: [before, after] (generations only grow).
				if got < before || got > after {
					violations.Add(1)
					t.Errorf("stale answer: computed on gen%d, request window [gen%d, gen%d] (%q)",
						got, before, after, res.Text)
				}
			}
		}(r)
	}

	// Swap through every generation while the readers run.
	for i := 1; i < generations; i++ {
		time.Sleep(2 * time.Millisecond)
		b.store.Store(stores[i])
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()

	if violations.Load() > 0 {
		t.Fatalf("%d stale post-swap answers", violations.Load())
	}
	snap := s.Stats()
	if snap.Cache.Hits == 0 {
		t.Error("stress run never hit the cache")
	}
	if snap.Cache.Misses == 0 {
		t.Error("stress run never missed the cache")
	}
}

// TestStressRealAnswererSwap drives the production stack — Answerer +
// HTTP tier — with concurrent identical and distinct queries while
// Server.SwapDataFor advances through real store generations whose speech
// templates carry a unique generation marker. Every answer must carry
// the marker of a generation that was live at some point during the
// request — never one from before it started.
func TestStressRealAnswererSwap(t *testing.T) {
	const generations = 6
	rel := flightsRel()
	stores := make([]*engine.Store, generations)
	genOf := make(map[engine.StoreView]int, generations)
	for i := range stores {
		stores[i] = buildFlightsStore(t, rel, 1,
			fmt.Sprintf("cancellation probability (gen%03d)", i))
		genOf[stores[i]] = i
	}
	a := serve.New(rel, stores[0], flightsExtractor(rel), serve.Options{})
	s := New(a, Options{MaxInFlight: 64})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	const readers = 6
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer wg.Done()
			ctx := context.Background()
			texts := []string{"cancellations in Winter", "cancellations in Summer", "cancellations on UA"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				before := genOf[a.Store()]
				res, err := s.AnswerDataset(ctx, DefaultDataset, texts[(r+i)%len(texts)])
				if err != nil {
					t.Errorf("answer failed: %v", err)
					return
				}
				after := genOf[a.Store()]
				live := false
				for g := before; g <= after; g++ {
					live = live || strings.Contains(res.Text, fmt.Sprintf("(gen%03d)", g))
				}
				if !live {
					t.Errorf("stale answer %q: request window [gen%03d, gen%03d]",
						res.Text, before, after)
				}
			}
		}(r)
	}

	for i := 1; i < generations; i++ {
		time.Sleep(3 * time.Millisecond)
		if _, err := s.SwapDataFor(context.Background(), DefaultDataset, rel, stores[i]); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(3 * time.Millisecond)
	close(stop)
	wg.Wait()

	if got := s.Stats().Store.Swaps; got != generations-1 {
		t.Errorf("swaps = %d, want %d", got, generations-1)
	}
	if hits := s.Stats().Cache.Hits; hits == 0 {
		t.Error("stress run never hit the cache")
	}
}
