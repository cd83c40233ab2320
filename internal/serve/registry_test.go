package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/pipeline"
	"cicero/internal/voice"
)

// newSmallAnswerer builds a tiny ACS answerer for registry tests.
func newSmallAnswerer(t testing.TB, seed int64) *Answerer {
	t.Helper()
	rel := dataset.ACS(300, seed)
	cfg := engine.DefaultConfig(rel)
	cfg.Targets = []string{"hearing"}
	cfg.MaxQueryLen = 1
	store, _, err := pipeline.Run(context.Background(), rel, cfg, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ex := voice.NewExtractor(rel, []voice.Sample{
		{Phrase: "hearing impairment", Target: "hearing"},
	}, cfg.MaxQueryLen)
	return New(rel, store, ex, Options{})
}

func TestRegistryRegisterAndGet(t *testing.T) {
	reg := NewRegistry()
	a := newSmallAnswerer(t, 1)
	if err := reg.Add("acs", a); err != nil {
		t.Fatal(err)
	}

	loads := 0
	err := reg.Register("lazy", func(context.Context) (*Answerer, error) {
		loads++
		return newSmallAnswerer(t, 2), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if got := reg.Names(); len(got) != 2 || got[0] != "acs" || got[1] != "lazy" {
		t.Fatalf("Names() = %v", got)
	}
	// Eager tenant: loaded immediately, Get returns the same pointer.
	if _, ok := reg.Peek("acs"); !ok {
		t.Fatal("eager tenant not loaded")
	}
	got, err := reg.Get(context.Background(), "acs")
	if err != nil || got != a {
		t.Fatalf("Get(acs) = %p, %v; want %p", got, err, a)
	}

	// Lazy tenant: not loaded until the first Get, then cached.
	if _, ok := reg.Peek("lazy"); ok {
		t.Fatal("lazy tenant loaded before first Get")
	}
	if _, err := reg.Get(context.Background(), "lazy"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get(context.Background(), "lazy"); err != nil {
		t.Fatal(err)
	}
	if loads != 1 {
		t.Fatalf("loader ran %d times, want 1", loads)
	}

	// Unknown names.
	if _, err := reg.Get(context.Background(), "nope"); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("Get(nope) err = %v, want ErrUnknownDataset", err)
	}
	if _, ok := reg.Peek("nope"); ok {
		t.Fatal("Peek(nope) succeeded")
	}
}

func TestRegistryRegistrationErrors(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("", func(context.Context) (*Answerer, error) { return nil, nil }); err == nil {
		t.Error("empty name accepted")
	}
	if err := reg.Register("x", nil); err == nil {
		t.Error("nil loader accepted")
	}
	if err := reg.Add("y", nil); err == nil {
		t.Error("nil answerer accepted")
	}
	ok := func(context.Context) (*Answerer, error) { return nil, nil }
	if err := reg.Register("dup", ok); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("dup", ok); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestRegistryLoadFailureRetries(t *testing.T) {
	reg := NewRegistry()
	var calls atomic.Int32
	a := newSmallAnswerer(t, 1)
	if err := reg.Register("flaky", func(context.Context) (*Answerer, error) {
		if calls.Add(1) == 1 {
			return nil, fmt.Errorf("disk on fire")
		}
		return a, nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get(context.Background(), "flaky"); err == nil {
		t.Fatal("first Get should fail")
	}
	if _, ok := reg.Peek("flaky"); ok {
		t.Fatal("failed load left tenant loaded")
	}
	got, err := reg.Get(context.Background(), "flaky")
	if err != nil || got != a {
		t.Fatalf("retry Get = %v, %v", got, err)
	}
}

func TestRegistryPerDatasetSwap(t *testing.T) {
	reg := NewRegistry()
	aACS := newSmallAnswerer(t, 1)
	aOther := newSmallAnswerer(t, 2)
	if err := reg.Add("acs", aACS); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("other", aOther); err != nil {
		t.Fatal(err)
	}
	otherStore := aOther.Store()
	rel := aACS.live.Load().agg.Relation()

	next := engine.NewStore()
	next.Add(&engine.StoredSpeech{
		Query: engine.Query{Target: "hearing"},
		Text:  "swapped-in speech",
	})
	old, err := reg.SwapData(context.Background(), "acs", rel, next)
	if err != nil {
		t.Fatal(err)
	}
	if old == nil || aACS.Store().Len() != 1 {
		t.Fatalf("swap did not take: old=%v len=%d", old, aACS.Store().Len())
	}
	if aOther.Store() != otherStore {
		t.Fatal("swapping acs disturbed the other dataset's store")
	}
	if reg.Generation("acs") != 1 || reg.Generation("other") != 0 {
		t.Fatalf("generations: acs=%d other=%d", reg.Generation("acs"), reg.Generation("other"))
	}

	// A publish made on the Answerer itself is the same publish.
	aACS.SwapData(rel, next)
	if reg.Generation("acs") != 2 {
		t.Fatalf("Generation(acs) = %d after an Answerer-level publish, want 2", reg.Generation("acs"))
	}

	if _, err := reg.SwapData(context.Background(), "nope", rel, next); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("SwapData(nope) err = %v", err)
	}
	if _, err := reg.SwapData(context.Background(), "acs", rel, nil); err == nil {
		t.Fatal("SwapData with a nil store reported success")
	}
	if reg.Generation("acs") != 2 || reg.Generation("nope") != 0 {
		t.Fatalf("failed publishes moved a number: acs=%d nope=%d", reg.Generation("acs"), reg.Generation("nope"))
	}
}

// TestRegistryConcurrentGet hammers a lazy tenant from many goroutines:
// the loader must run exactly once and every caller must see the same
// Answerer (run with -race).
func TestRegistryConcurrentGet(t *testing.T) {
	reg := NewRegistry()
	var loads atomic.Int32
	a := newSmallAnswerer(t, 1)
	if err := reg.Register("acs", func(context.Context) (*Answerer, error) {
		loads.Add(1)
		time.Sleep(5 * time.Millisecond) // widen the race window
		return a, nil
	}); err != nil {
		t.Fatal(err)
	}

	const workers = 32
	got := make([]*Answerer, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ans, err := reg.Get(context.Background(), "acs")
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = ans
		}(i)
	}
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("loader ran %d times under concurrency, want 1", n)
	}
	for i := range got {
		if got[i] != a {
			t.Fatalf("caller %d saw a different answerer", i)
		}
	}
}

// TestRegistryGetWaiterHonorsContext proves a Get waiting behind a
// slow load returns when its own context expires instead of blocking
// for the whole load.
func TestRegistryGetWaiterHonorsContext(t *testing.T) {
	reg := NewRegistry()
	release := make(chan struct{})
	a := newSmallAnswerer(t, 1)
	if err := reg.Register("slow", func(context.Context) (*Answerer, error) {
		<-release
		return a, nil
	}); err != nil {
		t.Fatal(err)
	}

	leaderDone := make(chan error, 1)
	go func() {
		_, err := reg.Get(context.Background(), "slow")
		leaderDone <- err
	}()
	// Wait until the leader holds the in-flight load.
	for i := 0; ; i++ {
		reg.mu.RLock()
		tn := reg.tenants["slow"]
		reg.mu.RUnlock()
		tn.mu.Lock()
		inflight := tn.inflight != nil
		tn.mu.Unlock()
		if inflight {
			break
		}
		if i > 1000 {
			t.Fatal("leader never started loading")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := reg.Get(ctx, "slow"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter err = %v, want DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("waiter blocked %v past its deadline", waited)
	}

	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader failed: %v", err)
	}
	if got, err := reg.Get(context.Background(), "slow"); err != nil || got != a {
		t.Fatalf("post-load Get = %v, %v", got, err)
	}
}

// TestRegistryLoaderPanicDoesNotWedge proves a panicking loader
// releases the in-flight marker: the triggering Get reports the panic
// as an error, waiters are unblocked, and the next Get starts a fresh
// attempt that can succeed.
func TestRegistryLoaderPanicDoesNotWedge(t *testing.T) {
	reg := NewRegistry()
	var calls atomic.Int32
	a := newSmallAnswerer(t, 1)
	if err := reg.Register("acs", func(context.Context) (*Answerer, error) {
		if calls.Add(1) == 1 {
			panic("loader exploded")
		}
		return a, nil
	}); err != nil {
		t.Fatal(err)
	}

	if _, err := reg.Get(context.Background(), "acs"); err == nil ||
		!strings.Contains(err.Error(), "loader panicked") {
		t.Fatalf("Get during loader panic: err = %v, want loader-panicked error", err)
	}

	// The tenant must not be wedged: a bounded retry succeeds.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	got, err := reg.Get(ctx, "acs")
	if err != nil || got != a {
		t.Fatalf("Get after loader panic = %v, %v; want recovery", got, err)
	}
}

// TestRegistryLoadSurvivesTriggeringCallerCancel proves the shared
// load is detached from the caller that started it: the triggering Get
// returns at its own deadline, the load completes in the background,
// and subsequent Gets are served from it — no livelock of repeated
// aborted loads under short-deadline traffic.
func TestRegistryLoadSurvivesTriggeringCallerCancel(t *testing.T) {
	reg := NewRegistry()
	release := make(chan struct{})
	var loads atomic.Int32
	a := newSmallAnswerer(t, 1)
	if err := reg.Register("slow", func(ctx context.Context) (*Answerer, error) {
		loads.Add(1)
		select {
		case <-release:
			return a, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := reg.Get(ctx, "slow"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("triggering Get err = %v, want DeadlineExceeded", err)
	}
	// The load must still be in flight despite the trigger's expiry.
	close(release)
	got, err := reg.Get(context.Background(), "slow")
	if err != nil || got != a {
		t.Fatalf("Get after detached load = %v, %v", got, err)
	}
	if n := loads.Load(); n != 1 {
		t.Fatalf("loader ran %d times, want 1 (the detached load served everyone)", n)
	}
}
