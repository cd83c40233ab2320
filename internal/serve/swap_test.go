package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/pipeline"
	"cicero/internal/voice"
)

// swapFixture builds an answerer over a one-predicate flights store plus
// a second, two-predicate store to swap in.
func swapFixture(t testing.TB) (a *Answerer, gen1, gen2 *engine.Store) {
	t.Helper()
	rel := dataset.Flights(2000, 1)
	build := func(maxLen int) *engine.Store {
		cfg := engine.DefaultConfig(rel)
		cfg.Targets = []string{"cancelled"}
		cfg.Dimensions = []string{"season", "airline"}
		cfg.MaxQueryLen = maxLen
		store, _, err := pipeline.Run(context.Background(), rel, cfg, pipeline.Options{
			Template: engine.Template{TargetPhrase: "cancellation probability", Percent: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	gen1, gen2 = build(1), build(2)
	ex := voice.NewExtractor(rel, []voice.Sample{
		{Phrase: "cancellations", Target: "cancelled"},
	}, 2)
	return New(rel, gen1, ex, Options{}), gen1, gen2
}

// TestSwapStoreConcurrent hammers the answer path from many goroutines
// while the live store is swapped back and forth. Run under -race (CI
// does) this proves the swap is a safe publication: every answer serves
// from exactly one frozen store generation, with zero downtime.
func TestSwapStoreConcurrent(t *testing.T) {
	a, gen1, gen2 := swapFixture(t)

	const readers = 8
	const answersPerReader = 200
	var failures atomic.Int64
	var readersWG, swapperWG sync.WaitGroup
	stop := make(chan struct{})
	swapperWG.Add(1)
	go func() {
		defer swapperWG.Done()
		var cur engine.StoreView = gen2
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur = a.SwapStore(cur) // flip between the two generations
		}
	}()
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for i := 0; i < answersPerReader; i++ {
				ans := a.Answer("cancellations in Winter")
				if ans.Kind != Summary || !ans.Answered {
					failures.Add(1)
				}
			}
		}()
	}
	readersWG.Wait()
	close(stop)
	swapperWG.Wait()
	if n := failures.Load(); n > 0 {
		t.Errorf("%d answers failed during store swaps", n)
	}
	live := a.Store()
	if live != engine.StoreView(gen1) && live != engine.StoreView(gen2) {
		t.Error("live store is neither generation")
	}
	if hs, ok := live.(*engine.Store); !ok || !hs.Frozen() {
		t.Error("live store must be a frozen heap store")
	}
}

func TestRebuildSwapsOnSuccess(t *testing.T) {
	a, gen1, gen2 := swapFixture(t)
	old, err := a.Rebuild(context.Background(), func(ctx context.Context) (engine.StoreView, error) {
		return gen2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if old != gen1 {
		t.Error("Rebuild did not return the replaced store")
	}
	if a.Store() != gen2 {
		t.Error("Rebuild did not swap the live store")
	}
	// The new generation answers two-predicate queries exactly, which the
	// old one could only generalize — pick a stored speech to prove the
	// swap took effect end to end.
	var twoPred *engine.StoredSpeech
	for _, sp := range gen2.Speeches() {
		if len(sp.Query.Predicates) == 2 {
			twoPred = sp
			break
		}
	}
	if twoPred == nil {
		t.Fatal("two-predicate store has no two-predicate speech")
	}
	ans := a.AnswerQuery(twoPred.Query)
	if !ans.Answered || !ans.Exact {
		t.Fatalf("rebuilt store did not answer exactly: answered=%v exact=%v", ans.Answered, ans.Exact)
	}
}

func TestRebuildKeepsOldStoreOnError(t *testing.T) {
	a, gen1, _ := swapFixture(t)
	boom := errors.New("boom")
	if _, err := a.Rebuild(context.Background(), func(ctx context.Context) (engine.StoreView, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if a.Store() != gen1 {
		t.Error("failed rebuild must keep the old store live")
	}
	if _, err := a.Rebuild(context.Background(), func(ctx context.Context) (engine.StoreView, error) {
		return nil, nil
	}); err == nil {
		t.Error("nil store from build must error")
	}
	if a.Store() != gen1 {
		t.Error("nil-store rebuild must keep the old store live")
	}
}
