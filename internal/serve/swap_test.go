package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/pipeline"
	"cicero/internal/relation"
	"cicero/internal/voice"
)

// swapFixture builds an answerer over a one-predicate flights store plus
// a second, two-predicate store to publish.
func swapFixture(t testing.TB) (a *Answerer, rel *relation.Relation, gen1, gen2 *engine.Store) {
	t.Helper()
	rel = dataset.Flights(2000, 1)
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
	return New(rel, gen1, ex, Options{}), rel, gen1, gen2
}

// TestSwapDataConcurrent hammers the answer path from many goroutines
// while the live store is swapped back and forth. Run under -race (CI
// does) this proves the publish is a safe publication: every answer
// serves from exactly one frozen store generation, with zero downtime.
func TestSwapDataConcurrent(t *testing.T) {
	a, rel, gen1, gen2 := swapFixture(t)

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
			cur = a.SwapData(rel, cur) // flip between the two generations
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

// TestSwapDataPublishesOneGeneration pins the sequential contract of
// the one publish primitive: the replaced store comes back, the new
// pair is live at the next number, and answers come from it end to end.
func TestSwapDataPublishesOneGeneration(t *testing.T) {
	a, rel, gen1, gen2 := swapFixture(t)
	if old := a.SwapData(rel, gen2); old != gen1 {
		t.Error("SwapData did not return the replaced store")
	}
	if store, gen := a.StoreGen(); store != gen2 || gen != 1 {
		t.Errorf("live pair = (%p, %d), want (gen2, 1)", store, gen)
	}
	// The new generation answers two-predicate queries exactly, which the
	// old one could only generalize — pick a stored speech to prove the
	// publish took effect end to end.
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
	ans := answerSummary(a.live.Load(), twoPred.Query)
	if !ans.Answered || !ans.Exact {
		t.Fatalf("published store did not answer exactly: answered=%v exact=%v", ans.Answered, ans.Exact)
	}
	// Re-installing a previously live store is a publish of its own.
	a.SwapData(rel, gen1)
	if store, gen := a.StoreGen(); store != gen1 || gen != 2 {
		t.Errorf("rollback pair = (%p, %d), want (gen1, 2)", store, gen)
	}
}

// TestSwapDataNoTornPair is the oracle the single pointer exists for: a
// publisher alternates between two (relation, store) pairs while
// readers load the live generation. Every load must see two halves
// that were published together, and the number never decreases between
// two loads of one reader (run under -race -count=10).
func TestSwapDataNoTornPair(t *testing.T) {
	relA, relB := dataset.Flights(200, 1), dataset.Flights(300, 2)
	storeOf := func(phrase string) *engine.Store {
		s := engine.NewStore()
		s.Add(&engine.StoredSpeech{Query: engine.Query{Target: "cancelled"}, Text: phrase})
		return s
	}
	storeA, storeB := storeOf("speech of pair A"), storeOf("speech of pair B")
	ex := voice.NewExtractor(relA, []voice.Sample{{Phrase: "cancellations", Target: "cancelled"}}, 1)
	a := New(relA, storeA, ex, Options{})

	stop := make(chan struct{})
	var publisher sync.WaitGroup
	publisher.Add(1)
	go func() {
		defer publisher.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				a.SwapData(relB, storeB)
			} else {
				a.SwapData(relA, storeA)
			}
		}
	}()

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last uint64
			for i := 0; i < 2000; i++ {
				g := a.live.Load()
				pairA := g.agg.Relation() == relA && g.store == engine.StoreView(storeA)
				pairB := g.agg.Relation() == relB && g.store == engine.StoreView(storeB)
				if !pairA && !pairB {
					t.Errorf("torn generation %d: %d rows with speech %q",
						g.gen, g.agg.Relation().NumRows(), g.store.Speeches()[0].Text)
					return
				}
				// Pair A is published under even numbers, pair B under odd.
				if pairA != (g.gen%2 == 0) {
					t.Errorf("generation %d carries the other publish's pair", g.gen)
					return
				}
				if g.gen < last {
					t.Errorf("generation went backwards: %d after %d", g.gen, last)
					return
				}
				last = g.gen
			}
		}()
	}
	readers.Wait()
	close(stop)
	publisher.Wait()
}
