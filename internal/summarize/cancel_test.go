package summarize

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"cicero/internal/fact"
)

// bigEval builds a problem instance large enough that neither algorithm
// finishes instantly, so cancellation has something to interrupt.
func bigEval(t testing.TB, rows, maxDims int) *Evaluator {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	rel := randomRelation(rng, rows)
	view := rel.FullView()
	facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: maxDims})
	prior := fact.MeanPrior(view, 0)
	return NewEvaluator(view, 0, facts, prior)
}

func TestExactCtxCancelledBeforeStart(t *testing.T) {
	e := bigEval(t, 200, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	got := ExactCtx(ctx, e, Options{MaxFacts: 4})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled exact took %v", elapsed)
	}
	if !got.Stats.Cancelled {
		t.Error("pre-cancelled ctx must set Stats.Cancelled")
	}
	if got.Utility < 0 {
		t.Error("cancelled run must return a non-negative utility")
	}
}

func TestExactCtxDeadlineActsAsTimeout(t *testing.T) {
	e := bigEval(t, 300, 3)
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	got := ExactCtx(ctx, e, Options{MaxFacts: 4})
	if !got.Stats.TimedOut && !got.Stats.Cancelled {
		t.Skip("machine too fast for deadline test; exact finished")
	}
	// A ctx deadline is the documented replacement for opts.Timeout: it
	// must surface as a timeout (best-so-far kept, TimedOut counted),
	// not as a cancellation.
	if got.Stats.Cancelled {
		t.Error("expired ctx deadline must set TimedOut, not Cancelled")
	}
	if got.Utility < 0 {
		t.Error("deadline-bounded run must return a non-negative utility")
	}
}

func TestExactCtxPromptReturn(t *testing.T) {
	// A large instance with m=5 explores an enormous search tree; a
	// mid-flight cancel must return within the ctx-poll granularity, not
	// after the full enumeration.
	e := bigEval(t, 400, 3)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Summary, 1)
	go func() { done <- ExactCtx(ctx, e, Options{MaxFacts: 5}) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case got := <-done:
		if !got.Stats.Cancelled && !got.Stats.TimedOut {
			// The search may legitimately finish before the cancel lands.
			t.Log("exact finished before cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ExactCtx did not return promptly after cancel")
	}
}

func TestGreedyCtxCancelledBeforeStart(t *testing.T) {
	e := bigEval(t, 200, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got := GreedyCtx(ctx, e, Options{MaxFacts: 3})
	if !got.Stats.Cancelled {
		t.Error("pre-cancelled ctx must set Stats.Cancelled")
	}
	if len(got.Facts) != 0 {
		t.Errorf("pre-cancelled greedy committed %d facts", len(got.Facts))
	}
	if got.Utility != 0 {
		t.Errorf("pre-cancelled greedy reports utility %v", got.Utility)
	}
}

func TestGreedyCtxMatchesGreedyWhenUncancelled(t *testing.T) {
	e := bigEval(t, 120, 2)
	plain := Greedy(e, Options{MaxFacts: 3})
	withCtx := GreedyCtx(context.Background(), e, Options{MaxFacts: 3})
	if plain.Utility != withCtx.Utility {
		t.Fatalf("utility differs: %v vs %v", plain.Utility, withCtx.Utility)
	}
	if len(plain.FactIdx) != len(withCtx.FactIdx) {
		t.Fatalf("fact counts differ: %d vs %d", len(plain.FactIdx), len(withCtx.FactIdx))
	}
	for i := range plain.FactIdx {
		if plain.FactIdx[i] != withCtx.FactIdx[i] {
			t.Fatalf("fact %d differs: %d vs %d", i, plain.FactIdx[i], withCtx.FactIdx[i])
		}
	}
}
