package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/relation"
	"cicero/internal/voice"
)

// shapeTexts ask each run-time shape of the housing tenant, with and
// without predicates.
var shapeTexts = []string{
	"which city has the highest rent",
	"which city has the lowest rent for Studio apartments",
	"the three cities with the highest rent",
	"the two cities with the lowest rent in Texas",
	"how did rent change since January 2024",
	"how did rent change since June 2023 in Austin",
	"rent for Two bedroom apartments in cities with population over 500 thousand",
	"compare rent between Austin and Houston",
	"compare rent between Studio and Three bedroom",
}

// cellsFixture returns two housing relations with different rows, the
// extractor both generations share, and for each relation the answer
// every shape text gets from a fresh answerer over it, asked one text
// at a time, with the number of cell sets that took.
func cellsFixture(t *testing.T) (relA, relB *relation.Relation, ex *voice.Extractor, want map[*relation.Relation]map[string]string, sets map[*relation.Relation]int) {
	t.Helper()
	relA, relB = dataset.Housing(3000, 1), dataset.Housing(3000, 2)
	ex = voice.NewExtractor(relA, voice.DefaultSamples("housing"), 1)
	want = make(map[*relation.Relation]map[string]string)
	sets = make(map[*relation.Relation]int)
	kinds := make(map[Kind]bool)
	for _, rel := range []*relation.Relation{relA, relB} {
		ref := New(rel, engine.NewStore(), ex, Options{})
		want[rel] = make(map[string]string)
		for _, text := range shapeTexts {
			ans := ref.Answer(text)
			if !ans.Answered {
				t.Fatalf("%q went unanswered: %s", text, ans.Text)
			}
			kinds[ans.Kind] = true
			want[rel][text] = said(ans)
		}
		sets[rel], _ = ref.CellStats()
	}
	for _, k := range []Kind{Extremum, TopK, Trend, Constrained, Comparison} {
		if !kinds[k] {
			t.Fatalf("no text is answered as %v", k)
		}
	}
	same := 0
	for _, text := range shapeTexts {
		if want[relA][text] == want[relB][text] {
			same++
		}
	}
	if same == len(shapeTexts) {
		t.Fatal("the two relations answer every text alike; a mix-up would go unseen")
	}
	return relA, relB, ex, want, sets
}

// said is what a check compares of an answer: its kind and speech.
func said(ans Answer) string { return fmt.Sprintf("%v: %s", ans.Kind, ans.Text) }

// TestCellsUnderConcurrentSwap: 32 goroutines ask the five shapes on
// fresh generations while SwapData publishes relations with different
// rows. Each answer must be the one its generation's relation gives,
// and each generation must build each of its cell sets exactly once —
// no more sets than a sequential answerer builds for the same texts.
// That cells equal the relation scan they replaced is the engine's
// oracle (TestCellsMatchScan).
func TestCellsUnderConcurrentSwap(t *testing.T) {
	relA, relB, ex, want, sets := cellsFixture(t)
	store := engine.NewStore()
	a := New(relA, store, ex, Options{})

	const readers, rounds, publishes = 32, 40, 6
	var answered atomic.Int64
	var seen sync.Map // *generation → true
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				text := shapeTexts[(r+i)%len(shapeTexts)]
				g := a.live.Load()
				seen.Store(g, true)
				got := said(a.route(g, voice.Classify(text, ex), text))
				if w := want[g.agg.Relation()][text]; got != w {
					t.Errorf("generation %d, %q:\ngot  %s\nwant %s", g.gen, text, got, w)
				}
				answered.Add(1)
			}
		}()
	}
	// Publish while the readers run, alternating the relations, each
	// publish after another share of the answers.
	for p := 1; p <= publishes; p++ {
		for answered.Load() < int64(p*readers*rounds/(publishes+1)) {
			runtime.Gosched()
		}
		rel := relB
		if p%2 == 0 {
			rel = relA
		}
		a.SwapData(rel, store)
	}
	wg.Wait()

	n := 0
	seen.Range(func(k, _ any) bool {
		g := k.(*generation)
		n++
		// Ask every text once more to fill the sets the race left out;
		// a set built twice would now count one too many.
		for _, text := range shapeTexts {
			a.route(g, voice.Classify(text, ex), text)
		}
		if got, _ := g.agg.CellStats(); got != sets[g.agg.Relation()] {
			t.Errorf("generation %d built %d cell sets, a sequential answerer %d", g.gen, got, sets[g.agg.Relation()])
		}
		return true
	})
	if n < 2 {
		t.Errorf("the readers saw %d generations; the publishes did not overlap them", n)
	}
}
