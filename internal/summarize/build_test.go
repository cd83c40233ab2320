package summarize

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"cicero/internal/fact"
	"cicero/internal/relation"
)

// checkBuild holds an evaluator's build to the definitions it implements,
// computed the slow way: a fact's posting list is the view positions its
// scope matches, and a group's bound is the largest per-combination sum
// of current deviations (bit for bit — both sides add in position order).
func checkBuild(t *testing.T, name string, e *Evaluator) {
	t.Helper()
	rel := e.view.Rel
	n := e.NumRows()
	for fi, f := range e.Facts() {
		var want []int32
		for i := 0; i < n; i++ {
			if f.Scope.Matches(rel, e.view.Row(i)) {
				want = append(want, int32(i))
			}
		}
		if got := e.posting(fi); !slices.Equal(got, want) {
			t.Fatalf("%s: fact %d %s: posting has %d rows, scope matches %d", name, fi, f.Scope.Key(), len(got), len(want))
		}
	}
	e.ResetGreedy()
	for gi := range e.Groups() {
		g := &e.Groups()[gi]
		if len(g.Dims) == 0 {
			continue
		}
		sums := map[string]float64{}
		for i := 0; i < n; i++ {
			key := ""
			for _, d := range g.Dims {
				key += strconv.Itoa(int(rel.Dim(d).CodeAt(int(e.view.Row(i))))) + ","
			}
			sums[key] += e.curDev[i]
		}
		want := 0.0
		for _, s := range sums {
			want = math.Max(want, s)
		}
		if got := e.GroupBound(g); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: group %v: bound %v, definition gives %v", name, g.Dims, got, want)
		}
	}
}

// wideRelation has dims dimensions of card distinct values each, drawn
// at random, over n rows.
func wideRelation(rng *rand.Rand, n, dims, card int) *relation.Relation {
	names := make([]string, dims)
	for d := range names {
		names[d] = fmt.Sprintf("d%d", d)
	}
	b := relation.NewBuilder("wide", relation.Schema{Dimensions: names, Targets: []string{"v"}})
	vals := make([]string, dims)
	for i := 0; i < n; i++ {
		for d := range vals {
			vals[d] = strconv.Itoa(rng.Intn(card))
		}
		b.MustAddRow(vals, []float64{rng.NormFloat64() * 10})
	}
	return b.Freeze()
}

// TestBuildMatchesDefinition runs the build's oracle where rows reach
// their slot through the flat table, where they reach it by binary
// search (a key space large against the view), and where the key space
// does not fit an int64 at all — the case the old unchecked strides got
// wrong.
func TestBuildMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var ks relation.KeySpace

	small := randomRelation(rng, 300)
	ks.Reset(small, []int{0, 1})
	if _, ok := ks.Dense(300); !ok {
		t.Fatal("a 12-key space over 300 rows must be dense")
	}
	checkBuild(t, "dense", newEval(t, small, 2))

	sparse := wideRelation(rng, 120, 3, 90)
	ks.Reset(sparse, []int{0, 1})
	if _, ok := ks.Dense(120); ok {
		t.Fatal("an 8,100-key space over 120 rows must not be dense")
	}
	checkBuild(t, "sorted", newEval(t, sparse, 2))

	// Seven columns of some 900 distinct values each: about 2^68 keys.
	// One fact per row in the seven-column group, plus the overall fact.
	huge := wideRelation(rng, 2048, 7, 1024)
	all := []int{0, 1, 2, 3, 4, 5, 6}
	keys := 1.0
	for _, d := range all {
		keys *= float64(huge.Dim(d).Cardinality())
	}
	if keys < math.MaxInt64 {
		t.Fatalf("%g keys fit an int64; the relation is too narrow for this test", keys)
	}
	view := huge.FullView()
	facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: 0})
	for _, g := range view.GroupBy(all, 0) {
		facts = append(facts, fact.Fact{Scope: fact.NewScope(all, g.Key.Codes), Value: g.Mean()})
	}
	checkBuild(t, "overflow", NewEvaluator(view, 0, facts, fact.MeanPrior(view, 0)))
}

// TestBuildArbitraryFactLists: the build does not assume the fact list
// fact.Generate produces. Facts may come in any order, leave value
// combinations uncovered (their rows still need slots for the bound),
// and name codes no row carries.
func TestBuildArbitraryFactLists(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, rel := range []*relation.Relation{randomRelation(rng, 200), wideRelation(rng, 100, 3, 90)} {
		view := rel.FullView()
		facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: 2})
		rng.Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
		facts = facts[:len(facts)/2]
		facts = append(facts,
			fact.Fact{Scope: fact.NewScope([]int{0, 1}, []int32{0, 1 << 20}), Value: 1},
			fact.Fact{Scope: fact.NewScope([]int{2}, []int32{-1}), Value: 2},
		)
		checkBuild(t, rel.Name(), NewEvaluator(view, 0, facts, fact.MeanPrior(view, 0)))
	}
}
