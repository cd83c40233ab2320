package summarize

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/fact"
	"cicero/internal/relation"
)

// leafBoundGap checks, on random search paths S of zero to three facts
// built with push, the bound the exact search settles a leaf by: for
// every fact f, peek(S, f) ≤ U(S) + U({f}) + pruneEps·PriorError in
// floating point, evaluated as the search evaluates it. It returns the
// largest observed peek(S, f) − U(S) − U({f}) as a fraction of that
// slack (0 when the slack is 0, since every utility then is).
func leafBoundGap(t *testing.T, name string, rng *rand.Rand, e *Evaluator, paths int) float64 {
	t.Helper()
	utils := e.singleFactUtilities()
	slack := pruneEps * e.PriorError()
	nf := e.NumFacts()
	worst := 0.0
	var p pathState
	for ; paths > 0; paths-- {
		p.begin(e)
		for depth := rng.Intn(4); depth > 0; depth-- {
			p.push(e, int32(rng.Intn(nf)))
		}
		for fi := int32(0); fi < int32(nf); fi++ {
			u, _ := p.peek(e, fi)
			if u > p.u+utils[fi]+slack {
				t.Fatalf("%s: fact %d on a %d-row path: peek %v above U(S) %v + U({f}) %v + slack %v",
					name, fi, len(p.undoRow), u, p.u, utils[fi], slack)
			}
			if slack > 0 {
				worst = max(worst, (u-p.u-utils[fi])/slack)
			}
		}
	}
	return worst
}

// tailKinds counts the settled tails of last-slot loops — the run from
// a loop's first settled leaf to its end, which the search counts in one
// step — by how they end and what they hold.
type tailKinds struct {
	rule2     int64 // ended by rule 2's cut
	orderEnd  int64 // ran to the end of the order
	dominated int64 // held a dominated skip
}

// replayLeafSettling replays exact's enumeration of e — its order, its
// rule 2 and dominance cuts, its bound timeline and tie-break — scoring
// every leaf with peek, as the search did before settling leaves, one
// leaf at a time. At each leaf the search settles, the leaf's score must
// lie strictly below the bestU it was settled against, and once a
// last-slot loop has settled a leaf, every later leaf of that loop must
// settle too, which is what lets the search count the rest of the loop
// at once. The replay's speech and counters must then be the search's,
// bit for bit, which shows it made the search's decisions and counted
// each tail as its leaves and skips one by one. It returns the number of
// leaves settled and adds the tails it met to tails.
func replayLeafSettling(t *testing.T, name string, e *Evaluator, opts Options, pathBound bool, tails *tailKinds) int64 {
	t.Helper()
	opts = opts.withDefaults()
	joined := e.JoinedRows
	utils := e.singleFactUtilities()
	order := e.orderedFactsByUtility(utils)
	m := min(opts.MaxFacts, len(order))
	slack := pruneEps * e.PriorError()
	dom := e.dominanceReps()
	domCnt := make([]int, e.NumFacts())
	b, bestU := opts.LowerBound, -1.0
	var best, chosen []int32
	var got RunStats
	got.FactsEvaluated = len(utils)
	var p pathState
	p.begin(e)
	score := func(u float64, post int64, speech []int32) {
		e.JoinedRows += post
		got.SpeechesEvaluated++
		b = max(b, u)
		if u > bestU {
			bestU, best = u, slices.Clone(speech)
		}
	}
	var dfs func(pos int, sumU float64)
	dfs = func(pos int, sumU float64) {
		if len(chosen) == m {
			score(p.u, p.post, chosen)
			return
		}
		extended := false
		remaining := m - len(chosen)
		base := sumU
		if pathBound {
			base = min(sumU, p.u+slack)
		}
		inTail, tailDominated, cut := false, false, false
		for i := pos; i < len(order); i++ {
			fi, u := order[i], utils[order[i]]
			if base+float64(remaining)*u < b-pruneEps {
				cut = true
				break
			}
			if domCnt[dom[fi]] > 0 {
				got.DominatedSkipped++
				tailDominated = tailDominated || inTail
				continue
			}
			got.NodesExpanded++
			extended = true
			if remaining == 1 {
				speechU, n := p.peek(e, fi)
				settles := p.u+u+slack < bestU
				if inTail && !settles {
					t.Fatalf("%s: leaf %v+%d follows a settled leaf but does not settle at bestU %v", name, chosen, fi, bestU)
				}
				if settles {
					inTail = true
					got.LeavesSettled++
					if !(speechU < bestU) {
						t.Fatalf("%s: leaf %v+%d settled at bestU %v scores %v", name, chosen, fi, bestU, speechU)
					}
				}
				score(speechU, p.post+int64(n), append(chosen, fi))
				continue
			}
			chosen = append(chosen, fi)
			domCnt[dom[fi]]++
			savedU, savedPost := p.u, p.post
			mark := p.push(e, fi)
			dfs(i+1, sumU+u)
			p.pop(mark, savedU, savedPost)
			domCnt[dom[fi]]--
			chosen = chosen[:len(chosen)-1]
		}
		if inTail {
			if cut {
				tails.rule2++
			} else {
				tails.orderEnd++
			}
			if tailDominated {
				tails.dominated++
			}
		}
		if !extended && len(chosen) > 0 {
			score(p.u, p.post, chosen)
		}
	}
	dfs(0, 0)
	got.JoinedRows = e.JoinedRows - joined
	if bestU < 0 {
		bestU, best = 0, nil
	}

	search := ExactCtx
	if pathBound {
		search = ExactSubmodularCtx
	}
	s := search(t.Context(), e, opts)
	want := s.Stats
	want.Elapsed = 0
	if got != want {
		t.Fatalf("%s: replay counted %+v, the search %+v", name, got, want)
	}
	if math.Float64bits(bestU) != math.Float64bits(s.Utility) || !slices.Equal(best, s.FactIdx) {
		t.Fatalf("%s: replay found %v (%v), the search %v (%v)", name, best, bestU, s.FactIdx, s.Utility)
	}
	return got.LeavesSettled
}

// scaledRelation is randomRelation with its target multiplied by scale.
func scaledRelation(rng *rand.Rand, rows int, scale float64) *relation.Relation {
	b := relation.NewBuilder("scaled", relation.Schema{Dimensions: []string{"a", "b", "c"}, Targets: []string{"v"}})
	for i := 0; i < rows; i++ {
		b.MustAddRow([]string{strconv.Itoa(rng.Intn(4)), strconv.Itoa(rng.Intn(3)), strconv.Itoa(rng.Intn(2))},
			[]float64{(rng.NormFloat64()*10 + float64(rng.Intn(3))*15) * scale})
	}
	return b.Freeze()
}

// TestLeafBoundSound holds the exact search's leaf settling to the
// submodular bound it relies on, U(S∪{f}) ≤ U(S) + U({f}) within the
// search's relative slack, on every target of all five data sets at
// 1,500 rows (the full view and every one-predicate subset on the first
// dimension), on 200 tie-heavy random evaluators, and on a target
// scaled to about 10^8 like housing's populations. On the full views,
// the tie-heavy evaluators and the scaled target it also replays both
// exact searches, greedy-seeded and cold, and checks every settled leaf
// against the incumbent it was settled below. The replays must meet
// every kind of settled tail: one cut by rule 2, one running to the end
// of the order, and one holding a dominated fact.
func TestLeafBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	settled := int64(0)
	var tails tailKinds
	replay := func(name string, e *Evaluator, maxFacts int) {
		seed := Greedy(e, Options{MaxFacts: maxFacts}).Utility
		for _, lb := range []float64{0, seed} {
			for _, pathBound := range []bool{false, true} {
				settled += replayLeafSettling(t, name, e, Options{MaxFacts: maxFacts, LowerBound: lb}, pathBound, &tails)
			}
		}
	}
	for _, name := range dataset.Names() {
		rel := dataset.ByNameRows(name, 1500, 1)
		worst, problems := 0.0, 0
		for target := range rel.NumTargets() {
			full := rel.FullView()
			views := append([]*relation.View{full}, full.Partition([]int{0})...)
			for k, v := range views {
				facts := fact.Generate(v, target, fact.GenerateOptions{MaxDims: 2})
				if len(facts) == 0 {
					continue
				}
				problems++
				e := NewEvaluator(v, target, facts, fact.MeanPrior(v, target))
				worst = max(worst, leafBoundGap(t, name, rng, e, 4))
				if k == 0 {
					replay(name, e, 3)
				}
			}
		}
		t.Logf("%s: %d problems, largest peek − U(S) − U({f}) is %.3g of the slack", name, problems, worst)
	}
	worst := 0.0
	for trial := 0; trial < 200; trial++ {
		e := oracleEvaluator(rng, trial%5 == 4)
		worst = max(worst, leafBoundGap(t, "ties", rng, e, 8))
		replay("ties", e, 1+trial%4)
	}
	t.Logf("200 tie-heavy evaluators: largest gap %.3g of the slack", worst)
	e := newEval(t, scaledRelation(rng, 1500, 1e7), 2)
	t.Logf("scaled target (prior error %.3g): largest gap %.3g of the slack", e.PriorError(), leafBoundGap(t, "scaled", rng, e, 40))
	replay("scaled", e, 4)
	t.Logf("%d leaves settled across the replays; settled tails: %d cut by rule 2, %d to the order's end, %d holding a dominated fact",
		settled, tails.rule2, tails.orderEnd, tails.dominated)
	if settled == 0 {
		t.Error("no replayed search settled a leaf")
	}
	if tails.rule2 == 0 || tails.orderEnd == 0 || tails.dominated == 0 {
		t.Errorf("the replays miss a kind of settled tail: %+v", tails)
	}
}
