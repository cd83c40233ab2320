package summarize

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"cicero/internal/fact"
	"cicero/internal/relation"
)

// The branchy kernels the branch-free scans replaced, kept as their
// oracles: each skips a row whose gain is not positive instead of adding
// dev − min(dev, d), and logs only improved rows instead of writing every
// row and advancing the cursor past the improved ones.

func branchySingleFactUtility(e *Evaluator, fi int) float64 {
	v := e.facts[fi].Value
	u := 0.0
	for _, i := range e.posting(fi) {
		if gain := e.priorDev[i] - math.Abs(v-e.truth[i]); gain > 0 {
			u += gain
		}
	}
	return u
}

func branchyGreedyGain(e *Evaluator, curDev []float64, fi int) float64 {
	v := e.facts[fi].Value
	gain := 0.0
	for _, i := range e.posting(fi) {
		if g := curDev[i] - math.Abs(v-e.truth[i]); g > 0 {
			gain += g
		}
	}
	return gain
}

func branchyCommitFact(e *Evaluator, curDev []float64, fi int) {
	v := e.facts[fi].Value
	for _, i := range e.posting(fi) {
		if d := math.Abs(v - e.truth[i]); d < curDev[i] {
			curDev[i] = d
		}
	}
}

func branchyPush(p *pathState, e *Evaluator, fi int32) int {
	mark := len(p.undoRow)
	v := e.facts[fi].Value
	post := e.posting(int(fi))
	for _, i := range post {
		if d := math.Abs(v - e.truth[i]); d < p.dev[i] {
			p.undoRow = append(p.undoRow, i)
			p.undoVal = append(p.undoVal, p.dev[i])
			p.u += p.dev[i] - d
			p.dev[i] = d
		}
	}
	p.post += int64(len(post))
	return mark
}

// sameBits reports whether two float slices hold the same bit patterns.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// oracleEvaluator builds a random evaluator made for ties: targets, the
// constant prior and most fact values are small integers, so a row's new
// deviation often equals its current one and many rows sit at zero
// deviation. With allNegative every fact value lies far from every row,
// so every gain is negative.
func oracleEvaluator(rng *rand.Rand, allNegative bool) *Evaluator {
	b := relation.NewBuilder("ties", relation.Schema{Dimensions: []string{"a", "b", "c"}, Targets: []string{"v"}})
	n := 1 + rng.Intn(200)
	for i := 0; i < n; i++ {
		b.MustAddRow([]string{strconv.Itoa(rng.Intn(4)), strconv.Itoa(rng.Intn(3)), strconv.Itoa(rng.Intn(5))},
			[]float64{float64(rng.Intn(4))})
	}
	view := b.Freeze().FullView()
	facts := fact.Generate(view, 0, fact.GenerateOptions{MaxDims: 1 + rng.Intn(3)})
	for fi := range facts {
		switch {
		case allNegative:
			facts[fi].Value = 100 + rng.Float64()
		case rng.Intn(4) > 0:
			facts[fi].Value = float64(rng.Intn(4))
		}
	}
	return NewEvaluator(view, 0, facts, fact.ConstantPrior(float64(rng.Intn(4))))
}

// TestBranchFreeKernelsMatchBranchy holds every branch-free scan to its
// branchy original, bit for bit, on random evaluators with ties
// (d == dev), zero-deviation rows and all-negative gains: single-fact
// utilities, greedy gains and the greedy state after every commit, and
// the exact search's path state — deviations, running utility, the undo
// log's rows and values and every mark — after every push and pop.
func TestBranchFreeKernelsMatchBranchy(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	ties, zeroRows := 0, 0
	for trial := 0; trial < 200; trial++ {
		e := oracleEvaluator(rng, trial%5 == 4)
		nf := e.NumFacts()
		utils := e.singleFactUtilities() // also fills the distance column push reads
		for fi := 0; fi < nf; fi++ {
			got, want := utils[fi], branchySingleFactUtility(e, fi)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d fact %d: single-fact utility %x, branchy %x", trial, fi, math.Float64bits(got), math.Float64bits(want))
			}
		}
		for i := range e.priorDev {
			if e.priorDev[i] == 0 {
				zeroRows++
			}
		}

		e.ResetGreedy()
		ref := slices.Clone(e.curDev)
		for step := 0; step < 4; step++ {
			for fi := 0; fi < nf; fi++ {
				got, want := e.GreedyGain(fi), branchyGreedyGain(e, ref, fi)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d step %d fact %d: gain %x, branchy %x", trial, step, fi, math.Float64bits(got), math.Float64bits(want))
				}
			}
			fi := rng.Intn(nf)
			e.CommitFact(fi)
			branchyCommitFact(e, ref, fi)
			if !sameBits(e.curDev, ref) {
				t.Fatalf("trial %d step %d: greedy state after committing fact %d differs", trial, step, fi)
			}
		}

		var got, want pathState
		got.begin(e)
		want.begin(e)
		type frame struct {
			mark  int
			u     float64
			post  int64
			state string
		}
		var stack []frame
		check := func(op string) {
			t.Helper()
			if math.Float64bits(got.u) != math.Float64bits(want.u) || got.post != want.post ||
				!slices.Equal(got.undoRow, want.undoRow) || !sameBits(got.undoVal, want.undoVal) || !sameBits(got.dev, want.dev) {
				t.Fatalf("trial %d after %s: path state differs: u %x/%x, post %d/%d, undo rows %v/%v",
					trial, op, math.Float64bits(got.u), math.Float64bits(want.u), got.post, want.post, got.undoRow, want.undoRow)
			}
		}
		for op := 0; op < 60; op++ {
			if len(stack) > 0 && (len(stack) == 4 || rng.Intn(3) == 0) {
				f := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				got.pop(f.mark, f.u, f.post)
				want.pop(f.mark, f.u, f.post)
				check("pop to " + f.state)
				continue
			}
			fi := int32(rng.Intn(nf))
			v := e.facts[fi].Value
			for _, i := range e.posting(int(fi)) {
				if math.Abs(v-e.truth[i]) == want.dev[i] {
					ties++
				}
			}
			u, post := want.u, want.post
			gotMark, wantMark := got.push(e, fi), branchyPush(&want, e, fi)
			if gotMark != wantMark {
				t.Fatalf("trial %d: push of fact %d returned mark %d, branchy %d", trial, fi, gotMark, wantMark)
			}
			state := "push of fact " + strconv.Itoa(int(fi))
			check(state)
			stack = append(stack, frame{wantMark, u, post, state})
		}
	}
	if ties == 0 || zeroRows == 0 {
		t.Fatalf("the sweep met %d ties and %d zero-deviation rows; it must meet both", ties, zeroRows)
	}
}
