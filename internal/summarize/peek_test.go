package summarize

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestPeekMatchesPush holds the exact search's read-only leaf score to
// the push it replaces. On random evaluators — tie-heavy integer values,
// all-negative gains, and real-valued targets under the mean prior — and
// random search paths of zero to three pushed facts, every fact's peek
// must return push's resulting utility bit for bit and the fact's
// posting length, leave the path's deviations and undo log (up to their
// capacity) untouched, and agree with the sum taken over truth values
// directly, which checks the distance column as well.
func TestPeekMatchesPush(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	ties, zeroGain := 0, 0
	for trial := 0; trial < 300; trial++ {
		var e *Evaluator
		if trial%3 == 2 {
			e = newEval(t, randomRelation(rng, 1+rng.Intn(300)), 1+rng.Intn(3))
		} else {
			e = oracleEvaluator(rng, trial%3 == 1)
		}
		e.singleFactUtilities()
		nf := e.NumFacts()
		var p pathState
		p.begin(e)
		for depth := rng.Intn(4); depth > 0; depth-- {
			p.push(e, int32(rng.Intn(nf)))
		}
		for fi := int32(0); fi < int32(nf); fi++ {
			dev := slices.Clone(p.dev)
			undoRow := slices.Clone(p.undoRow[:cap(p.undoRow)])
			undoVal := slices.Clone(p.undoVal[:cap(p.undoVal)])
			pathU, pathPost := p.u, p.post
			u, n := p.peek(e, fi)
			if math.Float64bits(p.u) != math.Float64bits(pathU) || p.post != pathPost || !sameBits(p.dev, dev) || !slices.Equal(p.undoRow[:cap(p.undoRow)], undoRow) ||
				!sameBits(p.undoVal[:cap(p.undoVal)], undoVal) {
				t.Fatalf("trial %d: peek of fact %d wrote the path state", trial, fi)
			}
			if n != len(e.posting(int(fi))) {
				t.Fatalf("trial %d fact %d: peek length %d, posting length %d", trial, fi, n, len(e.posting(int(fi))))
			}
			want := p.u
			v := e.facts[fi].Value
			for _, i := range e.posting(int(fi)) {
				d := math.Abs(v - e.truth[i])
				want += p.dev[i] - min(p.dev[i], d)
				if d == p.dev[i] {
					ties++
				}
			}
			if math.Float64bits(u) != math.Float64bits(want) {
				t.Fatalf("trial %d fact %d: peek %x, sum over truth values %x", trial, fi, math.Float64bits(u), math.Float64bits(want))
			}
			if u == p.u {
				zeroGain++
			}
			savedU, savedPost := p.u, p.post
			mark := p.push(e, fi)
			if math.Float64bits(p.u) != math.Float64bits(u) || p.post != savedPost+int64(n) {
				t.Fatalf("trial %d fact %d: peek %x over %d rows, push %x over %d",
					trial, fi, math.Float64bits(u), n, math.Float64bits(p.u), p.post-savedPost)
			}
			p.pop(mark, savedU, savedPost)
		}
	}
	if ties == 0 || zeroGain == 0 {
		t.Fatalf("the sweep met %d ties and %d zero-gain facts; it must meet both", ties, zeroGain)
	}
}
