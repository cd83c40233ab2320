package fact

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"cicero/internal/relation"
)

// referenceGenerate is Generate as it was before a fact group's scopes
// shared their arrays: one NewScope — two copies and a sort — per fact.
func referenceGenerate(v *relation.View, target int, opts GenerateOptions) []Fact {
	var out []Fact
	for _, dims := range DimSubsets(opts.FreeDims, opts.MaxDims) {
		for _, g := range v.GroupBy(dims, target) {
			if g.Count < opts.MinRows || g.Count == 0 {
				continue
			}
			out = append(out, Fact{Scope: NewScope(dims, g.Key.Codes), Value: g.Mean()})
		}
	}
	return out
}

// TestGenerateMatchesReference: the same facts in the same order with
// the same value bits, whether FreeDims ascends (scopes alias the
// group-by's arrays) or not (scopes are permuted into dimension order),
// and a Clone shares nothing with the candidate it was taken from.
func TestGenerateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b := relation.NewBuilder("rand", relation.Schema{Dimensions: []string{"a", "b", "c", "d"}, Targets: []string{"v"}})
	for i := 0; i < 400; i++ {
		b.MustAddRow([]string{
			strconv.Itoa(rng.Intn(3)), strconv.Itoa(rng.Intn(5)), strconv.Itoa(rng.Intn(7)), strconv.Itoa(rng.Intn(60)),
		}, []float64{rng.NormFloat64()})
	}
	rel := b.Freeze()
	views := []*relation.View{rel.FullView(), rel.FullView().Select([]relation.Predicate{{Dim: 1, Code: 2}})}
	for _, free := range [][]int{{0, 1, 2, 3}, {3, 1, 0}, {2, 0}} {
		for _, view := range views {
			for _, minRows := range []int{0, 3} {
				opts := GenerateOptions{MaxDims: 3, FreeDims: free, MinRows: minRows}
				got, want := Generate(view, 0, opts), referenceGenerate(view, 0, opts)
				if len(got) != len(want) {
					t.Fatalf("free %v: %d facts, reference %d", free, len(got), len(want))
				}
				for i := range want {
					if !got[i].Scope.Equal(want[i].Scope) || math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
						t.Fatalf("free %v fact %d: %v, reference %v", free, i, got[i], want[i])
					}
					if !slices.IsSorted(got[i].Scope.Dims) {
						t.Fatalf("free %v fact %d: scope dimensions %v do not ascend", free, i, got[i].Scope.Dims)
					}
				}
				last := got[len(got)-1]
				kept := last.Clone()
				last.Scope.Codes[0]++
				if kept.Scope.Equal(last.Scope) || kept.Value != last.Value {
					t.Fatalf("free %v: Clone shares its codes with the candidate", free)
				}
				last.Scope.Codes[0]--
			}
		}
	}
}
