package relation

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// referenceGroupBy is the map-based GroupBy the keyed kernel replaced,
// kept as the oracle: a map from mixed-radix key to a heap aggregate,
// the keys sorted, the codes decoded from the key. It multiplies strides
// unchecked, so it is only a reference where the key space fits int64.
func referenceGroupBy(v *View, dims []int, target int) []Group {
	type agg struct {
		count int
		sum   float64
	}
	radix := make([]int64, len(dims))
	stride := int64(1)
	for i, d := range dims {
		radix[i] = stride
		stride *= int64(v.Rel.dims[d].Cardinality()) + 1
	}
	m := make(map[int64]*agg)
	var data []float64
	if target >= 0 {
		data = v.Rel.targets[target].data
	}
	n := v.NumRows()
	for i := 0; i < n; i++ {
		row := v.Row(i)
		key := int64(0)
		for j, d := range dims {
			key += int64(v.Rel.dims[d].data[row]) * radix[j]
		}
		a := m[key]
		if a == nil {
			a = &agg{}
			m[key] = a
		}
		a.count++
		if data != nil {
			a.sum += data[row]
		}
	}
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]Group, 0, len(keys))
	for _, k := range keys {
		codes := make([]int32, len(dims))
		rem := k
		for j := len(dims) - 1; j >= 0; j-- {
			codes[j] = int32(rem / radix[j])
			rem %= radix[j]
		}
		a := m[k]
		out = append(out, Group{Key: GroupKey{Codes: codes}, Count: a.count, Sum: a.sum})
	}
	return out
}

// sameGroups compares two group lists bit for bit: order, codes, counts
// and the bit patterns of the sums.
func sameGroups(got, want []Group) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if CompareCombos(g.Key.Codes, w.Key.Codes) != 0 || len(g.Key.Codes) != len(w.Key.Codes) {
			return fmt.Errorf("group %d: codes %v, want %v", i, g.Key.Codes, w.Key.Codes)
		}
		if g.Count != w.Count || math.Float64bits(g.Sum) != math.Float64bits(w.Sum) {
			return fmt.Errorf("group %d %v: count %d sum %x, want count %d sum %x",
				i, w.Key.Codes, g.Count, math.Float64bits(g.Sum), w.Count, math.Float64bits(w.Sum))
		}
	}
	return nil
}

// withSums copies groups with the k-th of nt flat per-group sums (as
// GroupByTargets lays them out) in their Sum fields.
func withSums(groups []Group, sums []float64, nt, k int) []Group {
	out := append([]Group(nil), groups...)
	for g := range out {
		out[g].Sum = sums[g*nt+k]
	}
	return out
}

// randomKeyed builds a relation whose four dimension columns have up to
// 3, 7, 40 and 200 distinct values, so that subsets of them fall on both
// sides of KeySpace.Dense for views of a few hundred rows.
func randomKeyed(rng *rand.Rand, n int) *Relation {
	b := NewBuilder("keyed", Schema{Dimensions: []string{"a", "b", "c", "d"}, Targets: []string{"v", "w"}})
	for i := 0; i < n; i++ {
		b.MustAddRow([]string{
			strconv.Itoa(rng.Intn(3)), strconv.Itoa(rng.Intn(7)),
			strconv.Itoa(rng.Intn(40)), strconv.Itoa(rng.Intn(200)),
		}, []float64{rng.NormFloat64() * 1e3, float64(rng.Intn(5))})
	}
	return b.Freeze()
}

var keyedDimLists = [][]int{
	{}, {0}, {3}, {0, 1}, {1, 0}, {2, 3}, {3, 2}, {0, 1, 2}, {3, 1, 0}, {0, 1, 2, 3}, {3, 2, 1, 0},
}

// TestGroupByMatchesReference is the kernel's oracle: on random
// relations, over full, selected and empty views, with and without a
// target, on both sides of the dense/sorted boundary, GroupBy and
// GroupByTargets return exactly what the map-based reference returns.
func TestGroupByMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	dense, sorted := 0, 0
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(300)
		if trial < 3 {
			n = trial // 0, 1 and 2 rows
		}
		r := randomKeyed(rng, n)
		preds := [][]Predicate{
			nil,
			{{Dim: 0, Code: 1}},
			{{Dim: 1, Code: 2}, {Dim: 0, Code: 0}},
			{{Dim: 2, Code: 9999}}, // matches nothing
		}
		for _, dims := range keyedDimLists {
			var ks KeySpace
			ks.Reset(r, dims)
			for _, ps := range preds {
				sub := r.FullView().Select(ps)
				if _, ok := ks.Dense(sub.NumRows()); ok {
					dense++
				} else {
					sorted++
				}
				for _, target := range []int{-1, 0, 1} {
					want := referenceGroupBy(sub, dims, target)
					if err := sameGroups(sub.GroupBy(dims, target), want); err != nil {
						t.Fatalf("trial %d rows %d dims %v preds %v target %d: GroupBy: %v", trial, n, dims, ps, target, err)
					}
				}
				targets := []int{1, 0, 1}
				groups, sums := sub.GroupByTargets(dims, targets)
				for k, target := range targets {
					if err := sameGroups(withSums(groups, sums, len(targets), k), referenceGroupBy(sub, dims, target)); err != nil {
						t.Fatalf("trial %d rows %d dims %v preds %v targets %v: GroupByTargets, target %d: %v", trial, n, dims, ps, targets, k, err)
					}
				}
			}
		}
	}
	if dense == 0 || sorted == 0 {
		t.Fatalf("the sweep took the dense path %d times and the sorted path %d times; it must cover both", dense, sorted)
	}
}

// TestDensePathsAgreeWithSorted forces both implementations over the
// same inputs: whatever Dense decides, the two must be interchangeable.
func TestDensePathsAgreeWithSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := randomKeyed(rng, 12000)
	v := r.FullView()
	for _, dims := range keyedDimLists {
		s := new(scratch)
		s.keys.Reset(r, dims)
		size, ok := s.keys.Dense(v.NumRows())
		if !ok {
			t.Fatalf("dims %v: 12000 rows should make every key space here dense", dims)
		}
		targets := []int{0, 1}
		s.setTargets(r, targets)
		sortedGroups, sortedSums := v.groupSorted(s)
		denseGroups, denseSums := v.groupDense(s, size)
		for k := range targets {
			if err := sameGroups(withSums(sortedGroups, sortedSums, len(targets), k), withSums(denseGroups, denseSums, len(targets), k)); err != nil {
				t.Errorf("dims %v target %d: sorted vs dense: %v", dims, k, err)
			}
		}
		if len(dims) == 0 {
			continue
		}
		denseRows, denseEnds := v.partitionDense(s, size)
		sortedRows := v.sortedRows(s)
		sortedEnds := s.keys.runEnds(sortedRows)
		if fmt.Sprint(denseRows, denseEnds) != fmt.Sprint(sortedRows, sortedEnds) {
			t.Errorf("dims %v: counting-sort partition differs from the sorted one", dims)
		}
	}
}

// TestPartitionMatchesSelect: part i of Partition(dims) is Select of the
// i-th combination — the same rows in the same order — on both paths.
func TestPartitionMatchesSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		r := randomKeyed(rng, rng.Intn(300))
		for _, base := range []*View{r.FullView(), r.FullView().Select([]Predicate{{Dim: 0, Code: 1}})} {
			for _, dims := range keyedDimLists {
				parts := base.Partition(dims)
				combos := base.DistinctCombinations(dims)
				if len(parts) != len(combos) {
					t.Fatalf("trial %d dims %v: %d parts for %d combinations", trial, dims, len(parts), len(combos))
				}
				for i, combo := range combos {
					preds := make([]Predicate, len(dims))
					for j, d := range dims {
						preds[j] = Predicate{Dim: d, Code: combo[j]}
					}
					want := base.Select(preds)
					if want.NumRows() != parts[i].NumRows() {
						t.Fatalf("trial %d dims %v part %d: %d rows, Select has %d", trial, dims, i, parts[i].NumRows(), want.NumRows())
					}
					for k := 0; k < want.NumRows(); k++ {
						if parts[i].Row(k) != want.Row(k) {
							t.Fatalf("trial %d dims %v part %d row %d: %d, Select has %d", trial, dims, i, k, parts[i].Row(k), want.Row(k))
						}
					}
				}
			}
		}
	}
}

// TestGroupByKeySpaceOverflow is the overflow fix's pin: five dimensions
// of 8,192 distinct values each make a key space of 2^65, which the old
// unchecked int64 strides wrapped — 6,145 of the 8,192 groups decoded to
// codes no row carries. Every row here is its own combination, so the
// groups must be the rows themselves, in key order.
func TestGroupByKeySpaceOverflow(t *testing.T) {
	const n = 8192
	b := NewBuilder("wide", Schema{Dimensions: []string{"a", "b", "c", "d", "e"}, Targets: []string{"v"}})
	rng := rand.New(rand.NewSource(3))
	perms := make([][]int, 5)
	for d := range perms {
		perms[d] = rng.Perm(n)
	}
	for i := 0; i < n; i++ {
		vals := make([]string, 5)
		for d := range vals {
			vals[d] = strconv.Itoa(perms[d][i])
		}
		b.MustAddRow(vals, []float64{float64(i)})
	}
	r := b.Freeze()
	dims := []int{0, 1, 2, 3, 4}
	var ks KeySpace
	ks.Reset(r, dims)
	if _, ok := ks.Dense(n); ok {
		t.Fatal("a 2^65 key space reported dense")
	}
	groups := r.FullView().GroupBy(dims, 0)
	if len(groups) != n {
		t.Fatalf("%d groups, want %d", len(groups), n)
	}
	seen := make([]bool, n)
	for i, g := range groups {
		if i > 0 && CompareCombos(groups[i-1].Key.Codes, g.Key.Codes) >= 0 {
			t.Fatalf("group %d %v does not sort after group %d %v", i, g.Key.Codes, i-1, groups[i-1].Key.Codes)
		}
		row := int(g.Sum) // the target is the row number
		if g.Count != 1 || row < 0 || row >= n || seen[row] {
			t.Fatalf("group %d: count %d sum %v", i, g.Count, g.Sum)
		}
		seen[row] = true
		for j, d := range dims {
			if g.Key.Codes[j] != r.Dim(d).CodeAt(row) {
				t.Fatalf("group %d decodes to %v; row %d carries code %d in dimension %d", i, g.Key.Codes, row, r.Dim(d).CodeAt(row), d)
			}
		}
	}
	parts := r.FullView().Partition(dims)
	if len(parts) != n {
		t.Fatalf("%d parts, want %d", len(parts), n)
	}
	for i, p := range parts {
		if p.NumRows() != 1 || int(p.Row(0)) != int(groups[i].Sum) {
			t.Fatalf("part %d does not hold the row of group %d", i, i)
		}
	}
}
