package relation

import (
	"cmp"
	"math"
	"slices"
	"sync"
)

// KeySpace numbers the value combinations of a list of dimension
// columns: a combination's key is its mixed-radix number over the
// columns' cardinalities with the first listed dimension least
// significant. Ascending keys therefore order combinations by their
// codes read from the last dimension to the first, which is the order
// GroupBy, Partition and DistinctCombinations emit groups in and the
// order CompareCombos spells out for key spaces too large to number.
//
// The zero value is ready for Reset; a KeySpace keeps its slices across
// Resets, so a caller that keys many dimension lists holds one.
type KeySpace struct {
	cols    [][]int32
	cards   []int64
	strides []int64
	size    int64 // number of keys, saturated at MaxInt64 on overflow
}

// The dense paths index flat arrays by key, so their cost has a term in
// the size of the key space; they are taken when that size is at most
// denseRowFactor keys per row plus denseSlack.
const (
	denseRowFactor = 16
	denseSlack     = 256
)

// Reset points the key space at the given dimension columns of r. With
// no dimensions it lets go of the relation it pointed at.
func (k *KeySpace) Reset(r *Relation, dims []int) {
	clear(k.cols) // a kept KeySpace must not pin the previous relation
	k.cols, k.cards, k.strides = k.cols[:0], k.cards[:0], k.strides[:0]
	size := int64(1)
	for _, d := range dims {
		col := r.dims[d]
		card := int64(len(col.dict))
		k.cols = append(k.cols, col.data)
		k.cards = append(k.cards, card)
		k.strides = append(k.strides, size)
		if card > 0 && size > math.MaxInt64/card {
			// The product no longer fits: saturate, which Dense reads
			// as "compare code tuples instead". The strides from here
			// on are never used.
			size = math.MaxInt64
		} else {
			size *= card
		}
	}
	k.size = size
}

// Dense returns the number of keys and true when flat arrays indexed by
// key are the cheaper way to group a view of n rows; false when the key
// space is large against the view or its size overflows, in which case
// callers order code tuples with CompareCombos. The choice depends on
// nothing but the two sizes.
func (k *KeySpace) Dense(n int) (int, bool) {
	if k.size > math.MaxInt32 || k.size > denseRowFactor*int64(n)+denseSlack {
		return 0, false
	}
	return int(k.size), true
}

// RowKey returns the key of a relation row's combination. It is only
// meaningful when Dense reported true.
func (k *KeySpace) RowKey(row int32) int {
	key := int64(0)
	for j, col := range k.cols {
		key += int64(col[row]) * k.strides[j]
	}
	return int(key)
}

// Key returns the key of a code combination, or false when a code is
// outside its column's dictionary (no row can carry such a combination).
// Like RowKey it needs Dense to have reported true.
func (k *KeySpace) Key(codes []int32) (int, bool) {
	key := int64(0)
	for j, c := range codes {
		if c < 0 || int64(c) >= k.cards[j] {
			return 0, false
		}
		key += int64(c) * k.strides[j]
	}
	return int(key), true
}

// compareRows orders two relation rows by their combinations.
func (k *KeySpace) compareRows(a, b int32) int {
	for j := len(k.cols) - 1; j >= 0; j-- {
		if c := cmp.Compare(k.cols[j][a], k.cols[j][b]); c != 0 {
			return c
		}
	}
	return 0
}

// CompareCombos orders two code combinations over the same dimension
// list the way ascending keys do: by the last dimension's code first.
func CompareCombos(a, b []int32) int {
	for j := len(a) - 1; j >= 0; j-- {
		if c := cmp.Compare(a[j], b[j]); c != 0 {
			return c
		}
	}
	return 0
}

// scratch is the kernel's reusable working set. counts and sums are all
// zero whenever a scratch sits in the pool: each pass re-zeroes exactly
// the slots it touched.
type scratch struct {
	keys    KeySpace
	counts  []int32
	sums    []float64 // len(cols) slots per key, target by target
	rowKeys []int32
	cols    [][]float64 // the target columns being summed
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// release drops the scratch's references into the relation and returns
// it to the pool.
func (s *scratch) release() {
	s.keys.Reset(nil, nil)
	s.setTargets(nil, nil)
	scratchPool.Put(s)
}

// setTargets resolves the target columns once per pass; with none it
// lets go of the previous pass's.
func (s *scratch) setTargets(r *Relation, targets []int) {
	clear(s.cols)
	s.cols = s.cols[:0]
	for _, t := range targets {
		s.cols = append(s.cols, r.targets[t].data)
	}
}

// zeroed returns the first n slots of a kept-zero buffer, growing it.
func zeroed[T int32 | float64](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// GroupBy aggregates a target column grouped by the given dimension
// columns (the relational Γ operator with SUM/COUNT, from which AVG is
// derived). A negative target index counts rows without aggregating a
// sum. Groups come in ascending key order (see KeySpace: sorted by
// codes, last dimension first), each Key.Codes in the order the
// dimensions were given, and each Sum is accumulated in ascending row
// order starting from zero — so every sum, mean and downstream
// tie-break is the same bit pattern whichever path computed it.
func (v *View) GroupBy(dims []int, target int) []Group {
	targets := []int{target}
	if target < 0 {
		targets = nil
	}
	out, sums := v.groupBy(dims, targets)
	for g, sum := range sums {
		out[g].Sum = sum
	}
	return out
}

// GroupByTargets is GroupBy over several target columns in one pass: the
// groups GroupBy(dims, ·) returns, with Sum left zero, and the flat sums
// with sums[g*len(targets)+k] holding group g's sum of targets[k] — the
// bits GroupBy(dims, targets[k]) puts in group g's Sum, since every sum
// still adds its rows in ascending order starting from zero.
func (v *View) GroupByTargets(dims, targets []int) (groups []Group, sums []float64) {
	return v.groupBy(dims, targets)
}

// groupBy runs the keyed kernel that fits the key space.
func (v *View) groupBy(dims, targets []int) ([]Group, []float64) {
	s := scratchPool.Get().(*scratch)
	defer s.release()
	s.keys.Reset(v.Rel, dims)
	s.setTargets(v.Rel, targets)
	if size, ok := s.keys.Dense(v.NumRows()); ok {
		return v.groupDense(s, size)
	}
	return v.groupSorted(s)
}

// newGroups allocates n groups whose code slices are cut from one
// backing array.
func newGroups(n, width int) []Group {
	out := make([]Group, n)
	codes := make([]int32, n*width)
	for i := range out {
		out[i].Key.Codes = codes[i*width : (i+1)*width : (i+1)*width]
	}
	return out
}

// newSums allocates the flat per-group sums of ng groups over nt
// targets, or nothing when there is no target.
func newSums(ng, nt int) []float64 {
	if nt == 0 {
		return nil
	}
	return make([]float64, ng*nt)
}

// groupDense accumulates counts and every target's sums into flat arrays
// indexed by key, then emits the occupied slots in key order.
func (v *View) groupDense(s *scratch, size int) ([]Group, []float64) {
	ks := &s.keys
	cols := s.cols
	nt := len(cols)
	counts := zeroed(&s.counts, size)
	acc := zeroed(&s.sums, size*nt)
	// One target is GroupBy's case: its column is hoisted and its sum
	// skips the loop over columns.
	var one []float64
	if nt == 1 {
		one = cols[0]
	}
	ng := 0
	for i, n := 0, v.NumRows(); i < n; i++ {
		row := v.Row(i)
		key := ks.RowKey(row)
		if counts[key] == 0 {
			ng++
		}
		counts[key]++
		if one != nil {
			acc[key] += one[row]
			continue
		}
		k := key * nt
		for t, col := range cols {
			acc[k+t] += col[row]
		}
	}
	out := newGroups(ng, len(ks.cols))
	sums := newSums(ng, nt)
	g := 0
	for key := 0; g < ng; key++ {
		c := counts[key]
		if c == 0 {
			continue
		}
		rem := int64(key)
		codes := out[g].Key.Codes
		for j := len(codes) - 1; j >= 0; j-- {
			codes[j] = int32(rem / ks.strides[j])
			rem %= ks.strides[j]
		}
		out[g].Count = int(c)
		counts[key] = 0
		for t := 0; t < nt; t++ {
			sums[g*nt+t] = acc[key*nt+t]
			acc[key*nt+t] = 0
		}
		g++
	}
	return out, sums
}

// sortedRows returns the view's rows ordered by combination and then
// by row: the order the dense paths reach by indexing, reached by
// comparing code tuples.
func (v *View) sortedRows(s *scratch) []int32 {
	rows := make([]int32, v.NumRows())
	for i := range rows {
		rows[i] = v.Row(i)
	}
	ks := &s.keys
	slices.SortFunc(rows, func(a, b int32) int {
		if c := ks.compareRows(a, b); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return rows
}

// runEnds returns the end offset of every run of equal combinations in
// rows as sortedRows ordered them.
func (ks *KeySpace) runEnds(rows []int32) []int {
	var ends []int
	for i := 1; i <= len(rows); i++ {
		if i == len(rows) || ks.compareRows(rows[i-1], rows[i]) != 0 {
			ends = append(ends, i)
		}
	}
	return ends
}

// groupSorted is groupDense for key spaces too large to index.
func (v *View) groupSorted(s *scratch) ([]Group, []float64) {
	ks := &s.keys
	rows := v.sortedRows(s)
	ends := ks.runEnds(rows)
	nt := len(s.cols)
	out := newGroups(len(ends), len(ks.cols))
	sums := newSums(len(ends), nt)
	start := 0
	for g, end := range ends {
		for j, col := range ks.cols {
			out[g].Key.Codes[j] = col[rows[start]]
		}
		out[g].Count = end - start
		for t, col := range s.cols {
			sum := 0.0
			for _, row := range rows[start:end] {
				sum += col[row]
			}
			sums[g*nt+t] = sum
		}
		start = end
	}
	return out, sums
}

// Partition splits the view by the value combinations of the given
// dimension columns: part i holds exactly the rows Select would return
// for the i-th group of GroupBy(dims, ·), in the same ascending row
// order. All parts are cut from one row array, built in a single
// counting-sort pass, so cutting every sub-view of a query shape costs
// what one Select costs.
func (v *View) Partition(dims []int) []*View {
	n := v.NumRows()
	if n == 0 {
		return nil
	}
	if len(dims) == 0 {
		return []*View{v}
	}
	s := scratchPool.Get().(*scratch)
	defer s.release()
	s.keys.Reset(v.Rel, dims)
	var rows []int32
	var ends []int
	if size, ok := s.keys.Dense(n); ok {
		rows, ends = v.partitionDense(s, size)
	} else {
		rows = v.sortedRows(s)
		ends = s.keys.runEnds(rows)
	}
	views := make([]View, len(ends))
	out := make([]*View, len(ends))
	start := 0
	for i, end := range ends {
		views[i] = View{Rel: v.Rel, rows: rows[start:end:end]}
		out[i] = &views[i]
		start = end
	}
	return out
}

// partitionDense is a counting sort of the view's rows by key.
func (v *View) partitionDense(s *scratch, size int) ([]int32, []int) {
	ks := &s.keys
	n := v.NumRows()
	counts := zeroed(&s.counts, size)
	if cap(s.rowKeys) < n {
		s.rowKeys = make([]int32, n)
	}
	keys := s.rowKeys[:n]
	ng := 0
	for i := range keys {
		key := ks.RowKey(v.Row(i))
		if counts[key] == 0 {
			ng++
		}
		counts[key]++
		keys[i] = int32(key)
	}
	// Turn each occupied slot's count into its part's start offset.
	ends := make([]int, 0, ng)
	off := int32(0)
	for key := 0; len(ends) < ng; key++ {
		if c := counts[key]; c > 0 {
			counts[key] = off
			off += c
			ends = append(ends, int(off))
		}
	}
	rows := make([]int32, n)
	for i, key := range keys {
		rows[counts[key]] = v.Row(i)
		counts[key]++
	}
	clear(counts)
	return rows, ends
}

// DistinctCombinations returns the distinct value-code combinations of the
// given dimension columns that appear in the view, in GroupBy's order.
// This drives fact enumeration: the paper considers equality predicates
// "for all value combinations that appear in the data set".
func (v *View) DistinctCombinations(dims []int) [][]int32 {
	groups := v.GroupBy(dims, -1)
	out := make([][]int32, len(groups))
	for i, g := range groups {
		out[i] = g.Key.Codes
	}
	return out
}
