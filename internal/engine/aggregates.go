package engine

import (
	"encoding/binary"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"cicero/internal/relation"
)

// Aggregates is the run-time shapes' view of one relation: group-by
// cells, computed once per dimension list on first use, so that an
// extremum, top-k, trend, constrained or comparison answer is a binary
// search over a few hundred cells instead of a pass over every row —
// the paper's bargain (§VII), paying once so each answer is a lookup.
//
// A cell set groups the whole relation by a dimension list and keeps
// each occupied combination's codes, row count and sum of every target.
// The shapes ask for [g, p₁, p₂, …]: the grouped dimension first, then
// the predicate dimensions in ascending order. Listing g first makes it
// the least significant column of relation.KeySpace's order, so the
// cells of one predicate combination form one contiguous run in
// ascending g code — exactly the groups Select(preds).GroupBy([g], t)
// returns, with the same counts and, since every sum still adds its rows
// in ascending row order from zero, the same sum bits.
//
// An Aggregates is safe for concurrent use. Each set is built exactly
// once: concurrent first askers wait for that one pass, and reads of a
// built set take no lock. Creating one is O(1); memory grows only with
// the sets asked for, each holding at most min(rows, key space) cells.
type Aggregates struct {
	rel *relation.Relation
	// targets lists every target column: a set sums all of them at once.
	targets []int
	// sets maps a dimension list's key (dimsKey) to its cell set. Inserts
	// copy the map under mu and publish the copy, so lookups load it
	// without a lock.
	sets atomic.Pointer[map[string]*cellSet]
	mu   sync.Mutex
	// built and bytes count the sets built and their footprint; a set
	// built twice would show as one count too many.
	built, bytes atomic.Int64
}

// cellSet is one group-by of the whole relation over dims, stored flat:
// cell i has codes[i*len(dims):(i+1)*len(dims)], counts[i] rows and
// sums[i*nt+t] for target t, cells in ascending KeySpace order.
type cellSet struct {
	once   sync.Once
	dims   []int
	codes  []int32
	counts []int32
	sums   []float64
}

// NewAggregates returns the (still empty) cell store of a relation.
func NewAggregates(rel *relation.Relation) *Aggregates {
	targets := make([]int, rel.NumTargets())
	for t := range targets {
		targets[t] = t
	}
	return &Aggregates{rel: rel, targets: targets}
}

// Relation returns the relation the cells aggregate.
func (a *Aggregates) Relation() *relation.Relation { return a.rel }

// CellStats reports how many cell sets have been built and the bytes
// their codes, counts and sums hold.
func (a *Aggregates) CellStats() (sets, bytes int) {
	return int(a.built.Load()), int(a.bytes.Load())
}

// dimsKey appends a dimension list's map key to buf.
func dimsKey(buf []byte, dims []int) []byte {
	for _, d := range dims {
		buf = binary.AppendUvarint(buf, uint64(d))
	}
	return buf
}

// set returns the built cell set over dims, building it on first use.
func (a *Aggregates) set(dims []int) *cellSet {
	var buf [16]byte
	key := dimsKey(buf[:0], dims)
	var s *cellSet
	if m := a.sets.Load(); m != nil {
		s = (*m)[string(key)]
	}
	if s == nil {
		s = a.insert(key, dims)
	}
	s.once.Do(func() { a.build(s) })
	return s
}

// insert returns the set under key, adding an empty one if no other
// asker has yet.
func (a *Aggregates) insert(key []byte, dims []int) *cellSet {
	a.mu.Lock()
	defer a.mu.Unlock()
	var old map[string]*cellSet
	if m := a.sets.Load(); m != nil {
		old = *m
	}
	if s := old[string(key)]; s != nil {
		return s
	}
	next := make(map[string]*cellSet, len(old)+1)
	for k, s := range old {
		next[k] = s
	}
	s := &cellSet{dims: slices.Clone(dims)}
	next[string(key)] = s
	a.sets.Store(&next)
	return s
}

// build runs the set's one pass over the relation.
func (a *Aggregates) build(s *cellSet) {
	groups, sums := a.rel.FullView().GroupByTargets(s.dims, a.targets)
	w := len(s.dims)
	s.codes = make([]int32, len(groups)*w)
	s.counts = make([]int32, len(groups))
	for i, g := range groups {
		copy(s.codes[i*w:], g.Key.Codes)
		s.counts[i] = int32(g.Count)
	}
	s.sums = sums
	a.built.Add(1)
	a.bytes.Add(int64(4*len(s.codes) + 4*len(s.counts) + 8*len(s.sums)))
}

// maxStackDims is how many dimensions a request's list holds before its
// buffers leave the stack.
const maxStackDims = 8

// bind adds each predicate's dimension and code to dims and codes,
// keeping dims[from:] ascending, and skips predicates on skip. It
// reports false when two predicates fix one dimension to different
// codes: no row satisfies both.
func bind(dims []int, codes []int32, from, skip int, preds []relation.Predicate) ([]int, []int32, bool) {
	for _, p := range preds {
		if p.Dim == skip {
			continue
		}
		j := from
		for j < len(dims) && dims[j] < p.Dim {
			j++
		}
		if j < len(dims) && dims[j] == p.Dim {
			if codes[j] != p.Code {
				return nil, nil, false
			}
			continue
		}
		dims = slices.Insert(dims, j, p.Dim)
		codes = slices.Insert(codes, j, p.Code)
	}
	return dims, codes, true
}

// find returns the cells [lo, hi) whose codes past the first from
// columns equal want. Those columns are the most significant, so the
// matching cells are contiguous; codes, not keys, are compared, so a
// key space that overflows int64 is searched the same way.
func (s *cellSet) find(from int, want []int32) (lo, hi int) {
	w := len(s.dims)
	tail := func(i int) []int32 { return s.codes[i*w+from : (i+1)*w] }
	n := len(s.counts)
	lo = sort.Search(n, func(i int) bool { return relation.CompareCombos(tail(i), want) >= 0 })
	hi = lo
	for hi < n && relation.CompareCombos(tail(hi), want) == 0 {
		hi++
	}
	return lo, hi
}

// cellRun is a run of one set's cells: the groups of its first
// dimension within one predicate combination, in ascending code.
type cellRun struct {
	set    *cellSet
	lo, hi int
	nt     int
}

// len returns the number of groups in the run.
func (r cellRun) len() int { return r.hi - r.lo }

// group returns the run's i-th group with target t's sum: the group
// Select(preds).GroupBy([g], t) returns at that position, bit for bit.
// Its codes are a view into the set.
func (r cellRun) group(i, t int) relation.Group {
	c := r.lo + i
	w := len(r.set.dims)
	return relation.Group{
		Key:   relation.GroupKey{Codes: r.set.codes[c*w : c*w+1 : c*w+1]},
		Count: int(r.set.counts[c]),
		Sum:   r.set.sums[c*r.nt+t],
	}
}

// groups returns the groups of dimension g within the subset preds
// select, without a pass over rows. A predicate on g narrows the run to
// that code; conflicting predicates and codes outside a dictionary
// select nothing, as they do in a scan.
func (a *Aggregates) groups(g int, preds []relation.Predicate) cellRun {
	var dimBuf [maxStackDims]int
	var codeBuf [maxStackDims]int32
	dims, codes, ok := bind(append(dimBuf[:0], g), append(codeBuf[:0], 0), 1, g, preds)
	if !ok {
		return cellRun{}
	}
	// Predicates on g itself are left out of the list and narrow the run.
	gCode, gBound := int32(0), false
	for _, p := range preds {
		if p.Dim != g {
			continue
		}
		if gBound && p.Code != gCode {
			return cellRun{}
		}
		gCode, gBound = p.Code, true
	}
	s := a.set(dims)
	lo, hi := s.find(1, codes[1:])
	if gBound {
		w := len(dims)
		for lo < hi && s.codes[lo*w] != gCode {
			lo++
		}
		hi = min(hi, lo+1)
	}
	return cellRun{set: s, lo: lo, hi: hi, nt: len(a.targets)}
}

// subset returns the subset preds select as one group with target t's
// sum — the count and sum Select(preds).Stats(t) computes — read from
// the one matching cell of the set over the predicate dimensions.
func (a *Aggregates) subset(preds []relation.Predicate, t int) relation.Group {
	var dimBuf [maxStackDims]int
	var codeBuf [maxStackDims]int32
	dims, codes, ok := bind(dimBuf[:0], codeBuf[:0], 0, -1, preds)
	if !ok {
		return relation.Group{}
	}
	s := a.set(dims)
	if lo, hi := s.find(0, codes); lo < hi {
		return relation.Group{Count: int(s.counts[lo]), Sum: s.sums[lo*len(a.targets)+t]}
	}
	return relation.Group{}
}
