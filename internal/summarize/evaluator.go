// Package summarize implements the speech summarization algorithms of the
// paper: the exact algorithm with permutation and bound pruning
// (Algorithm 1, Section IV), the greedy algorithm with (1−1/e) guarantee
// (Algorithm 2, Section V), fact-group pruning (Algorithm 3, Section VI-B)
// and the cost-based pruning optimizer (Algorithm 4, Sections VI-C/D).
//
// It is the evaluate and solve heart of the generate → evaluate →
// solve → serve flow: the Evaluator pre-computes the per-problem state
// every algorithm shares (the materialized fact-scope join as CSR
// postings, the fact-group lattice, per-row priors), and Exact/Greedy
// consume it to pick the optimal fact set — the allocation-free hot
// loop the pre-processing batch spends nearly all of its time in.
package summarize

import (
	"math"
	"slices"
	"sort"

	"cicero/internal/fact"
	"cicero/internal/relation"
)

// Evaluator pre-computes the data structures shared by all summarization
// algorithms for one problem instance ⟨R, F, m⟩: per-row truth values and
// prior deviations, per-fact posting lists (the materialized fact-scope
// join R ⋊⋉M F), and the fact-group lattice.
//
// The paper executes these steps as SQL joins and aggregations inside the
// DBMS; the Evaluator is the in-memory equivalent with identical
// semantics, laid out as a flat allocation-free kernel:
//
//   - posting lists live in one CSR backing array (postRows + postStart),
//     so a problem's entire join output is a single allocation;
//   - per-group value combinations are resolved once at build into dense
//     per-row slot ids — through a flat table indexed by the combination's
//     mixed-radix key, no hash map — so GroupBound is a pure array scan;
//   - the exact algorithm's DFS evaluates speeches by maintaining per-row
//     deviations incrementally with an undo log, and scores the last fact
//     of a speech read-only, over a per-problem column of row distances;
//   - every scratch buffer is retained across Reset calls, so a pooled
//     evaluator solves problem after problem without reallocating;
//   - the build splits into a target-independent layout (groups, row
//     slots, postings: what the facts' scopes and the view decide) and
//     per-target state (truth values, prior deviations, fact values), so
//     Retarget moves to another target of the same view without
//     re-slotting a row;
//   - the scans of the solve kernels clamp each row's gain with min
//     instead of branching on its data-dependent sign.
//
// An Evaluator is not safe for concurrent use; the pipeline gives each
// worker its own pooled instance.
type Evaluator struct {
	view   *relation.View
	target int
	facts  []fact.Fact
	prior  fact.Prior

	truth    []float64 // target value per view row
	priorDev []float64 // |prior − truth| per view row
	priorSum float64   // D(∅), the error of the empty speech
	groups   []FactGroup

	// CSR posting layout: fact fi's in-scope view rows are
	// postRows[postStart[fi]:postStart[fi+1]]. Offsets are ints: the
	// total join output across all facts can exceed 2³¹ rows even when
	// every individual posting list fits in int32.
	postRows  []int32
	postStart []int
	postFill  []int

	// postDist parallels postRows: the distance |v_f − truth| between a
	// fact's value and each in-scope row's truth, fixed for the problem.
	// singleFactUtilities writes it; the exact search's push and peek
	// read it in posting order instead of gathering truth values.
	postDist []float64

	// curDev is the greedy algorithm's per-row expectation state: the
	// deviation |E(F,r) − vr| under the facts selected so far.
	curDev []float64

	// Per-row dense slot ids per bound group (n entries per group with a
	// non-empty dim set, at the group's slotsOff), plus the shared
	// accumulator sized to the widest group.
	rowSlots  []int32
	boundSums []float64

	// Incremental exact-DFS state: deviations along the current search
	// path with an undo log, the running utility, and the join-size
	// accounting of the path (see ExactCtx).
	path pathState

	// Dominance signatures for the exact search (see dominanceReps):
	// domRep[fi] is the canonical representative of fi's duplicate class,
	// and postHash[fi] the hash of fi's posting list, built once per
	// layout.
	domRep        []int32
	domCnt        []int32
	domHash       map[uint64]int32
	domBuilt      bool
	postHash      []uint64
	postHashBuilt bool

	// The exact search's settled-tail tables (see tailTables).
	tailPost   []int64
	classStart []int32
	classPos   []int32

	// Reusable build + solve scratch.
	keys       relation.KeySpace // the group being slotted
	slotOf     []int32           // combo key → slot+1, all zero between groups
	comboBuf   []int32           // one row's codes, for the sorted slotting
	slotFact   []int32           // slot → fact (or −1), flattened per group
	gfStart    []int32           // CSR offsets of groupFacts
	groupFacts []int32           // per-group fact lists, one backing array
	factGroup  []int32           // fact → group
	fillCursor []int32
	utilsBuf   []float64
	orderBuf   []int32
	sorter     utilOrderSorter
	chosenMark []bool
	aliveMark  []bool

	// JoinedRows counts row-fact pairs processed, mirroring the paper's
	// processing-cost metric (number of rows processed by joins). The
	// counter keeps the SQL-join accounting semantics of the paper even
	// where the kernel does less physical work: the exact algorithm's
	// incremental DFS charges each evaluated speech the full join size
	// the paper's final Γ_{ΣU} join would scan, so E vs G-B/G-P/G-O
	// comparisons stay on the metric of Figures 3/4.
	JoinedRows int64
}

// FactGroup is a set of facts restricting the same dimension columns
// (Section VI-B). Facts in one group partition the rows of the view.
type FactGroup struct {
	Dims  []int   // restricted dimension columns, ascending
	Facts []int32 // indices into the evaluator's fact slice

	// Bound precompute: view row i's value combination over Dims is the
	// dense slot rowSlots[slotsOff+i] (slots cover every combination
	// appearing in the view, not only those backed by a fact).
	slotsOff int
	numSlots int
	slotBase int // offset of this group's slot→fact entries in slotFact
}

// dimsSubset reports whether a ⊆ b for ascending dim slices.
func dimsSubset(a, b []int) bool {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j >= len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// grow returns a length-n slice, reusing s's backing array when it is
// large enough. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// NewEvaluator builds the evaluator for a problem instance. The posting
// lists are built with one pass over the view per fact group, exploiting
// the fact that facts in a group partition the rows.
//
// For solve loops over many problems, prefer AcquireEvaluator /
// ReleaseEvaluator (or an explicit Reset on a retained instance), which
// reuse all internal buffers across problems.
func NewEvaluator(view *relation.View, target int, facts []fact.Fact, prior fact.Prior) *Evaluator {
	e := &Evaluator{}
	e.Reset(view, target, facts, prior)
	return e
}

// Reset rebuilds the evaluator for a new problem instance, reusing every
// internal buffer of the previous one. After Reset the evaluator is
// indistinguishable from a freshly built one: all per-problem state
// (postings, groups, greedy expectation state, counters) is recomputed.
func (e *Evaluator) Reset(view *relation.View, target int, facts []fact.Fact, prior fact.Prior) {
	e.view = view
	e.facts = facts
	e.buildGroupsAndPostings()
	e.resetTarget(target, prior)
}

// Retarget re-points a built evaluator at another target column of the
// same view, with that target's candidate facts and prior. When the
// facts' scopes equal the built layout's, in order — as they do across
// the targets fact.GenerateTargets enumerates for one view — only the
// per-target state is rebuilt: truth values, prior deviations, the
// greedy state and the fact values, while the groups, row slots and
// postings stay. Otherwise it is a full Reset over the same view. Either
// way the evaluator is indistinguishable from
// NewEvaluator(e.view, target, facts, prior).
func (e *Evaluator) Retarget(target int, facts []fact.Fact, prior fact.Prior) {
	if !e.sameScopes(facts) {
		e.Reset(e.view, target, facts, prior)
		return
	}
	e.facts = facts
	e.resetTarget(target, prior)
}

// sameScopes reports whether facts restrict the same scopes, in the same
// order, as the facts the layout was built from.
func (e *Evaluator) sameScopes(facts []fact.Fact) bool {
	if len(facts) != len(e.facts) {
		return false
	}
	for i := range facts {
		if !facts[i].Scope.Equal(e.facts[i].Scope) {
			return false
		}
	}
	return true
}

// resetTarget rebuilds the per-target state over the built layout: each
// row's truth value and prior deviation, D(∅), the greedy state, and the
// counters, which start at the join size the build charges.
func (e *Evaluator) resetTarget(target int, prior fact.Prior) {
	n := e.view.NumRows()
	e.target = target
	e.prior = prior
	e.truth = grow(e.truth, n)
	e.priorDev = grow(e.priorDev, n)
	e.curDev = grow(e.curDev, n)
	truth, priorDev := e.truth, e.priorDev
	data := e.view.Rel.Target(target).Data()
	sum := 0.0
	for i := range truth {
		row := e.view.Row(i)
		truth[i] = data[row]
		priorDev[i] = math.Abs(prior.At(row) - truth[i])
		sum += priorDev[i]
	}
	copy(e.curDev, priorDev)
	e.priorSum = sum
	e.JoinedRows = int64(e.postStart[len(e.facts)])
	e.domBuilt = false
}

// detach drops the problem references so a pooled evaluator never pins a
// relation, fact slice, or prior beyond its solve.
func (e *Evaluator) detach() {
	e.keys.Reset(nil, nil)
	e.view = nil
	e.facts = nil
	e.prior = nil
	groups := e.groups[:cap(e.groups)]
	for i := range groups {
		groups[i] = FactGroup{}
	}
	e.groups = e.groups[:0]
}

// groupOf returns the index of the fact group restricting exactly dims,
// adding it if it is new. Generated facts arrive group by group, so the
// last group is tried first; a fact list in any other order costs a scan
// of the (few) groups per fact.
func (e *Evaluator) groupOf(dims []int) int32 {
	for gi := len(e.groups) - 1; gi >= 0; gi-- {
		if slices.Equal(e.groups[gi].Dims, dims) {
			return int32(gi)
		}
	}
	e.groups = append(e.groups, FactGroup{Dims: dims})
	return int32(len(e.groups) - 1)
}

// buildGroupsAndPostings groups facts by restricted dimension set and
// assigns each view row to the matching fact of every group in a single
// pass per group. Facts in one group partition the rows, so the join
// R ⋊⋉M F costs one relation pass per fact group instead of one per fact.
//
// The same per-group row pass resolves each row's value combination to a
// dense slot id, stored for the lifetime of the problem: GroupBound
// re-reads those slots on every greedy iteration instead of recomputing
// keys, and the postings land in one shared CSR backing array. Rows
// reach their slot without hashing — through a flat table indexed by the
// combination's mixed-radix key (relation.KeySpace, the keying GroupBy
// uses) when the key space is small against the view, and by binary
// search among the view's sorted combinations when it is not.
func (e *Evaluator) buildGroupsAndPostings() {
	n := e.view.NumRows()
	nf := len(e.facts)

	e.postHashBuilt = false

	// 1) Assign facts to groups by their restricted dimension set.
	e.factGroup = grow(e.factGroup, nf)
	e.groups = e.groups[:0]
	for fi := range e.facts {
		e.factGroup[fi] = e.groupOf(e.facts[fi].Scope.Dims)
	}
	ng := len(e.groups)

	// 2) Per-group fact lists in CSR form over one backing array.
	e.gfStart = grow(e.gfStart, ng+1)
	gf := e.gfStart
	for i := range gf {
		gf[i] = 0
	}
	for fi := 0; fi < nf; fi++ {
		gf[e.factGroup[fi]+1]++
	}
	for g := 0; g < ng; g++ {
		gf[g+1] += gf[g]
	}
	e.groupFacts = grow(e.groupFacts, nf)
	e.fillCursor = grow(e.fillCursor, ng)
	copy(e.fillCursor, gf[:ng])
	for fi := 0; fi < nf; fi++ {
		g := e.factGroup[fi]
		e.groupFacts[e.fillCursor[g]] = int32(fi)
		e.fillCursor[g]++
	}
	for g := 0; g < ng; g++ {
		e.groups[g].Facts = e.groupFacts[gf[g]:gf[g+1]]
	}

	// 3) One keyed pass per group resolves rows to slots, counting each
	// fact's posting size along the way.
	e.postStart = grow(e.postStart, nf+1)
	ps := e.postStart
	for i := range ps {
		ps[i] = 0
	}
	boundGroups := 0
	for g := range e.groups {
		if len(e.groups[g].Dims) > 0 {
			boundGroups++
		}
	}
	e.rowSlots = grow(e.rowSlots, boundGroups*n)
	e.slotFact = e.slotFact[:0]
	maxSlots := 0
	off := 0
	for g := range e.groups {
		grp := &e.groups[g]
		if len(grp.Dims) == 0 {
			// Every row is within scope of each scope-free fact.
			for _, fi := range grp.Facts {
				ps[fi+1] = n
			}
			grp.slotsOff, grp.numSlots, grp.slotBase = -1, 0, -1
			continue
		}
		grp.slotBase = len(e.slotFact)
		rs := e.rowSlots[off : off+n]
		e.keys.Reset(e.view.Rel, grp.Dims)
		if size, ok := e.keys.Dense(n); ok {
			e.slotRowsDense(grp, rs, size)
		} else {
			e.slotRowsSorted(grp, rs)
		}
		for _, slot := range rs {
			if fi := e.slotFact[grp.slotBase+int(slot)]; fi >= 0 {
				ps[fi+1]++
			}
		}
		grp.slotsOff = off
		grp.numSlots = len(e.slotFact) - grp.slotBase
		if grp.numSlots > maxSlots {
			maxSlots = grp.numSlots
		}
		off += n
	}
	e.boundSums = grow(e.boundSums, maxSlots)

	// 4) Prefix offsets, then one slot-driven fill pass per group writes
	// the join output into the single CSR backing array.
	for fi := 0; fi < nf; fi++ {
		ps[fi+1] += ps[fi]
	}
	e.postRows = grow(e.postRows, ps[nf])
	e.postFill = grow(e.postFill, nf)
	copy(e.postFill, ps[:nf])
	for g := range e.groups {
		grp := &e.groups[g]
		if len(grp.Dims) == 0 {
			for _, fi := range grp.Facts {
				out := e.postRows[e.postFill[fi]:ps[fi+1]]
				for i := range out {
					out[i] = int32(i)
				}
				e.postFill[fi] = ps[fi+1]
			}
			continue
		}
		rs := e.rowSlots[grp.slotsOff : grp.slotsOff+n]
		for i := 0; i < n; i++ {
			if fi := e.slotFact[grp.slotBase+int(rs[i])]; fi >= 0 {
				e.postRows[e.postFill[fi]] = int32(i)
				e.postFill[fi]++
			}
		}
	}
}

// slotRowsDense writes each view row's slot for the group into rs
// through the flat key → slot table: the group's facts take the first
// slots in fact order, combinations no fact covers take the following
// ones in order of first appearance. e.keys is set to the group's
// dimensions and size is its key count.
func (e *Evaluator) slotRowsDense(grp *FactGroup, rs []int32, size int) {
	if cap(e.slotOf) < size {
		e.slotOf = make([]int32, size)
	}
	slotOf := e.slotOf[:size]
	next := int32(0)
	for _, fi := range grp.Facts {
		// A fact whose codes lie outside the dictionaries matches no row
		// and gets a slot no row maps to. Of two facts with one scope the
		// later takes the rows.
		if key, ok := e.keys.Key(e.facts[fi].Scope.Codes); ok {
			slotOf[key] = next + 1
		}
		e.slotFact = append(e.slotFact, fi)
		next++
	}
	for i := range rs {
		key := e.keys.RowKey(e.view.Row(i))
		slot := slotOf[key]
		if slot == 0 {
			e.slotFact = append(e.slotFact, -1)
			next++
			slot = next
			slotOf[key] = slot
		}
		rs[i] = slot - 1
	}
	clear(slotOf)
}

// slotRowsSorted is slotRowsDense for a key space too large to index: a
// slot per combination appearing in the view, in GroupBy's order, found
// by binary search.
func (e *Evaluator) slotRowsSorted(grp *FactGroup, rs []int32) {
	combos := e.view.DistinctCombinations(grp.Dims)
	slotOf := func(codes []int32) (int, bool) {
		return sort.Find(len(combos), func(j int) int { return relation.CompareCombos(codes, combos[j]) })
	}
	for range combos {
		e.slotFact = append(e.slotFact, -1)
	}
	for _, fi := range grp.Facts {
		if slot, ok := slotOf(e.facts[fi].Scope.Codes); ok {
			e.slotFact[grp.slotBase+slot] = fi
		}
	}
	e.comboBuf = grow(e.comboBuf, len(grp.Dims))
	for i := range rs {
		row := int(e.view.Row(i))
		for j, d := range grp.Dims {
			e.comboBuf[j] = e.view.Rel.Dim(d).CodeAt(row)
		}
		slot, _ := slotOf(e.comboBuf)
		rs[i] = int32(slot)
	}
}

// posting returns fact fi's slice of the CSR join output.
func (e *Evaluator) posting(fi int) []int32 {
	return e.postRows[e.postStart[fi]:e.postStart[fi+1]]
}

// NumRows returns the number of rows in the problem's view.
func (e *Evaluator) NumRows() int { return e.view.NumRows() }

// NumFacts returns the number of candidate facts.
func (e *Evaluator) NumFacts() int { return len(e.facts) }

// Facts returns the candidate facts (not a copy; callers must not modify).
func (e *Evaluator) Facts() []fact.Fact { return e.facts }

// Groups returns the fact groups (not a copy; callers must not modify).
func (e *Evaluator) Groups() []FactGroup { return e.groups }

// PriorError returns D(∅), the accumulated deviation of the empty speech.
func (e *Evaluator) PriorError() float64 { return e.priorSum }

// singleFactUtilities computes the utility of every singleton speech {f}
// into a reused buffer, valid until the next call: Σ_rows max(0,
// priorDev − |v_f − truth|) over rows in scope. This is the Γ_{ΣU,F}(R
// ⋊⋉M F) step of Algorithm 1. The same scan stores every row distance
// |v_f − truth| in postDist, which the exact search's push and peek
// read: it must run before them on every problem and target.
//
// Like every scan below, it does not branch on the sign of a row's gain,
// which depends on the data and mispredicts on about every other row: it
// adds dev − min(dev, d), which is dev − d when d < dev and exactly +0
// otherwise. min of two non-negative numbers is exact and adding +0 to a
// non-negative sum leaves its bits unchanged, so the results are the
// branchy versions' to the bit (for finite target values).
func (e *Evaluator) singleFactUtilities() []float64 {
	e.utilsBuf = grow(e.utilsBuf, len(e.facts))
	e.postDist = grow(e.postDist, len(e.postRows))
	truth, priorDev := e.truth, e.priorDev
	for fi := range e.facts {
		v := e.facts[fi].Value
		lo, hi := e.postStart[fi], e.postStart[fi+1]
		dist := e.postDist[lo:hi]
		u := 0.0
		for k, i := range e.postRows[lo:hi] {
			d := math.Abs(v - truth[i])
			dist[k] = d
			dev := priorDev[i]
			u += dev - min(dev, d)
		}
		e.utilsBuf[fi] = u
		e.JoinedRows += int64(hi - lo)
	}
	return e.utilsBuf
}

// pathState is the incremental speech-evaluation state of one exact-DFS
// walker: per-row deviations along the current search path with an undo
// log, the running utility, and the join-size accounting of the path.
// It only reads the evaluator's immutable per-problem layout (postings,
// their distance column, priors).
type pathState struct {
	dev     []float64
	undoRow []int32
	undoVal []float64
	u       float64
	post    int64
}

// begin initializes the path state for e: deviations start at the prior
// and the running utility at zero.
func (p *pathState) begin(e *Evaluator) {
	n := e.view.NumRows()
	p.dev = grow(p.dev, n)
	copy(p.dev, e.priorDev[:n])
	p.undoRow = p.undoRow[:0]
	p.undoVal = p.undoVal[:0]
	p.u = 0
	p.post = 0
}

// push folds fact fi into the path state — O(|scope of fi|) — and
// returns the undo-log mark for the matching pop. Only rows whose
// deviation improves are logged, so evaluating a leaf after the push is
// free: p.u already is the speech utility.
//
// The scan does not branch on the data: every row's (row, old deviation)
// pair is written at the log's cursor, and the cursor advances only past
// an improved row, so the log ends up holding exactly the improved rows
// in scan order. Room for the whole posting list is reserved up front.
// The utility and the deviation take min(old, d) as singleFactUtilities
// does, with d read from the distance column it filled.
func (p *pathState) push(e *Evaluator, fi int32) int {
	mark := len(p.undoRow)
	post, dist := e.postingDist(fi)
	dist = dist[:len(post)] // one bounds check for the loop
	dev := p.dev
	end := mark + len(post)
	rows := slices.Grow(p.undoRow, len(post))[:end]
	vals := slices.Grow(p.undoVal, len(post))[:end]
	w := mark
	u := p.u
	for k, i := range post {
		d := dist[k]
		old := dev[i]
		m := min(old, d)
		rows[w], vals[w] = i, old
		u += old - m
		dev[i] = m
		w += b2i(d < old)
	}
	p.undoRow, p.undoVal = rows[:w], vals[:w]
	p.u = u
	p.post += int64(len(post))
	return mark
}

// peek returns the utility the path would have after push(e, fi), and
// the length of fi's posting list, without writing anything: the exact
// search scores the last fact of a speech this way, since nothing reads
// the state a last push would write. It adds the same terms as push in
// the same order, so the utility is push's p.u to the bit.
func (p *pathState) peek(e *Evaluator, fi int32) (float64, int) {
	post, dist := e.postingDist(fi)
	dist = dist[:len(post)]
	dev := p.dev
	u := p.u
	for k, i := range post {
		old := dev[i]
		u += old - min(old, dist[k])
	}
	return u, len(post)
}

// postingDist returns fact fi's posting list and its slice of the
// distance column, of equal length.
func (e *Evaluator) postingDist(fi int32) ([]int32, []float64) {
	lo, hi := e.postStart[fi], e.postStart[fi+1]
	return e.postRows[lo:hi], e.postDist[lo:hi]
}

// b2i is 1 for true and 0 for false, compiled to a flag move.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// pop rewinds the path state to mark. The caller passes back the
// utility and join-size accounting saved before the matching push, so
// the restored values are exact — no floating-point drift accumulates
// across sibling subtrees.
func (p *pathState) pop(mark int, savedU float64, savedPost int64) {
	for k := len(p.undoRow) - 1; k >= mark; k-- {
		p.dev[p.undoRow[k]] = p.undoVal[k]
	}
	p.undoRow = p.undoRow[:mark]
	p.undoVal = p.undoVal[:mark]
	p.u = savedU
	p.post = savedPost
}

// dominanceReps computes the duplicate-class representative of every
// fact: two facts share a class when their scope signatures (the exact
// posting-list content of the materialized join) and values are
// bitwise identical. Such facts are interchangeable for speech utility
// — folding one in makes the other's marginal gain exactly zero — so
// the exact search skips a fact whenever its representative class is
// already on the search path (dominance pruning). The classes are
// built lazily once per problem and reused by every exact search of
// it. A fact's signature hash is its posting list's hash, computed once
// per layout and shared by every target, with the value's bits mixed
// in; hash collisions degrade to self-representation, which only
// forfeits pruning, never correctness.
func (e *Evaluator) dominanceReps() []int32 {
	if e.domBuilt {
		return e.domRep
	}
	nf := len(e.facts)
	if !e.postHashBuilt {
		e.postHash = grow(e.postHash, nf)
		for fi := 0; fi < nf; fi++ {
			h := uint64(fnvBasis)
			for _, r := range e.posting(fi) {
				h = (h ^ uint64(uint32(r))) * fnvPrime // a row per FNV-1a round
			}
			e.postHash[fi] = h
		}
		e.postHashBuilt = true
	}
	e.domRep = grow(e.domRep, nf)
	if e.domHash == nil {
		e.domHash = make(map[uint64]int32)
	} else {
		clear(e.domHash)
	}
	for fi := 0; fi < nf; fi++ {
		h, v := e.postHash[fi], math.Float64bits(e.facts[fi].Value)
		for s := 0; s < 64; s += 8 {
			h = (h ^ (v>>s)&0xff) * fnvPrime
		}
		rep, ok := e.domHash[h]
		if ok && e.sameSignature(int(rep), fi) {
			e.domRep[fi] = rep
			continue
		}
		if !ok {
			e.domHash[h] = int32(fi)
		}
		e.domRep[fi] = int32(fi)
	}
	e.domBuilt = true
	return e.domRep
}

// The FNV-1a offset basis and prime of dominanceReps's hashes.
const (
	fnvBasis = 14695981039346656037
	fnvPrime = 1099511628211
)

// sameSignature reports whether facts a and b have bitwise-identical
// values and posting lists.
func (e *Evaluator) sameSignature(a, b int) bool {
	if math.Float64bits(e.facts[a].Value) != math.Float64bits(e.facts[b].Value) {
		return false
	}
	pa, pb := e.posting(a), e.posting(b)
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if pa[i] != pb[i] {
			return false
		}
	}
	return true
}

// tailTables fills the exact search's settled-tail tables for its order
// and the dominance classes dom: tailPost[k] is the summed posting length
// of order[:k], and classPos[classStart[c]:classStart[c+1]] lists the
// positions in order of class c's facts, ascending.
func (e *Evaluator) tailTables(order, dom []int32) (tailPost []int64, classStart, classPos []int32) {
	nf := len(order)
	e.tailPost = grow(e.tailPost, nf+1)
	e.classStart = grow(e.classStart, nf+1)
	e.classPos = grow(e.classPos, nf)
	tailPost, classStart, classPos = e.tailPost, e.classStart, e.classPos
	clear(classStart)
	tailPost[0] = 0
	for k, fi := range order {
		tailPost[k+1] = tailPost[k] + int64(e.postStart[fi+1]-e.postStart[fi])
		classStart[dom[fi]+1]++
	}
	for c := range nf {
		classStart[c+1] += classStart[c]
	}
	for k, fi := range order {
		c := dom[fi]
		classPos[classStart[c]] = int32(k)
		classStart[c]++
	}
	// The fill advanced each class's start to the next class's.
	copy(classStart[1:], classStart[:nf])
	classStart[0] = 0
	return tailPost, classStart, classPos
}

// domCntScratch returns the cleared per-class on-path counter used by
// the exact search's dominance pruning.
func (e *Evaluator) domCntScratch() []int32 {
	if cap(e.domCnt) < len(e.facts) {
		e.domCnt = make([]int32, len(e.facts))
	} else {
		e.domCnt = e.domCnt[:len(e.facts)]
		for i := range e.domCnt {
			e.domCnt[i] = 0
		}
	}
	return e.domCnt
}

// GreedyGain computes the marginal utility of adding fact fi to the
// current greedy speech (whose per-row deviations are tracked in curDev).
func (e *Evaluator) GreedyGain(fi int) float64 {
	v := e.facts[fi].Value
	truth, curDev := e.truth, e.curDev
	gain := 0.0
	post := e.posting(fi)
	for _, i := range post {
		dev := curDev[i]
		gain += dev - min(dev, math.Abs(v-truth[i]))
	}
	e.JoinedRows += int64(len(post))
	return gain
}

// CommitFact folds fact fi into the greedy expectation state, the
// Π_{E,R}(R ⋊⋉M f*) recomputation of Algorithm 2 Line 11.
func (e *Evaluator) CommitFact(fi int) {
	v := e.facts[fi].Value
	truth, curDev := e.truth, e.curDev
	post := e.posting(fi)
	for _, i := range post {
		curDev[i] = min(curDev[i], math.Abs(v-truth[i]))
	}
	e.JoinedRows += int64(len(post))
}

// ResetGreedy restores the expectation state to the prior, so the same
// evaluator can run multiple algorithms.
func (e *Evaluator) ResetGreedy() {
	copy(e.curDev, e.priorDev)
}

// CurrentError returns the accumulated deviation of the current greedy
// state.
func (e *Evaluator) CurrentError() float64 {
	sum := 0.0
	for _, d := range e.curDev {
		sum += d
	}
	return sum
}

// GroupBound computes the upper utility-gain bound for every fact of a
// group: Σ curDev grouped by the group's dimensions, maximized over value
// combinations (Algorithm 3 Line 15). Adding a fact can at most reduce
// the error within its scope to zero, so the summed current deviation
// bounds the gain of any fact in the group and of all specializations.
//
// The group's per-row slots were resolved at build time (they are
// invariant across greedy iterations), so each bound is one array scan
// over the view into the shared dense accumulator — no radix rebuild, no
// hashing, no allocation.
func (e *Evaluator) GroupBound(g *FactGroup) float64 {
	if len(g.Dims) == 0 {
		return e.CurrentError()
	}
	n := e.view.NumRows()
	sums := e.boundSums[:g.numSlots]
	for i := range sums {
		sums[i] = 0
	}
	rs := e.rowSlots[g.slotsOff : g.slotsOff+n]
	for i := 0; i < n; i++ {
		sums[rs[i]] += e.curDev[i]
	}
	best := 0.0
	for _, s := range sums {
		if s > best {
			best = s
		}
	}
	e.JoinedRows += int64(n)
	return best
}

// chosenMarkScratch returns the cleared fact-chosen mark, reused across
// greedy runs (profiling showed the old map[int32]bool dominating the
// gain scan's skip check).
func (e *Evaluator) chosenMarkScratch() []bool {
	if cap(e.chosenMark) < len(e.facts) {
		e.chosenMark = make([]bool, len(e.facts))
	} else {
		e.chosenMark = e.chosenMark[:len(e.facts)]
		for i := range e.chosenMark {
			e.chosenMark[i] = false
		}
	}
	return e.chosenMark
}

// aliveMarkScratch returns the group-alive mark set to true, reused
// across greedy iterations.
func (e *Evaluator) aliveMarkScratch() []bool {
	if cap(e.aliveMark) < len(e.groups) {
		e.aliveMark = make([]bool, len(e.groups))
	} else {
		e.aliveMark = e.aliveMark[:len(e.groups)]
	}
	for i := range e.aliveMark {
		e.aliveMark[i] = true
	}
	return e.aliveMark
}

// utilOrderSorter orders fact indices by decreasing single-fact utility
// with index tiebreak; a reusable sort.Interface so the exact algorithm's
// canonical ordering allocates nothing.
type utilOrderSorter struct {
	idx   []int32
	utils []float64
}

func (s *utilOrderSorter) Len() int { return len(s.idx) }
func (s *utilOrderSorter) Less(a, b int) bool {
	ua, ub := s.utils[s.idx[a]], s.utils[s.idx[b]]
	if ua != ub {
		return ua > ub
	}
	return s.idx[a] < s.idx[b]
}
func (s *utilOrderSorter) Swap(a, b int) { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

// orderedFactsByUtility fills the evaluator's reusable order buffer with
// fact indices in canonical decreasing-utility order, the order used by
// the exact algorithm's permutation pruning.
func (e *Evaluator) orderedFactsByUtility(utils []float64) []int32 {
	e.orderBuf = grow(e.orderBuf, len(utils))
	for i := range e.orderBuf {
		e.orderBuf[i] = int32(i)
	}
	e.sorter.idx, e.sorter.utils = e.orderBuf, utils
	sort.Sort(&e.sorter)
	e.sorter.idx, e.sorter.utils = nil, nil
	return e.orderBuf
}
