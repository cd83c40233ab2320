package summarize

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ExactParallel runs ExactParallelCtx without cancellation support.
func ExactParallel(e *Evaluator, opts Options) Summary {
	return ExactParallelCtx(context.Background(), e, opts)
}

// ExactParallelCtx is the parallel form of ExactCtx: Algorithm 1's
// exhaustive enumeration with both pruning rules, with the canonical
// decreasing-utility DFS split into root subtrees that are distributed
// over opts.Workers goroutines (default runtime.GOMAXPROCS(0)).
//
// The subtrees sit in a shared deque; when the deque starves — fewer
// queued subtrees than workers, the signature of a skewed search tree —
// a worker splits the node it is expanding and re-queues the sibling
// subtrees, so one heavy subtree never serializes the search. The
// incumbent bound b is shared through an atomic (utility bits behind an
// epsilon-guarded CAS): any worker's improvement immediately tightens
// every other worker's pruning rule 2. Each worker walks the
// evaluator's immutable problem layout with a private pooled pathState,
// so workers never contend on per-row scratch.
//
// The result is bit-identical to ExactCtx regardless of worker count or
// discovery order: a speech's utility is computed along its canonical
// path (same float operations in the same order as the sequential DFS),
// every potential optimum survives pruning under any bound timeline
// (the epsilon guard keeps equal-utility speeches admissible), and the
// merge breaks utility ties toward the speech that the sequential DFS
// would have evaluated first (lexicographically smallest canonical
// position sequence). Run statistics aggregate exactly — per-worker
// local counters merged at join — but NodesExpanded, SpeechesEvaluated
// and JoinedRows legitimately vary with worker scheduling for more than
// one worker, because the shared bound tightens at different moments;
// with Workers=1 they equal ExactCtx's counters exactly.
//
// Timeouts and cancellation follow ExactCtx: the first worker to
// observe the deadline (or a cancelled ctx) aborts all workers within
// ctxCheckEvery nodes each, and the merged best-so-far speech is
// returned with Stats.TimedOut or Stats.Cancelled set.
func ExactParallelCtx(ctx context.Context, e *Evaluator, opts Options) Summary {
	opts = opts.withDefaults()
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	joined0 := e.JoinedRows
	var stats RunStats
	stats.Workers = workers

	utils := e.singleFactUtilities()
	stats.FactsEvaluated = len(utils)
	order := e.orderedFactsByUtility(utils)

	m := opts.MaxFacts
	if m > len(order) {
		m = len(order)
	}

	deadline := time.Time{}
	if opts.Timeout > 0 {
		deadline = start.Add(opts.Timeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}

	bestU := -1.0
	var best []int32

	if m == 0 {
		// No candidate facts: the empty speech is the only (and optimal)
		// speech, exactly as the sequential DFS evaluates it at its root.
		stats.SpeechesEvaluated = 1
		bestU = 0
	} else {
		s := &parShared{
			e:          e,
			utils:      utils,
			order:      order,
			dom:        e.dominanceReps(),
			m:          m,
			workers:    workers,
			lowerBound: opts.LowerBound,
			queue:      newTaskQueue(),
			deadline:   deadline,
			ctx:        ctx,
			watchCtx:   ctx.Done() != nil,
		}
		// Split the first two levels at most: with the root level already
		// task-per-subtree, that is granularity enough for any worker
		// count without flooding the deque near the leaves.
		s.splitMaxDepth = m - 1
		if s.splitMaxDepth > 2 {
			s.splitMaxDepth = 2
		}
		s.bound.Store(math.Float64bits(math.Max(opts.LowerBound, 0)))
		for p := range order {
			s.queue.push(subtreeTask{prefix: []int32{int32(p)}, sumU: 0})
		}

		ws := make([]*exactWorker, workers)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			w := acquireExactWorker(e, opts.LowerBound)
			ws[i] = w
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.run(s)
			}()
		}
		wg.Wait()

		// Merge: per-worker counters sum exactly; the best speech is the
		// maximum utility with the sequential DFS's tie-break (earliest
		// canonical position sequence). Worker order cannot matter — the
		// merge rule is a total order over candidates.
		var bestPos []int32
		for _, w := range ws {
			stats.NodesExpanded += w.stats.NodesExpanded
			stats.SpeechesEvaluated += w.stats.SpeechesEvaluated
			stats.DominatedSkipped += w.stats.DominatedSkipped
			e.JoinedRows += w.joined
			if w.bestU >= 0 && (w.bestU > bestU || (w.bestU == bestU && lexLess(w.bestPos, bestPos))) {
				bestU = w.bestU
				best = w.best
				bestPos = w.bestPos
			}
		}
		switch s.abort.Load() {
		case abortTimeout:
			stats.TimedOut = true
		case abortCancel:
			stats.Cancelled = true
		}
		// best still aliases the winning worker's pooled w.best backing
		// array; copy it out before any worker returns to the pool, or a
		// concurrent ExactParallelCtx acquiring the same worker would
		// overwrite it in place.
		best = append([]int32(nil), best...)
		for _, w := range ws {
			releaseExactWorker(w)
		}
	}

	if bestU < 0 {
		bestU = 0
		best = nil
	}

	residual := e.PriorError() - bestU
	out := Summary{
		FactIdx:       best,
		Utility:       bestU,
		PriorError:    e.PriorError(),
		ResidualError: residual,
	}
	for _, fi := range best {
		out.Facts = append(out.Facts, e.Facts()[fi].Clone())
	}
	stats.Elapsed = time.Since(start)
	stats.JoinedRows = e.JoinedRows - joined0
	out.Stats = stats
	return out
}

const (
	abortNone    = 0
	abortTimeout = 1
	abortCancel  = 2
)

// parShared is the per-run state every search worker shares: the
// evaluator's immutable problem layout, the canonical order, the task
// deque, and the atomic incumbent bound.
type parShared struct {
	e             *Evaluator
	utils         []float64
	order         []int32
	dom           []int32
	m             int
	workers       int
	splitMaxDepth int
	lowerBound    float64
	bound         atomic.Uint64 // Float64bits of the shared incumbent b (≥ 0)
	abort         atomic.Int32  // abortNone / abortTimeout / abortCancel
	queue         *taskQueue
	deadline      time.Time
	ctx           context.Context
	watchCtx      bool
}

// publishBound lifts the shared incumbent to u. The CAS is
// epsilon-guarded: improvements within pruneEps of the current bound
// are not published — they could not change any pruning decision (rule
// 2 compares against b−ε) but would stampede the cache line under
// many near-tied evaluations.
func (s *parShared) publishBound(u float64) {
	for {
		cur := s.bound.Load()
		if u <= math.Float64frombits(cur)+pruneEps {
			return
		}
		if s.bound.CompareAndSwap(cur, math.Float64bits(u)) {
			return
		}
	}
}

// subtreeTask is one unit of search work: expand order[prefix[last]]
// under the path prefix[:last] and enumerate its whole subtree. sumU is
// the sum of single-fact utilities of the interior prefix (Lemma 2's
// S.U at the task's parent node).
type subtreeTask struct {
	prefix []int32
	sumU   float64
}

// taskQueue is the shared subtree deque: FIFO pop keeps the canonical
// enumeration order when one worker runs alone (bit-and-counter parity
// with ExactCtx), pending tracks queued plus in-flight tasks so workers
// know when the search is exhausted, and qlen lets the starvation probe
// run without taking the lock on the search hot path.
type taskQueue struct {
	mu      sync.Mutex
	cond    sync.Cond
	items   []subtreeTask
	head    int
	pending int
	qlen    atomic.Int64
}

func newTaskQueue() *taskQueue {
	q := &taskQueue{}
	q.cond.L = &q.mu
	return q
}

func (q *taskQueue) push(t subtreeTask) {
	q.mu.Lock()
	q.items = append(q.items, t)
	q.pending++
	q.qlen.Add(1)
	q.cond.Signal()
	q.mu.Unlock()
}

// pop blocks until a task is available or the search is exhausted
// (nothing queued and nothing in flight that could queue more).
func (q *taskQueue) pop() (subtreeTask, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.items) && q.pending > 0 {
		q.cond.Wait()
	}
	if q.head == len(q.items) {
		return subtreeTask{}, false
	}
	t := q.items[q.head]
	q.items[q.head] = subtreeTask{}
	q.head++
	q.qlen.Add(-1)
	return t, true
}

// done retires one popped task; the last retirement wakes all waiters.
func (q *taskQueue) done() {
	q.mu.Lock()
	q.pending--
	if q.pending == 0 {
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

func (q *taskQueue) starving(workers int) bool {
	return q.qlen.Load() < int64(workers)
}

// exactWorker is one search goroutine's private state: a pathState over
// the shared evaluator, the current path (fact indices and canonical
// positions), the dominance on-path counters, a worker-local exact
// incumbent (the shared atomic may lag by the epsilon guard), and local
// statistics merged at join.
type exactWorker struct {
	path    pathState
	chosen  []int32
	posSeq  []int32
	domCnt  []int32
	localB  float64
	bestU   float64
	best    []int32
	bestPos []int32
	stats   RunStats
	joined  int64
	stop    bool
}

var exactWorkerPool = sync.Pool{New: func() any { return new(exactWorker) }}

// acquireExactWorker returns a pooled worker reset for a fresh search
// over e with the given seed bound.
func acquireExactWorker(e *Evaluator, lowerBound float64) *exactWorker {
	w := exactWorkerPool.Get().(*exactWorker)
	w.chosen = w.chosen[:0]
	w.posSeq = w.posSeq[:0]
	if cap(w.domCnt) < e.NumFacts() {
		w.domCnt = make([]int32, e.NumFacts())
	} else {
		w.domCnt = w.domCnt[:e.NumFacts()]
		for i := range w.domCnt {
			w.domCnt[i] = 0
		}
	}
	w.localB = lowerBound
	w.bestU = -1
	w.best = w.best[:0]
	w.bestPos = w.bestPos[:0]
	w.stats = RunStats{}
	w.joined = 0
	w.stop = false
	return w
}

// releaseExactWorker returns a worker's scratch to the pool. The next
// acquire re-slices w.best/w.bestPos to length zero and appends into
// the same backing arrays, so the caller must finish copying any result
// it read out of the worker before releasing it.
func releaseExactWorker(w *exactWorker) {
	w.path.undoRow = w.path.undoRow[:0]
	w.path.undoVal = w.path.undoVal[:0]
	exactWorkerPool.Put(w)
}

// bound is the worker's effective pruning bound: its own exact local
// incumbent or the shared atomic, whichever is tighter.
func (w *exactWorker) bound(s *parShared) float64 {
	if g := math.Float64frombits(s.bound.Load()); g > w.localB {
		return g
	}
	return w.localB
}

// run drains the task deque until the search is exhausted or aborted.
func (w *exactWorker) run(s *parShared) {
	for {
		t, ok := s.queue.pop()
		if !ok {
			return
		}
		// Poll at every task boundary as well as inside dfs: a task whose
		// subtree is smaller than ctxCheckEvery nodes would otherwise
		// never observe a pre-cancelled context.
		if !w.checkAbort(s) {
			w.runTask(s, t)
		}
		s.queue.done()
	}
}

// runTask expands a task's root exactly like a sequential sibling:
// bound-checked against the current incumbent, dominance-checked
// against the prefix. Both checks run before the path state is
// rebuilt — begin() copies the O(rows) prior-deviation array, and
// under tight warm-start bounds most tasks die right here — so only
// surviving tasks pay for reconstructing the interior prefix (pure
// state rebuild; those expansions were already counted by the
// splitter).
func (w *exactWorker) runTask(s *parShared, t subtreeTask) {
	n := len(t.prefix)
	last := t.prefix[n-1]
	fi := s.order[last]
	u := s.utils[fi]
	remaining := s.m - (n - 1)
	if t.sumU+float64(remaining)*u < w.bound(s)-pruneEps {
		// The whole subtree is bound-pruned (the deque equivalent of the
		// sequential sibling-loop break).
		return
	}
	for _, pos := range t.prefix[:n-1] {
		if s.dom[s.order[pos]] == s.dom[fi] {
			w.stats.DominatedSkipped++
			return
		}
	}
	w.path.begin(s.e)
	w.chosen = w.chosen[:0]
	w.posSeq = w.posSeq[:0]
	for _, pos := range t.prefix[:n-1] {
		pfi := s.order[pos]
		w.chosen = append(w.chosen, pfi)
		w.posSeq = append(w.posSeq, pos)
		w.domCnt[s.dom[pfi]]++
		w.path.push(s.e, pfi)
	}
	w.stats.NodesExpanded++
	w.chosen = append(w.chosen, fi)
	w.posSeq = append(w.posSeq, last)
	w.domCnt[s.dom[fi]]++
	savedU, savedPost := w.path.u, w.path.post
	mark := w.path.push(s.e, fi)
	w.dfs(s, int(last)+1, t.sumU+u)
	w.path.pop(mark, savedU, savedPost)
	w.domCnt[s.dom[fi]]--
	w.chosen = w.chosen[:len(w.chosen)-1]
	w.posSeq = w.posSeq[:len(w.posSeq)-1]
	for i := n - 2; i >= 0; i-- {
		w.domCnt[s.dom[s.order[t.prefix[i]]]]--
	}
}

// evaluate scores the worker's current path as a completed speech: the
// incremental path state already holds its utility. Ties against the
// worker's best break toward the earlier canonical position sequence,
// which is exactly the sequential DFS's first-found-wins rule.
func (w *exactWorker) evaluate(s *parShared) {
	u := w.path.u
	w.joined += w.path.post
	w.stats.SpeechesEvaluated++
	if u > w.bestU || (u == w.bestU && lexLess(w.posSeq, w.bestPos)) {
		w.bestU = u
		w.best = append(w.best[:0], w.chosen...)
		w.bestPos = append(w.bestPos[:0], w.posSeq...)
	}
	if u > w.localB {
		w.localB = u
		s.publishBound(u)
	}
}

// checkAbort polls the deadline, the context, and the shared abort
// state; it mirrors ExactCtx's poll (deadline before cancellation) so a
// lone worker counts timeouts identically to the sequential search.
func (w *exactWorker) checkAbort(s *parShared) bool {
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		s.abort.CompareAndSwap(abortNone, abortTimeout)
		w.stop = true
		return true
	}
	if s.watchCtx {
		switch s.ctx.Err() {
		case nil:
		case context.DeadlineExceeded:
			s.abort.CompareAndSwap(abortNone, abortTimeout)
			w.stop = true
			return true
		default:
			s.abort.CompareAndSwap(abortNone, abortCancel)
			w.stop = true
			return true
		}
	}
	if s.abort.Load() != abortNone {
		w.stop = true
		return true
	}
	return false
}

// dfs is the sequential DFS of ExactCtx run on the worker's private
// path state, plus the starvation-triggered split: when the deque runs
// low near the top of the tree, the siblings of the node just expanded
// are re-queued as subtree tasks instead of being walked inline.
func (w *exactWorker) dfs(s *parShared, pos int, sumU float64) {
	if w.stop {
		return
	}
	if w.stats.NodesExpanded%ctxCheckEvery == 0 && w.checkAbort(s) {
		return
	}
	if len(w.chosen) == s.m {
		w.evaluate(s)
		return
	}
	extended := false
	remaining := s.m - len(w.chosen)
	for i := pos; i < len(s.order); i++ {
		fi := s.order[i]
		u := s.utils[fi]
		if sumU+float64(remaining)*u < w.bound(s)-pruneEps {
			break
		}
		if w.domCnt[s.dom[fi]] > 0 {
			w.stats.DominatedSkipped++
			continue
		}
		w.stats.NodesExpanded++
		extended = true
		w.chosen = append(w.chosen, fi)
		w.posSeq = append(w.posSeq, int32(i))
		w.domCnt[s.dom[fi]]++
		savedU, savedPost := w.path.u, w.path.post
		mark := w.path.push(s.e, fi)
		w.dfs(s, i+1, sumU+u)
		w.path.pop(mark, savedU, savedPost)
		w.domCnt[s.dom[fi]]--
		w.chosen = w.chosen[:len(w.chosen)-1]
		w.posSeq = w.posSeq[:len(w.posSeq)-1]
		if w.stop {
			return
		}
		if s.workers > 1 && len(w.chosen) < s.splitMaxDepth && s.queue.starving(s.workers) {
			// Offload the remaining siblings as subtree tasks. Each is
			// bound-checked now for flood control and re-checked (with a
			// possibly tighter incumbent) when popped.
			for j := i + 1; j < len(s.order); j++ {
				if sumU+float64(remaining)*s.utils[s.order[j]] < w.bound(s)-pruneEps {
					break
				}
				prefix := make([]int32, len(w.posSeq)+1)
				copy(prefix, w.posSeq)
				prefix[len(w.posSeq)] = int32(j)
				s.queue.push(subtreeTask{prefix: prefix, sumU: sumU})
			}
			return
		}
	}
	if !extended && len(w.chosen) > 0 {
		w.evaluate(s)
	}
}

// lexLess reports whether a precedes b in the canonical enumeration
// order (lexicographic over position sequences; a nil/empty b means "no
// candidate yet" and never precedes a real one via the bestU sentinel).
func lexLess(a, b []int32) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
