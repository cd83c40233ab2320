// Package pipeline is the streaming offline half of the voice querying
// system — the orchestration of the paper's generate → evaluate →
// solve flow whose output the serve layer answers from: it turns a
// configuration into a populated speech store by running every
// supported query through five stages —
//
//	generate problems → build evaluator → solve → render → sink
//
// — with a bounded number of in-flight problems, so memory stays flat no
// matter how many queries the configuration spans (summaries stream into
// the store sink instead of accumulating in a slice). The work item is
// one data subset with its problems under every target, which share one
// candidate-fact enumeration and one evaluator layout. The whole run is
// driven by a context.Context: cancellation propagates into the solver
// inner loops (summarize.ExactCtx/GreedyCtx), so an interrupted batch
// returns within one problem's solve time; combined with a Checkpoint it
// resumes from the last completed problem. The solver is one of the
// paper's algorithms (E, E-P, G-B, G-P, G-O), by name.
//
// Run and RunProblems are the only batch drivers; every solve calls the
// per-problem core in package engine (engine.Solve).
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"cicero/internal/engine"
	"cicero/internal/fact"
	"cicero/internal/relation"
	"cicero/internal/summarize"
)

// Options configures a pipeline run.
type Options struct {
	// Solver names one of engine.Algorithms() (default "G-O").
	Solver string
	// Workers bounds concurrent solve stages (default 1). Problems are
	// independent, so the solve stage parallelizes embarrassingly; the
	// sink stays single-threaded and order-independent.
	Workers int
	// Solve carries the per-problem algorithm parameters; MaxFacts is
	// overridden by the configuration.
	Solve summarize.Options
	// Template renders fact sets into speech text.
	Template engine.Template
	// Checkpoint, if non-nil, records every completed problem and lets
	// the run skip problems completed by a previous (interrupted) run.
	Checkpoint *Checkpoint
	// Progress, if non-nil, receives a snapshot after every finished
	// problem (solved, failed, or skipped). Calls come from the single
	// sink goroutine, so counts are monotonically non-decreasing.
	Progress func(Progress)

	// beforeSolve, set only by this package's tests, runs before every
	// solve; an error it returns is the problem's.
	beforeSolve func(ctx context.Context, q engine.Query) error
}

// Fingerprint renders the canonical build-provenance tag for a
// pre-processed store: every configuration knob that changes the
// store's content without changing the dataset's name or schema —
// column selections, query/fact bounds, prior model, subset floor,
// data seed, and solver. Writers (cmd/summarize -snapshot-out, the
// daemon's snapshot write-back) and boot-time validators (cmd/serve
// -snapshot-dir) must derive the tag through this one function so
// their comparisons can never drift. A false mismatch (e.g. a config
// file spelling out the default column lists explicitly) costs one
// rebuild; a false match would silently serve a stale store, so the
// tag errs on the side of including knobs.
func Fingerprint(dataSeed int64, cfg engine.Config, solverName string) string {
	// An unknown name is tagged as given; a run with it fails.
	alg, _ := algorithm(solverName)
	return fmt.Sprintf("seed=%d maxlen=%d facts=%d factdims=%d minrows=%d prior=%s targets=%s dims=%s factdimcols=%s solver=%s",
		dataSeed, cfg.MaxQueryLen, cfg.MaxFacts, cfg.MaxFactDims, cfg.MinSubsetRows, cfg.Prior,
		strings.Join(cfg.Targets, ","), strings.Join(cfg.Dimensions, ","),
		strings.Join(cfg.FactDimensions, ","), alg)
}

// FingerprintDelta renders the build-provenance tag for a store
// pre-processed over deltaed rows: the base Fingerprint plus the delta
// batch's tag. An empty delta yields exactly Fingerprint, so artifacts
// written before the delta path existed stay valid; any non-empty
// delta makes the tag — and therefore snapshot/boot validation —
// distinguish a patched store from the pristine build.
func FingerprintDelta(dataSeed int64, cfg engine.Config, solverName, delta string) string {
	fp := Fingerprint(dataSeed, cfg, solverName)
	if delta != "" {
		fp += " delta=" + delta
	}
	return fp
}

// Progress is one monotonic progress snapshot.
type Progress struct {
	// Done counts problems finished for any reason: solved, failed, or
	// skipped via checkpoint.
	Done int
	// Solved, Failed and Skipped split Done by outcome.
	Solved, Failed, Skipped int
	// Total is the number of problems the run spans, or -1 when the
	// streaming source does not know it upfront.
	Total int
}

// StageTimes accumulates per-stage work time across all problems; with
// N workers the wall-clock share of a stage is roughly its fraction of
// the sum. Sink covers store insertion plus checkpoint writes.
type StageTimes struct {
	Evaluate time.Duration // candidate-fact generation + evaluator build
	Solve    time.Duration // solver runtime
	Render   time.Duration // speech text rendering
	Sink     time.Duration // store insert + checkpoint append
}

// Stats summarizes a pipeline run.
type Stats struct {
	// Problems counts problems solved by this run (excluding skips).
	Problems int
	// Speeches is the size of the returned store, including speeches
	// seeded from a resumed checkpoint.
	Speeches int
	// Failed counts problems that returned an error; the first of them
	// cancels the run, so it exceeds one only by the problems already in
	// flight.
	Failed int
	// Resumed counts problems skipped because a checkpoint already held
	// their speech.
	Resumed int
	// TotalFacts accumulates candidate fact counts across solved problems.
	TotalFacts int
	// SumScaledUtility sums the scaled utilities for averaging. The terms
	// are added in enumeration order, not in the order the workers finish,
	// so the sum repeats bit for bit at any worker count.
	SumScaledUtility float64
	// TimedOut counts problems where the exact algorithm hit its timeout.
	TimedOut int
	// JoinedRows, FactsEvaluated, GroupsPruned, BoundsComputed,
	// NodesExpanded and LeavesSettled sum the kernel's work counters
	// (summarize.RunStats) over the solved problems: the paper's
	// processing-cost metric (Figures 3/4), which repeats exactly where
	// the stage times do not.
	JoinedRows     int64
	FactsEvaluated int
	GroupsPruned   int
	BoundsComputed int
	NodesExpanded  int64
	LeavesSettled  int64
	// Elapsed is the wall-clock time of the run; PerQuery divides it by
	// the number of problems solved.
	Elapsed  time.Duration
	PerQuery time.Duration
	// Stages breaks accumulated work time down by pipeline stage.
	Stages StageTimes
}

// AvgScaledUtility returns the mean scaled utility across solved problems.
func (s Stats) AvgScaledUtility() float64 {
	if s.Problems == 0 {
		return 0
	}
	return s.SumScaledUtility / float64(s.Problems)
}

// Run pre-processes every supported query of the configuration into a
// frozen speech store, streaming data subsets from the generator so
// memory stays bounded by 2×Workers in-flight subsets. Cancelling ctx
// stops the run within one problem's solve time and returns ctx's error;
// completed problems stay recorded in the checkpoint (if any) for a
// later resume.
func Run(ctx context.Context, rel *relation.Relation, cfg engine.Config, opts Options) (*engine.Store, Stats, error) {
	if err := cfg.Validate(rel); err != nil {
		return nil, Stats{}, err
	}
	total := -1
	if opts.Progress != nil {
		// The exact problem count requires one cheap enumeration pass
		// (no views are materialized); only pay for it when someone
		// watches progress.
		if n, err := engine.CountProblems(rel, cfg); err == nil {
			total = n
		}
	}
	source := func(yield func(job) error) error {
		return engine.EachSubset(rel, cfg, func(s engine.Subset) error {
			return yield(job{seqs: s.Seqs, problems: s.Problems})
		})
	}
	return run(ctx, rel, cfg, source, total, opts)
}

// RunProblems pre-processes an explicit problem list (the experiment
// harness subsamples large workloads this way, and delta.Apply hands it
// a publish's dirty set) through the same staged pipeline as Run. Every
// problem over the same data subset (one View and FreeDims), wherever it
// stands in the list, joins one work item, as Run's subsets do; the work
// items go in order of their first problem.
func RunProblems(ctx context.Context, rel *relation.Relation, cfg engine.Config, problems []engine.Problem, opts Options) (*engine.Store, Stats, error) {
	if err := cfg.Validate(rel); err != nil {
		return nil, Stats{}, err
	}
	source := func(yield func(job) error) error {
		var jobs []job
		byView := make(map[*relation.View][]int) // indices into jobs
	group:
		for seq, p := range problems {
			for _, k := range byView[p.View] {
				if slices.Equal(jobs[k].problems[0].FreeDims, p.FreeDims) {
					jobs[k].seqs = append(jobs[k].seqs, seq)
					jobs[k].problems = append(jobs[k].problems, p)
					continue group
				}
			}
			byView[p.View] = append(byView[p.View], len(jobs))
			jobs = append(jobs, job{seqs: []int{seq}, problems: []engine.Problem{p}})
		}
		for _, j := range jobs {
			if err := yield(j); err != nil {
				if errors.Is(err, engine.ErrStopEnumeration) {
					return nil
				}
				return err
			}
		}
		return nil
	}
	return run(ctx, rel, cfg, source, len(problems), opts)
}

// job is the pipeline's work item: the problems of one data subset, each
// with its position in the enumeration.
type job struct {
	seqs     []int
	problems []engine.Problem
}

// result carries one problem's outcome from a solve worker to the sink.
type result struct {
	seq     int
	problem engine.Problem
	key     string
	summary summarize.Summary
	text    string
	skipped bool
	err     error
	// candidates is the number of candidate facts the problem was solved
	// over.
	candidates int
	// stage timings measured by the worker
	evalTime, solveTime, renderTime time.Duration
}

// scoredProblem is a solved problem's term of Stats.SumScaledUtility.
type scoredProblem struct {
	seq           int
	scaledUtility float64
}

// run wires the stages together: one producer streaming subsets, N
// solve workers, one sink goroutine (the caller) folding results into
// the store, the checkpoint, and the stats.
func run(ctx context.Context, rel *relation.Relation, cfg engine.Config, source func(func(job) error) error, total int, opts Options) (*engine.Store, Stats, error) {
	start := time.Now()
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	ps, err := newProblemSolver(rel, cfg, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	if opts.Checkpoint != nil {
		// cfg is validated by the callers, so the column lists are fully
		// resolved and the fingerprint covers the effective run.
		err := opts.Checkpoint.bind(CheckpointMeta{
			Dataset:        rel.Name(),
			Rows:           rel.NumRows(),
			Solver:         string(ps.alg),
			Targets:        strings.Join(cfg.Targets, ","),
			Dimensions:     strings.Join(cfg.Dimensions, ","),
			FactDimensions: strings.Join(cfg.FactDimensions, ","),
			MaxQueryLen:    cfg.MaxQueryLen,
			MaxFactDims:    cfg.MaxFactDims,
			MaxFacts:       cfg.MaxFacts,
			Prior:          string(cfg.Prior),
			MinSubsetRows:  cfg.MinSubsetRows,
			Template:       fmt.Sprintf("%+v", opts.Template),
		})
		if err != nil {
			return nil, Stats{}, err
		}
	}
	// Internal cancellation lets the sink abort the producer and workers
	// on the first failure without cancelling the caller's ctx.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Each channel holds up to workers items: the memory bound on
	// in-flight data subsets and results beyond the ones being solved.
	jobs := make(chan job, workers)
	results := make(chan result, workers)

	// Stage 1: the producer streams subsets from the generator. It never
	// materializes more than the channel capacity ahead of the workers —
	// the memory bound of the whole pipeline.
	var sourceErr error
	go func() {
		defer close(jobs)
		sourceErr = source(func(j job) error {
			select {
			case jobs <- j:
				return nil
			case <-runCtx.Done():
				return engine.ErrStopEnumeration
			}
		})
	}()

	// Stages 2–4: solve workers generate a subset's candidate facts, build
	// the evaluator, and run the solver and render the speech text for
	// each of the subset's problems.
	workersDone := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { workersDone <- struct{}{} }()
			for j := range jobs {
				ps.solveJob(runCtx, j, func(res result) { results <- res })
			}
		}()
	}
	go func() {
		for w := 0; w < workers; w++ {
			<-workersDone
		}
		close(results)
	}()

	// Stage 5: the sink — this goroutine — folds results into the store
	// in arrival order (the store is keyed by query, so order does not
	// matter), appends the checkpoint, and reports progress.
	store := engine.NewStore()
	var stats Stats
	var firstErr error
	var utilities []scoredProblem
	if opts.Checkpoint != nil {
		for _, sp := range opts.Checkpoint.Resumed() {
			store.Add(sp)
		}
	}
	done := 0
	report := func() {
		if opts.Progress != nil {
			opts.Progress(Progress{Done: done, Solved: stats.Problems,
				Failed: stats.Failed, Skipped: stats.Resumed, Total: total})
		}
	}
	for res := range results {
		stats.Stages.Evaluate += res.evalTime
		stats.Stages.Solve += res.solveTime
		stats.Stages.Render += res.renderTime
		switch {
		case res.skipped:
			stats.Resumed++
			done++
			report()
		case res.err != nil:
			if errors.Is(res.err, context.Canceled) || errors.Is(res.err, context.DeadlineExceeded) {
				// An in-flight solve aborted by cancellation is neither
				// solved nor failed; its problem re-runs on resume.
				continue
			}
			stats.Failed++
			if firstErr == nil {
				firstErr = res.err
			}
			cancel()
			done++
			report()
		default:
			sinkStart := time.Now()
			sp := &engine.StoredSpeech{
				Query:      res.problem.Query,
				Facts:      res.summary.Facts,
				Utility:    res.summary.Utility,
				PriorError: res.summary.PriorError,
				Text:       res.text,
			}
			store.Add(sp)
			if opts.Checkpoint != nil {
				if err := opts.Checkpoint.Record(res.key, sp); err != nil {
					// Continuing would hand back a store the resume log
					// no longer covers.
					if firstErr == nil {
						firstErr = fmt.Errorf("pipeline: checkpoint: %w", err)
					}
					cancel()
				}
			}
			stats.Problems++
			stats.TotalFacts += res.candidates
			utilities = append(utilities, scoredProblem{res.seq, res.summary.ScaledUtility()})
			if res.summary.Stats.TimedOut {
				stats.TimedOut++
			}
			stats.JoinedRows += res.summary.Stats.JoinedRows
			stats.FactsEvaluated += res.summary.Stats.FactsEvaluated
			stats.GroupsPruned += res.summary.Stats.GroupsPruned
			stats.BoundsComputed += res.summary.Stats.BoundsComputed
			stats.NodesExpanded += res.summary.Stats.NodesExpanded
			stats.LeavesSettled += res.summary.Stats.LeavesSettled
			stats.Stages.Sink += time.Since(sinkStart)
			done++
			report()
		}
	}

	slices.SortFunc(utilities, func(a, b scoredProblem) int { return a.seq - b.seq })
	for _, u := range utilities {
		stats.SumScaledUtility += u.scaledUtility
	}
	stats.Elapsed = time.Since(start)
	if stats.Problems > 0 {
		stats.PerQuery = stats.Elapsed / time.Duration(stats.Problems)
	}
	if err := ctx.Err(); err != nil {
		// The caller cancelled: completed problems live on in the
		// checkpoint, the partial store is withheld (it is not the
		// configured coverage).
		return nil, stats, err
	}
	if firstErr != nil {
		return nil, stats, firstErr
	}
	if sourceErr != nil {
		return nil, stats, sourceErr
	}
	stats.Speeches = store.Len()
	return store.Freeze(), stats, nil
}

// problemSolver is a run's worker state: the named algorithm, the
// kernel options derived from the configuration, and the template every
// problem's speech is rendered with. Safe for concurrent use; each job
// acquires a pooled evaluator.
type problemSolver struct {
	rel *relation.Relation
	cfg engine.Config
	alg engine.Algorithm
	// kernel is opts.Solve with the configuration's fact budget.
	kernel summarize.Options
	opts   Options
}

// newProblemSolver resolves the named algorithm and derives the kernel
// options: the configuration's fact budget overrides the caller's.
func newProblemSolver(rel *relation.Relation, cfg engine.Config, opts Options) (*problemSolver, error) {
	alg, ok := algorithm(opts.Solver)
	if !ok {
		return nil, fmt.Errorf("pipeline: unknown solver %q (want one of %v)", opts.Solver, engine.Algorithms())
	}
	kernel := opts.Solve
	kernel.MaxFacts = cfg.MaxFacts
	return &problemSolver{rel: rel, cfg: cfg, alg: alg, kernel: kernel, opts: opts}, nil
}

// solveJob runs stages 2–4 for the problems of one data subset and hands
// emit one result per problem, in the job's order. Checkpointed problems
// are skipped one by one, and a fully checkpointed subset costs no fact
// generation. The rest share one candidate-fact enumeration — one keyed
// pass per fact group for all their targets — and one pooled evaluator,
// built for the first and retargeted to each following problem, so the
// rows are slotted and the postings laid out once per subset.
func (ps *problemSolver) solveJob(ctx context.Context, j job, emit func(result)) {
	var todo []result
	for k, p := range j.problems {
		res := result{seq: j.seqs[k], problem: p, key: p.Query.Canonical().Key()}
		if ps.opts.Checkpoint != nil && ps.opts.Checkpoint.Done(res.key) {
			res.skipped = true
			emit(res)
			continue
		}
		todo = append(todo, res)
	}
	if len(todo) == 0 {
		return
	}
	if err := ctx.Err(); err != nil {
		for _, res := range todo {
			res.err = err
			emit(res)
		}
		return
	}
	t0 := time.Now()
	targets := make([]int, len(todo))
	for i := range todo {
		targets[i] = todo[i].problem.Target
	}
	first := &todo[0].problem
	factSets := fact.GenerateTargets(first.View, targets, fact.GenerateOptions{
		MaxDims:  ps.cfg.MaxFactDims,
		FreeDims: first.FreeDims,
	})
	generate := time.Since(t0)

	var e *summarize.Evaluator
	defer func() { summarize.ReleaseEvaluator(e) }()
	for i := range todo {
		res, p := todo[i], &todo[i].problem
		if err := ctx.Err(); err != nil {
			res.err = err
			emit(res)
			continue
		}
		t1 := time.Now()
		facts := factSets[i]
		res.candidates = len(facts)
		// The subset's fact generation is billed to its first problem.
		res.evalTime, generate = generate, 0
		if len(facts) == 0 {
			res.err = fmt.Errorf("problem %s: no candidate facts", res.key)
			res.evalTime += time.Since(t1)
			emit(res)
			continue
		}
		if e == nil {
			e = summarize.AcquireEvaluator(p.View, p.Target, facts, p.Prior)
		} else {
			e.Retarget(p.Target, facts, p.Prior)
		}
		t2 := time.Now()
		if ps.opts.beforeSolve != nil {
			res.err = ps.opts.beforeSolve(ctx, p.Query)
		}
		if res.err == nil {
			res.summary, res.err = solve(ctx, ps.alg, e, ps.kernel)
		}
		t3 := time.Now()
		res.evalTime += t2.Sub(t1)
		res.solveTime = t3.Sub(t2)
		if res.err == nil {
			res.text = ps.opts.Template.Render(ps.rel, p.Query, res.summary.Facts)
			res.renderTime = time.Since(t3)
		}
		emit(res)
	}
}
