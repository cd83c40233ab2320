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
// resumes from the last completed problem. Solvers are pluggable behind
// a registry that unifies the paper's optimizing algorithms (E, G-B,
// G-P, G-O) with the evaluation's sampling and ML baselines.
//
// Run and RunProblems are the only batch drivers; the registry's
// optimizing solvers call the per-problem core in package engine
// (engine.Solve).
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"time"

	"cicero/internal/engine"
	"cicero/internal/fact"
	"cicero/internal/relation"
	"cicero/internal/snapshot"
	"cicero/internal/summarize"
)

// Options configures a pipeline run.
type Options struct {
	// Solver names the registered solver to use (default "G-O").
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
	// ContinueOnError keeps the batch running past failing problems,
	// reporting them in Stats (Failed, FirstErr). When false (default),
	// the first failure cancels the run and Run returns the error.
	ContinueOnError bool
	// Seed perturbs the per-problem seeds handed to randomized solvers.
	Seed int64
	// SnapshotPath, when non-empty, additionally writes the finished
	// store as a binary snapshot (internal/snapshot) to this path after
	// a successful run, making the batch's output a deployable artifact
	// a daemon cold-starts from in milliseconds. The write is atomic
	// (temp file + rename); a failed write fails the run, since the
	// caller asked for a durable artifact.
	SnapshotPath string
	// SnapshotFingerprint tags the snapshot with the build parameters
	// that shaped it (see Fingerprint); a daemon refuses to cold-start
	// from a snapshot whose tag differs from its own flags.
	SnapshotFingerprint string
	// Delta records the row-delta provenance of this run: empty for a
	// run over the pristine dataset, otherwise the delta batch's tag
	// (delta.Batch.Tag). It is part of the checkpoint identity, so a
	// checkpoint written against deltaed rows can never be resumed —
	// and silently merged — under different delta settings, and vice
	// versa. It does not change what is solved; it names what the rows
	// were when it was solved.
	Delta string
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
	if solverName == "" {
		solverName = string(engine.AlgGreedyOpt)
	}
	return fmt.Sprintf("seed=%d maxlen=%d facts=%d factdims=%d minrows=%d prior=%s targets=%s dims=%s factdimcols=%s solver=%s",
		dataSeed, cfg.MaxQueryLen, cfg.MaxFacts, cfg.MaxFactDims, cfg.MinSubsetRows, cfg.Prior,
		strings.Join(cfg.Targets, ","), strings.Join(cfg.Dimensions, ","),
		strings.Join(cfg.FactDimensions, ","), solverName)
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
	// Failed counts problems that returned an error.
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
	// JoinedRows, FactsEvaluated, GroupsPruned, BoundsComputed and
	// NodesExpanded sum the kernel's work counters (summarize.RunStats)
	// over the solved problems: the paper's processing-cost metric
	// (Figures 3/4), which repeats exactly where the stage times do not.
	JoinedRows     int64
	FactsEvaluated int
	GroupsPruned   int
	BoundsComputed int
	NodesExpanded  int64
	// Elapsed is the wall-clock time of the run; PerQuery divides it by
	// the number of problems solved.
	Elapsed  time.Duration
	PerQuery time.Duration
	// Stages breaks accumulated work time down by pipeline stage.
	Stages StageTimes
	// FirstErr is the first per-problem error observed (only meaningful
	// with ContinueOnError, where Run itself returns nil).
	FirstErr error
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
// harness subsamples large workloads this way) through the same staged
// pipeline as Run. Consecutive problems over the same data subset (one
// View and FreeDims) form one work item, as Run's subsets do.
func RunProblems(ctx context.Context, rel *relation.Relation, cfg engine.Config, problems []engine.Problem, opts Options) (*engine.Store, Stats, error) {
	if err := cfg.Validate(rel); err != nil {
		return nil, Stats{}, err
	}
	source := func(yield func(job) error) error {
		for start := 0; start < len(problems); {
			end := start + 1
			for end < len(problems) && problems[end].View == problems[start].View &&
				slices.Equal(problems[end].FreeDims, problems[start].FreeDims) {
				end++
			}
			seqs := make([]int, end-start)
			for i := range seqs {
				seqs[i] = start + i
			}
			if err := yield(job{seqs: seqs, problems: problems[start:end]}); err != nil {
				if errors.Is(err, engine.ErrStopEnumeration) {
					return nil
				}
				return err
			}
			start = end
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
	solver, baseOpts, solverName, err := solverSetup(cfg, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	if opts.Checkpoint != nil {
		// cfg is validated by the callers, so the column lists are fully
		// resolved and the fingerprint covers the effective run.
		err := opts.Checkpoint.bind(CheckpointMeta{
			Dataset:        rel.Name(),
			Rows:           rel.NumRows(),
			Solver:         solverName,
			Targets:        strings.Join(cfg.Targets, ","),
			Dimensions:     strings.Join(cfg.Dimensions, ","),
			FactDimensions: strings.Join(cfg.FactDimensions, ","),
			MaxQueryLen:    cfg.MaxQueryLen,
			MaxFactDims:    cfg.MaxFactDims,
			MaxFacts:       cfg.MaxFacts,
			Prior:          string(cfg.Prior),
			MinSubsetRows:  cfg.MinSubsetRows,
			Template:       fmt.Sprintf("%+v", opts.Template),
			Delta:          opts.Delta,
		})
		if err != nil {
			return nil, Stats{}, err
		}
	}
	// Internal cancellation lets the sink abort the producer and workers
	// on a fatal failure without cancelling the caller's ctx.
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
				solveJob(runCtx, rel, cfg, solver, baseOpts, opts, j, func(res result) { results <- res })
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
	var fatalErr error
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
			if stats.FirstErr == nil {
				stats.FirstErr = res.err
			}
			if !opts.ContinueOnError {
				cancel()
			}
			done++
			report()
		case res.summary.Stats.Cancelled:
			// A solver that swallowed the cancellation and returned its
			// aborted partial summary with a nil error (easy to write by
			// wrapping engine.Solve without re-checking ctx) must not
			// have that near-empty speech stored and checkpointed as
			// done forever; treat it like a cancelled in-flight solve.
			continue
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
					// A checkpoint that stops recording is fatal in every
					// mode: continuing would hand back a store the resume
					// log no longer covers.
					if fatalErr == nil {
						fatalErr = fmt.Errorf("pipeline: checkpoint: %w", err)
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
	if fatalErr != nil {
		return nil, stats, fatalErr
	}
	if sourceErr != nil {
		return nil, stats, sourceErr
	}
	if stats.FirstErr != nil && !opts.ContinueOnError {
		return nil, stats, stats.FirstErr
	}
	stats.Speeches = store.Len()
	frozen := store.Freeze()
	if opts.SnapshotPath != "" {
		if err := snapshot.WriteFileTagged(opts.SnapshotPath, frozen, rel, opts.SnapshotFingerprint); err != nil {
			return nil, stats, fmt.Errorf("pipeline: write snapshot: %w", err)
		}
	}
	return frozen, stats, nil
}

// solverSetup resolves the named solver and derives the per-problem
// kernel options the way run hands them to every solve worker: the
// configuration's fact budget overrides the caller's. Factored out so the
// delta path's one-problem re-solves (ProblemSolver) can never drift from
// the batch pipeline.
func solverSetup(cfg engine.Config, opts Options) (Solver, summarize.Options, string, error) {
	solverName := opts.Solver
	if solverName == "" {
		solverName = string(engine.AlgGreedyOpt)
	}
	solver, ok := LookupSolver(solverName)
	if !ok {
		return nil, summarize.Options{}, "", fmt.Errorf("pipeline: unknown solver %q (registered: %v)", solverName, Solvers())
	}
	baseOpts := opts.Solve
	baseOpts.MaxFacts = cfg.MaxFacts
	return solver, baseOpts, solverName, nil
}

// ProblemSolver re-solves individual problems with exactly the
// semantics a full Run over the same Options would apply: the same
// registered solver, the same derived kernel options, the same
// deterministic per-problem seed, and the same template rendering. It
// is the solving core of the incremental path (internal/delta), where
// the bit-identical-to-rebuild guarantee rests on this equivalence.
// Safe for concurrent use; each Solve acquires a pooled evaluator.
type ProblemSolver struct {
	rel      *relation.Relation
	cfg      engine.Config
	solver   Solver
	baseOpts summarize.Options
	opts     Options
}

// NewProblemSolver validates the configuration and binds the solver and
// options for one-problem re-solves. Checkpoint and Progress hooks are
// ignored: a ProblemSolver solves what it is handed.
func NewProblemSolver(rel *relation.Relation, cfg engine.Config, opts Options) (*ProblemSolver, error) {
	if err := cfg.Validate(rel); err != nil {
		return nil, err
	}
	solver, baseOpts, _, err := solverSetup(cfg, opts)
	if err != nil {
		return nil, err
	}
	opts.Checkpoint = nil
	opts.Progress = nil
	return &ProblemSolver{rel: rel, cfg: cfg, solver: solver, baseOpts: baseOpts, opts: opts}, nil
}

// Solve runs evaluate → solve → render for one problem and returns the
// stored speech a full pipeline run would have produced for it.
func (ps *ProblemSolver) Solve(ctx context.Context, p engine.Problem) (*engine.StoredSpeech, error) {
	var res result
	solveJob(ctx, ps.rel, ps.cfg, ps.solver, ps.baseOpts, ps.opts,
		job{seqs: []int{0}, problems: []engine.Problem{p}}, func(r result) { res = r })
	if res.err != nil {
		return nil, res.err
	}
	if res.summary.Stats.Cancelled {
		// Mirror run's sink: an aborted partial summary must not be
		// published as if it were the problem's answer.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, context.Canceled
	}
	return &engine.StoredSpeech{
		Query:      res.problem.Query,
		Facts:      res.summary.Facts,
		Utility:    res.summary.Utility,
		PriorError: res.summary.PriorError,
		Text:       res.text,
	}, nil
}

// solveJob runs stages 2–4 for the problems of one data subset and hands
// emit one result per problem, in the job's order. Checkpointed problems
// are skipped one by one, and a fully checkpointed subset costs no fact
// generation. The rest share one candidate-fact enumeration — one keyed
// pass per fact group for all their targets — and one pooled evaluator,
// built for the first and retargeted to each following problem, so the
// rows are slotted and the postings laid out once per subset.
func solveJob(ctx context.Context, rel *relation.Relation, cfg engine.Config, solver Solver, baseOpts summarize.Options, opts Options, j job, emit func(result)) {
	var todo []result
	for k, p := range j.problems {
		res := result{seq: j.seqs[k], problem: p, key: p.Query.Canonical().Key()}
		if opts.Checkpoint != nil && opts.Checkpoint.Done(res.key) {
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
		MaxDims:  cfg.MaxFactDims,
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
		res.summary, res.err = solver.Solve(ctx, e, SolveOptions{
			Options:  baseOpts,
			Query:    p.Query,
			FreeDims: p.FreeDims,
			Seed:     problemSeed(opts.Seed, res.key),
		})
		t3 := time.Now()
		res.evalTime += t2.Sub(t1)
		res.solveTime = t3.Sub(t2)
		if res.err == nil {
			res.text = opts.Template.Render(rel, p.Query, res.summary.Facts)
			res.renderTime = time.Since(t3)
		}
		emit(res)
	}
}

// problemSeed derives a deterministic per-problem seed from the run seed
// and the problem's canonical key, so randomized solvers are reproducible
// independent of worker scheduling.
func problemSeed(runSeed int64, key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return runSeed ^ int64(h.Sum64())
}
