package pipeline

import (
	"context"
	"sort"
	"sync"

	"cicero/internal/baseline"
	"cicero/internal/engine"
	"cicero/internal/fact"
	"cicero/internal/summarize"
)

// SolveOptions parameterizes one solver invocation. It wraps the
// algorithm options of the summarize package with the problem metadata
// solvers outside the utility-optimizing family need: the query being
// answered, the free dimensions and a per-problem seed (the sampling
// baseline uses the last two).
type SolveOptions struct {
	summarize.Options
	// Query is the voice query the problem answers.
	Query engine.Query
	// FreeDims lists the dimension columns facts may restrict.
	FreeDims []int
	// Seed drives randomized solvers deterministically per problem.
	Seed int64
}

// Solver turns one prepared summarization problem into a speech summary.
// Implementations must honor ctx: a cancelled context should abort the
// solve promptly and return ctx.Err() (a partial summary may accompany
// the error but is discarded by the pipeline). This is the pluggable
// unit of the pre-processing pipeline: the paper's optimizing algorithms
// (E, E-P, G-B, G-P, G-O) and the evaluation's sampling baseline run
// behind this one interface.
type Solver interface {
	// Name is the registry key, e.g. "G-O" or "sampling".
	Name() string
	// Solve computes a summary for the problem held by the evaluator.
	Solve(ctx context.Context, e *summarize.Evaluator, opts SolveOptions) (summarize.Summary, error)
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Solver{}
)

// Register adds a solver to the global registry, replacing any previous
// solver of the same name (tests rely on the replacement semantics).
func Register(s Solver) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[s.Name()] = s
}

// LookupSolver resolves a registered solver by name.
func LookupSolver(name string) (Solver, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// Solvers lists the registered solver names, sorted.
func Solvers() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// engineSolver adapts the paper's optimizing algorithms to the Solver
// interface via the shared engine.Solve core.
type engineSolver struct {
	alg engine.Algorithm
}

func (s engineSolver) Name() string { return string(s.alg) }

func (s engineSolver) Solve(ctx context.Context, e *summarize.Evaluator, opts SolveOptions) (summarize.Summary, error) {
	sum := engine.Solve(ctx, s.alg, e, opts.Options)
	// ctx here is the run's context: when it ends — cancel or deadline —
	// the batch is over and this problem's partial result is deliberately
	// discarded (an expired run deadline would otherwise "complete" every
	// remaining problem with an instantly-aborted, useless speech and
	// checkpoint it as done). Per-problem time bounds go through
	// opts.Timeout, which keeps the best-so-far speech with
	// Stats.TimedOut set.
	if err := ctx.Err(); err != nil {
		return sum, err
	}
	return sum, nil
}

// SamplingSolverName is the registry key of the sampling baseline.
const SamplingSolverName = "sampling"

// samplingSolver adapts the prior work's run-time sampling vocalizer to
// the pre-processing pipeline: the confidence ranges it emits are
// collapsed to their midpoints and scored with the utility model, so its
// speeches are directly comparable to the optimizing algorithms'.
type samplingSolver struct{}

func (s samplingSolver) Name() string { return SamplingSolverName }

func (s samplingSolver) Solve(ctx context.Context, e *summarize.Evaluator, opts SolveOptions) (summarize.Summary, error) {
	so := baseline.SamplingOptions{MaxFacts: opts.MaxFacts, Seed: opts.Seed}
	res := baseline.SamplingAnswerCtx(ctx, e.View(), e.Target(), opts.FreeDims, so)
	if err := ctx.Err(); err != nil {
		return summarize.Summary{}, err
	}
	facts := make([]fact.Fact, len(res.Facts))
	for i, rf := range res.Facts {
		facts[i] = fact.Fact{Scope: rf.Scope, Value: rf.Mid()}
	}
	u := fact.Utility(e.View(), facts, e.Prior(), e.Target())
	prior := e.PriorError()
	return summarize.Summary{
		Facts:         facts,
		Utility:       u,
		PriorError:    prior,
		ResidualError: prior - u,
		Stats: summarize.RunStats{
			FactsEvaluated: len(res.Facts),
			JoinedRows:     int64(res.SampledRows),
			Elapsed:        res.Total,
		},
	}, nil
}

func init() {
	for _, alg := range engine.Algorithms() {
		Register(engineSolver{alg: alg})
	}
	Register(samplingSolver{})
}
