// Command experiments regenerates the tables and figures of the paper's
// evaluation section on the synthetic data substrate.
//
// Usage:
//
//	experiments -exp all
//	experiments -exp figure3 -sample 48 -timeout 10s
//	experiments -exp table3 -seed 7
//
// Experiment identifiers: table1, figure3, figure4, figure5, table2,
// figure6, figure7, figure8, table3, figure9, figure10, figure11, ml.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"cicero/internal/experiments"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment to run (or 'all')")
		seed      = flag.Int64("seed", 1, "random seed for data and studies")
		sample    = flag.Int("sample", 24, "queries sampled per scenario (figures 3/4); 0 = all")
		timeout   = flag.Duration("timeout", 2*time.Second, "exact-algorithm timeout per problem")
		workers   = flag.Int("workers", 1, "parallel solvers in the pre-processing pipeline")
		kernelW   = flag.Int("kernel-workers", 0, "search goroutines per E-P exact solve (0 = divide cores across pipeline workers; <0 = all cores)")
		warmStart = flag.Bool("warmstart", true, "seed the E-P exact search's pruning bound with the greedy incumbent")
	)
	flag.Parse()

	params := experiments.DefaultScenarioParams()
	params.Seed = *seed
	params.SampleQueries = *sample
	params.ExactTimeout = *timeout
	params.Workers = *workers
	params.KernelWorkers = *kernelW
	params.WarmStart = *warmStart

	if err := run(os.Stdout, *exp, *seed, params); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// renderer is the common shape of all experiment results.
type renderer interface{ Render(io.Writer) }

// run executes one experiment (or all) and renders results to w.
func run(w io.Writer, exp string, seed int64, params experiments.ScenarioParams) error {
	runners := map[string]func() (renderer, error){
		"table1": func() (renderer, error) { return experiments.Table1(seed), nil },
		"figure3": func() (renderer, error) {
			return experiments.Figure3(params)
		},
		"figure4": func() (renderer, error) {
			return experiments.Figure4(params)
		},
		"figure5": func() (renderer, error) { return experiments.Figure5(seed) },
		"table2":  func() (renderer, error) { return experiments.Table2(seed) },
		"figure6": func() (renderer, error) { return experiments.Figure6(seed) },
		"figure7": func() (renderer, error) { return experiments.Figure7(seed) },
		"figure8": func() (renderer, error) { return experiments.Figure8(seed), nil },
		"table3":  func() (renderer, error) { return experiments.Table3(seed), nil },
		"figure9": func() (renderer, error) { return experiments.Figure9(seed), nil },
		"figure10": func() (renderer, error) {
			return experiments.Figure10(seed)
		},
		"figure11": func() (renderer, error) { return experiments.Figure11(seed) },
		"ml":       func() (renderer, error) { return experiments.MLExperiment(seed) },
	}
	order := []string{
		"table1", "figure3", "figure4", "figure5", "table2", "figure6",
		"figure7", "figure8", "table3", "figure9", "figure10", "figure11", "ml",
	}

	if exp != "all" {
		f, ok := runners[exp]
		if !ok {
			return fmt.Errorf("unknown experiment %q", exp)
		}
		res, err := f()
		if err != nil {
			return err
		}
		res.Render(w)
		return nil
	}
	for _, name := range order {
		start := time.Now()
		res, err := runners[name]()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		res.Render(w)
		fmt.Fprintf(w, "[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
