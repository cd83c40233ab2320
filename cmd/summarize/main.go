// Command summarize runs the pre-processing batch of the voice querying
// system through the streaming pipeline: it generates speech answers for
// every supported query of a data set and prints them (or a sample)
// together with batch and per-stage statistics. The batch is
// interruptible (ctrl-C or SIGTERM) and, with a checkpoint file,
// resumable from the last completed problem.
//
// Usage:
//
//	summarize -data flights [-solver G-O] [-maxlen 2] [-facts 3] [-show 5]
//	summarize -csv data.csv -config config.json [-solver E]
//	summarize -data acs -checkpoint acs.ckpt            # first attempt
//	summarize -data acs -checkpoint acs.ckpt -resume    # after an interrupt
//	summarize -data acs -snapshot-out snapshots/acs.snap
//	  # emit the deployable binary artifact cmd/serve cold-starts from
//
// With -delta (a row-op journal) or -delta-synth (a synthesized one) it
// runs the incremental path instead: only the problems the changed rows
// can influence are re-solved against the base store (-delta-base, or
// built in-process), and -patch-out emits the patch artifact cmd/serve
// replays over the base snapshot at cold start.
//
//	summarize -data acs -prior zero -delta-synth 8 -patch-out snapshots/acs.patch
//	summarize -data acs -delta ops.json -delta-base snapshots/acs.snap -patch-out snapshots/acs.patch
//
// The batch and the incremental publish are measured by bench/
// (preprocess_greedy, preprocess_exact, publish_under_read).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/pipeline"
	"cicero/internal/relation"
	"cicero/internal/snapshot"
	"cicero/internal/summarize"
)

func main() {
	var (
		dataName   = flag.String("data", "flights", "built-in data set: "+strings.Join(dataset.Names(), ", "))
		csvPath    = flag.String("csv", "", "CSV file to summarize instead of a built-in data set")
		configPath = flag.String("config", "", "JSON configuration file (required with -csv)")
		solver     = flag.String("solver", string(engine.AlgGreedyOpt), "solver, one of the paper's algorithms: "+fmt.Sprint(engine.Algorithms()))
		maxLen     = flag.Int("maxlen", 2, "maximal query length (predicates)")
		maxFacts   = flag.Int("facts", 3, "facts per speech")
		prior      = flag.String("prior", "", "error prior: zero or global-mean (default: config)")
		rows       = flag.Int("rows", 0, "rows to generate for a built-in data set (0: its default size)")
		show       = flag.Int("show", 5, "number of sample speeches to print")
		seed       = flag.Int64("seed", 1, "data generation seed")
		timeout    = flag.Duration("timeout", 10*time.Second, "per-problem timeout for the exact algorithm")
		workers    = flag.Int("workers", 1, "parallel problem solvers")
		checkpoint = flag.String("checkpoint", "", "checkpoint file: record completed problems for crash/cancel recovery")
		resume     = flag.Bool("resume", false, "resume from an existing checkpoint instead of refusing to reuse it")
		out        = flag.String("out", "", "write the speech store to this JSON file")
		snapOut    = flag.String("snapshot-out", "", "write the speech store as a binary snapshot (the deployable artifact cmd/serve cold-starts from)")

		deltaFile  = flag.String("delta", "", "row-op journal (JSON) to ingest incrementally instead of a full batch")
		deltaSynth = flag.Int("delta-synth", 0, "synthesize this many row updates and ingest them incrementally")
		deltaBase  = flag.String("delta-base", "", "base snapshot the delta patches (empty: build the base in-process)")
		patchOut   = flag.String("patch-out", "", "write the patch artifact (base fingerprint + delta journal) for cmd/serve cold-start replay")
	)
	flag.Parse()

	rel, cfg, err := loadInput(*dataName, *csvPath, *configPath, *seed, *rows)
	if err != nil {
		fmt.Fprintln(os.Stderr, "summarize:", err)
		os.Exit(1)
	}
	if *configPath == "" {
		cfg.MaxQueryLen = *maxLen
		cfg.MaxFacts = *maxFacts
	}
	switch engine.PriorMode(*prior) {
	case "":
		// Keep the config's prior.
	case engine.PriorZero, engine.PriorGlobalMean:
		cfg.Prior = engine.PriorMode(*prior)
	default:
		fmt.Fprintf(os.Stderr, "summarize: unknown -prior %q (want zero or global-mean)\n", *prior)
		os.Exit(1)
	}
	if *deltaFile != "" || *deltaSynth > 0 {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		popts := pipeline.Options{
			Solver:  *solver,
			Workers: *workers,
			Solve:   summarize.Options{Timeout: *timeout},
		}
		runDelta(ctx, rel, cfg, *solver, *seed, popts, deltaFlags{
			opsFile:  *deltaFile,
			synth:    *deltaSynth,
			basePath: *deltaBase,
			patchOut: *patchOut,
			show:     *show,
		})
		return
	}

	// An unwritable snapshot destination must fail now, not after the
	// whole batch has been summarized.
	if *snapOut != "" {
		if err := os.MkdirAll(filepath.Dir(*snapOut), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "summarize: snapshot-out:", err)
			os.Exit(1)
		}
	}

	// ctrl-C or SIGTERM cancels the batch; the pipeline returns within one
	// problem's solve time and the checkpoint keeps completed problems.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := pipeline.Options{
		Solver:  *solver,
		Workers: *workers,
		Solve:   summarize.Options{Timeout: *timeout},
		Progress: func(p pipeline.Progress) {
			if p.Done%500 == 0 || p.Done == p.Total {
				fmt.Fprintf(os.Stderr, "\rpre-processing %d/%d (failed %d, resumed %d)",
					p.Done, p.Total, p.Failed, p.Skipped)
			}
		},
	}
	var ckpt *pipeline.Checkpoint
	if *checkpoint != "" {
		if _, err := os.Stat(*checkpoint); err == nil && !*resume {
			fmt.Fprintf(os.Stderr, "summarize: checkpoint %s exists; pass -resume to continue it or remove it first\n", *checkpoint)
			os.Exit(1)
		}
		ckpt, err = pipeline.OpenCheckpoint(*checkpoint, rel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "summarize:", err)
			os.Exit(1)
		}
		if n := ckpt.Len(); n > 0 {
			fmt.Fprintf(os.Stderr, "resuming: %d problems already completed\n", n)
		}
		opts.Checkpoint = ckpt
	}

	store, stats, err := runBatch(ctx, rel, cfg, opts, *snapOut, pipeline.Fingerprint(*seed, cfg, *solver))
	fmt.Fprintln(os.Stderr)
	if err != nil {
		if ctx.Err() != nil && ckpt != nil {
			ckpt.Close()
			fmt.Fprintf(os.Stderr, "summarize: interrupted after %d problems; rerun with -resume to continue\n", stats.Problems)
			os.Exit(130)
		}
		if ckpt != nil {
			ckpt.Close()
		}
		fmt.Fprintln(os.Stderr, "summarize:", err)
		os.Exit(1)
	}
	if ckpt != nil {
		// The batch completed: nothing left to resume.
		if err := ckpt.Remove(); err != nil {
			fmt.Fprintln(os.Stderr, "summarize: remove checkpoint:", err)
		}
	}

	fmt.Printf("data set:        %s (%d rows, %d dims, %d targets)\n",
		rel.Name(), rel.NumRows(), rel.NumDims(), rel.NumTargets())
	fmt.Printf("solver:          %s\n", *solver)
	fmt.Printf("speeches:        %d (%d resumed)\n", stats.Speeches, stats.Resumed)
	fmt.Printf("total time:      %v\n", stats.Elapsed.Round(time.Millisecond))
	fmt.Printf("per query:       %v\n", stats.PerQuery.Round(time.Microsecond))
	fmt.Printf("avg utility:     %.3f (scaled)\n", stats.AvgScaledUtility())
	fmt.Printf("stage times:     evaluate %v, solve %v, render %v, sink %v\n",
		stats.Stages.Evaluate.Round(time.Millisecond), stats.Stages.Solve.Round(time.Millisecond),
		stats.Stages.Render.Round(time.Millisecond), stats.Stages.Sink.Round(time.Millisecond))
	fmt.Printf("work counters:   %d joined rows, %d facts evaluated, %d groups pruned, %d bounds computed, %d nodes expanded, %d leaves settled\n",
		stats.JoinedRows, stats.FactsEvaluated, stats.GroupsPruned, stats.BoundsComputed, stats.NodesExpanded, stats.LeavesSettled)
	if stats.TimedOut > 0 {
		fmt.Printf("timeouts:        %d problems fell back to greedy\n", stats.TimedOut)
	}

	if *out != "" {
		if err := store.SaveFile(*out, rel); err != nil {
			fmt.Fprintln(os.Stderr, "summarize: save store:", err)
			os.Exit(1)
		}
		fmt.Printf("store written:   %s\n", *out)
	}
	if *snapOut != "" {
		// runBatch already wrote it atomically; report its size.
		if meta, err := snapshot.InfoFile(*snapOut); err == nil {
			fmt.Printf("snapshot:        %s (%d bytes, %d speeches)\n", *snapOut, meta.Size, meta.Speeches)
		}
	}

	if *show > 0 {
		fmt.Printf("\nsample speeches:\n")
		for i, sp := range store.Speeches() {
			if i >= *show {
				break
			}
			fmt.Printf("  [%s]\n    %s\n", sp.Query.String(), sp.Text)
		}
	}
}

// runBatch runs the pre-processing batch and, when snapOut is set,
// writes the finished store there atomically as a binary snapshot tagged
// with fingerprint: the deployable artifact cmd/serve cold-starts from,
// and the tag lets it verify at boot that the artifact matches its own
// -seed/-maxlen/-solver flags. A failed write fails the batch, since the
// caller asked for a durable artifact.
func runBatch(ctx context.Context, rel *relation.Relation, cfg engine.Config, opts pipeline.Options, snapOut, fingerprint string) (*engine.Store, pipeline.Stats, error) {
	store, stats, err := pipeline.Run(ctx, rel, cfg, opts)
	if err != nil || snapOut == "" {
		return store, stats, err
	}
	if err := snapshot.WriteFileTagged(snapOut, store, rel, fingerprint); err != nil {
		return nil, stats, fmt.Errorf("write snapshot: %w", err)
	}
	return store, stats, nil
}

// loadInput resolves the input relation and configuration. rows
// overrides a built-in data set's default size (0 keeps the default);
// it does not apply to CSV input.
func loadInput(dataName, csvPath, configPath string, seed int64, rows int) (*relation.Relation, engine.Config, error) {
	if csvPath != "" {
		if configPath == "" {
			return nil, engine.Config{}, fmt.Errorf("-csv requires -config (schema is read from the config)")
		}
		cfg, err := engine.LoadConfigFile(configPath)
		if err != nil {
			return nil, engine.Config{}, err
		}
		schema := relation.Schema{Dimensions: cfg.Dimensions, Targets: cfg.Targets}
		rel, skipped, err := relation.FromCSVFile(cfg.Dataset, csvPath, schema)
		if err != nil {
			return nil, engine.Config{}, err
		}
		if skipped > 0 {
			fmt.Fprintf(os.Stderr, "skipped %d rows with unparsable targets\n", skipped)
		}
		return rel, cfg, nil
	}
	name := strings.ToLower(dataName)
	if rows <= 0 {
		rows = dataset.DefaultRows[name]
	}
	rel := dataset.ByNameRows(name, rows, seed)
	if rel == nil {
		return nil, engine.Config{}, fmt.Errorf("unknown data set %q (want one of %s)", dataName, strings.Join(dataset.Names(), ", "))
	}
	return rel, engine.DefaultConfig(rel), nil
}
