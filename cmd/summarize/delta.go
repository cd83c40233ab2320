package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cicero/internal/delta"
	"cicero/internal/engine"
	"cicero/internal/pipeline"
	"cicero/internal/relation"
	"cicero/internal/snapshot"
)

// deltaFlags carries the incremental-ingestion flags into runDelta.
type deltaFlags struct {
	opsFile  string // -delta: row-op journal (JSON) to ingest
	synth    int    // -delta-synth: synthesize this many ops instead
	basePath string // -delta-base: base snapshot to patch (empty: build in-process)
	patchOut string // -patch-out: write the patch artifact here
	show     int
}

// runDelta is the incremental path of the batch tool: instead of
// re-summarizing the whole data set it ingests a row delta, re-solves
// only the problems the changed rows can influence, and emits the
// patched store — optionally as a patch artifact (base fingerprint +
// delta journal + upserts) that cmd/serve replays at cold start.
func runDelta(ctx context.Context, rel *relation.Relation, cfg engine.Config, solverName string, seed int64, popts pipeline.Options, f deltaFlags) {
	baseFP := pipeline.Fingerprint(seed, cfg, solverName)

	var b delta.Batch
	var err error
	if f.opsFile != "" {
		if b, err = delta.LoadBatchFile(f.opsFile); err != nil {
			fail("load delta: %v", err)
		}
	} else {
		b = delta.Synthesize(rel, f.synth, seed)
	}
	if len(b.Ops) == 0 {
		fail("delta batch is empty")
	}

	// The base store: the deployed artifact when -delta-base names one
	// (its build fingerprint must match this run's flags — patching a
	// store built under different parameters would splice two different
	// problem spaces), otherwise built in-process. The artifact is mapped,
	// not decoded: cutting a patch reads the base's keys, never its facts.
	var base engine.StoreView
	if f.basePath != "" {
		meta, err := snapshot.InfoFile(f.basePath)
		if err != nil {
			fail("delta-base: %v", err)
		}
		if meta.Fingerprint != baseFP {
			fail("delta-base: snapshot built with different parameters (%q, this run wants %q)", meta.Fingerprint, baseFP)
		}
		if base, err = snapshot.MapFile(f.basePath, rel); err != nil {
			fail("delta-base: %v", err)
		}
		fmt.Printf("base store:      %s (%d speeches)\n", f.basePath, base.Len())
	} else {
		start := time.Now()
		if base, _, err = pipeline.Run(ctx, rel, cfg, popts); err != nil {
			fail("build base: %v", err)
		}
		fmt.Printf("base store:      built in-process (%d speeches, %v)\n",
			base.Len(), time.Since(start).Round(time.Millisecond))
	}

	tab := delta.FromRelation(rel)
	images, err := tab.Apply(b)
	if err != nil {
		fail("%v", err)
	}
	next := tab.Rel()

	applyStart := time.Now()
	res, err := delta.Apply(ctx, base, rel, next, cfg, popts, images)
	if err != nil {
		fail("apply: %v", err)
	}
	applyTime := time.Since(applyStart)

	fmt.Printf("delta:           %d ops (%s), %d row images\n", len(b.Ops), b.Tag(), len(images))
	if res.FullDirty {
		fmt.Printf("dirty set:       FULL (dictionary drift — every problem re-solved)\n")
	} else {
		fmt.Printf("dirty set:       %d of %d problems", res.DirtyProblems, res.TotalProblems)
		if len(res.FullDirtyTargets) > 0 {
			fmt.Printf(" (whole targets re-solved: %v)", res.FullDirtyTargets)
		}
		fmt.Println()
	}
	fmt.Printf("patched store:   %d solved, %d retained, %d removed in %v\n",
		res.Solved, res.Retained, res.Removed, applyTime.Round(time.Millisecond))

	p := delta.NewPatch(baseFP, pipeline.FingerprintDelta(seed, cfg, solverName, b.Tag()), b, res)
	if f.patchOut != "" {
		if err := os.MkdirAll(filepath.Dir(f.patchOut), 0o755); err != nil {
			fail("patch-out: %v", err)
		}
		if err := snapshot.WritePatchFile(f.patchOut, p); err != nil {
			fail("patch-out: %v", err)
		}
		info, err := os.Stat(f.patchOut)
		if err != nil {
			fail("patch-out: %v", err)
		}
		fmt.Printf("patch artifact:  %s (%d bytes, %d upserts, %d removals)\n",
			f.patchOut, info.Size(), len(p.Upserts), len(p.RemovedKeys))
	}

	if f.show > 0 && len(res.Upserts) > 0 {
		fmt.Printf("\nsample re-solved speeches:\n")
		for i, sp := range res.Upserts {
			if i >= f.show {
				break
			}
			fmt.Printf("  [%s]\n    %s\n", sp.Query.String(), sp.Text)
		}
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "summarize: "+format+"\n", args...)
	os.Exit(1)
}
