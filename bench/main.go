// Command bench is Cicero's benchmark: seven named workloads that each run
// the system's whole life cycle in this one process — pre-process, snapshot,
// map, boot, answer one client and then nproc clients over loopback, publish
// deltas — check every answer against an oracle, and print the end-to-end
// metrics (-trace 0) or, from ladders that add one layer per rung, the
// per-layer metrics (-trace 1). README.md in this directory says how to run,
// read and compare it; BENCHMARK.json at the repository root is its contract.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setupRepeats is how many times an untraced run sets the system up:
// setup_s is the undisturbed estimate over them.
const setupRepeats = 3

// record is one line of results.jsonl: a run, where it ran and what it
// printed.
type record struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Trace    int         `json:"trace"`
	Env      environment `json:"env"`
	Result   *result     `json:"result"`
}

func main() {
	workload := flag.String("workload", "", "workload to run; empty runs all seven")
	seed := flag.Int64("seed", 1, "traffic seed (the data seed is fixed)")
	seconds := flag.Float64("seconds", measuredSeconds, "measured seconds per workload; 15 is the full-scale run")
	trace := flag.Int("trace", 0, "1 runs the traced ladders and prints the per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "out"), "directory for results.jsonl, span files and scratch files")
	compare := flag.Bool("compare", false, "compare two result sets: -compare A B")
	baseline := flag.String("baseline", "", "print the medians, quartiles and environment of the result set in this directory")
	printContract := flag.Bool("contract", false, "print BENCHMARK.json as the program's tables define it")
	flag.Parse()

	switch {
	case *printContract:
		if _, err := os.Stdout.Write(contract()); err != nil {
			fatal(err)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two result directories"))
		}
		worse, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	case *baseline != "":
		if err := writeBaseline(os.Stdout, *baseline); err != nil {
			fatal(err)
		}
		return
	}

	specs := workloads
	if *workload != "" {
		sp := findWorkload(*workload)
		if sp == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		specs = []spec{*sp}
	}
	for i := range specs {
		if err := runAndPrint(&specs[i], *seed, *seconds, *trace, *out); err != nil {
			fatal(err)
		}
	}
}

// measuredSeconds is BENCHMARK.json's run_seconds: what the driver passes
// as --seconds. With it the seven workloads take about 105 s in a quiet
// hour, so the driver's 158 runs and two builds fit its 3,420 s with a
// quarter to spare; the spare is for the hours in which the host is a third
// slower and the fixed work of a run (set-ups, oracle, rebuild check) with it.
const measuredSeconds = 10

// contract renders BENCHMARK.json from the tables in workloads.go and
// metrics.go, which are what the program runs and prints. The file at the
// repository root is this output; bench_test.go holds the two together.
func contract() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []metric   `json:"end_to_end"`
		PerLayer   []metric   `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: measuredSeconds}
	for _, sp := range workloads {
		doc.Workloads = append(doc.Workloads, workload{sp.name, sp.why})
	}
	for i := range endToEnd {
		d := &endToEnd[i]
		doc.EndToEnd = append(doc.EndToEnd, metric{d.Name, d.Unit, d.Better, &d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, metric{d.Name, d.Unit, d.Better, nil})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // strings and numbers always marshal
	}
	return append(out, '\n')
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	var guard *guardError
	if errors.As(err, &guard) {
		os.Exit(2)
	}
	os.Exit(1)
}

// runAndPrint runs one workload, prints one line per metric and then the
// result line, and appends the run to results.jsonl.
func runAndPrint(sp *spec, seed int64, seconds float64, trace int, out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	opt := runOptions{seed: seed, seconds: seconds, trace: trace == 1, dir: scratch, setups: setupRepeats}
	if opt.trace {
		opt.setups = 1
	}
	start := time.Now()
	res, err := runWorkload(context.Background(), sp, opt)
	if err != nil {
		return err
	}
	if opt.trace {
		name := "trace-" + sp.name + ".json"
		if err := os.Rename(filepath.Join(scratch, name), filepath.Join(out, name)); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d took %.1f s\n", sp.name, seed, time.Since(start).Seconds())

	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	for _, d := range defs {
		if d.listedOn(sp.name) {
			fmt.Printf("%s %s %v %s\n", sp.name, d.Name, res.Metrics[d.Name].Value, d.Unit)
		}
	}
	if !opt.trace {
		if (metricDef{On: serving}).listedOn(sp.name) {
			fmt.Printf("%s roundtrip_p99_us %v us\n", sp.name, res.probeP99)
		}
		fmt.Printf("%s failed_share %v ratio\n", sp.name, float64(res.Failed)/float64(res.Attempted))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := appendRecord(out, record{Workload: sp.name, Seed: seed, Seconds: seconds, Trace: trace, Env: currentEnvironment(), Result: res}); err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func appendRecord(dir string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
