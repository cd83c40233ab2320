package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
)

// resultSet is the runs of one directory: per workload, the values of each
// end-to-end metric over the untraced runs and of each exact per-layer
// count over the traced ones, one per run.
type resultSet struct {
	values  map[string]map[string][]float64
	counts  map[string]map[string][]float64
	failed  map[string]int
	seeds   []int64
	seconds []float64
	envs    []environment
}

func appendNew[T comparable](list []T, v T) []T {
	for _, have := range list {
		if have == v {
			return list
		}
	}
	return append(list, v)
}

// loadSet reads dir/results.jsonl (or dir itself, if it is a file).
func loadSet(dir string) (*resultSet, error) {
	path := dir
	if info, err := os.Stat(dir); err == nil && info.IsDir() {
		path = filepath.Join(dir, "results.jsonl")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := &resultSet{
		values: map[string]map[string][]float64{}, counts: map[string]map[string][]float64{},
		failed: map[string]int{},
	}
	exact := map[string]bool{}
	for _, d := range perLayer {
		exact[d.Name] = d.Exact
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Result == nil {
			continue
		}
		into := set.values
		if rec.Trace != 0 {
			into = set.counts
		}
		if into[rec.Workload] == nil {
			into[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Result.Metrics {
			if rec.Trace == 0 || exact[name] {
				into[rec.Workload][name] = append(into[rec.Workload][name], v.Value)
			}
		}
		set.seeds, set.seconds, set.envs = appendNew(set.seeds, rec.Seed), appendNew(set.seconds, rec.Seconds), appendNew(set.envs, rec.Env)
		set.failed[rec.Workload] += rec.Result.Failed
	}
	return set, sc.Err()
}

// worseBy is how much b is worse than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets prints, per workload and end-to-end metric, both medians,
// their ratio (base: the first set), the wider of the two spreads, the
// bound, and a verdict: unresolved when a spread exceeds the bound, worse
// when the second median is worse than the first by more than the bound,
// ok otherwise. A pair the issue does not list the metric on is measured
// only because the contract wants every metric from every run; its verdict
// is printed in brackets and decides nothing. Then, where both sets hold
// traced runs, the per-layer counts that must repeat exactly: ok when every
// run of both sets gave the same number, worse otherwise. It reports
// whether any row is worse.
func compareSets(w io.Writer, dirA, dirB string) (anyWorse bool, err error) {
	a, err := loadSet(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(dirB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian A\tmedian B\tB/A\tspread\tbound\tverdict")
	for _, sp := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values[sp.name][d.Name], b.values[sp.name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			sprd := max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case sprd > d.Bound:
				verdict = "unresolved"
			case worseBy(d, ma, mb) > d.Bound:
				verdict = "worse"
			}
			if !d.listedOn(sp.name) {
				verdict = "(" + verdict + ")"
			}
			anyWorse = anyWorse || verdict == "worse"
			ratio := 0.0
			if ma != 0 {
				ratio = mb / ma
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.4f\t%.4f\t%g\t%s\n",
				sp.name, d.Name, d.Unit, ma, mb, ratio, sprd, d.Bound, verdict)
		}
		for _, d := range perLayer {
			va, vb := a.counts[sp.name][d.Name], b.counts[sp.name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict := "ok"
			for _, vs := range [][]float64{va, vb} {
				for _, v := range vs {
					if v != va[0] {
						verdict, anyWorse = "worse", true
					}
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.0f\t%.0f\t\t\texact\t%s\n", sp.name, d.Name, d.Unit, median(va), median(vb), verdict)
		}
		if fa, fb := a.failed[sp.name], b.failed[sp.name]; fa+fb > 0 {
			fmt.Fprintf(tw, "%s\tfailed\tcount\t%d\t%d\t\t\t0\tworse\n", sp.name, fa, fb)
			anyWorse = true
		}
	}
	return anyWorse, tw.Flush()
}

// summary is one metric of one workload over a result set.
type summary struct {
	Unit   string  `json:"unit"`
	Runs   int     `json:"runs"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	Listed bool    `json:"listed"` // the issue reports the metric on this workload
}

// writeBaseline prints the medians and quartiles of a result set with the
// environments its runs recorded.
func writeBaseline(w io.Writer, dir string) error {
	set, err := loadSet(dir)
	if err != nil {
		return err
	}
	doc := struct {
		Environments []environment                 `json:"environments"`
		Seeds        []int64                       `json:"seeds"`
		Seconds      []float64                     `json:"seconds"`
		FullSeconds  float64                       `json:"full_scale_seconds"`
		Workloads    map[string]map[string]summary `json:"workloads"`
	}{set.envs, set.seeds, set.seconds, fullSeconds, map[string]map[string]summary{}}
	for _, sp := range workloads {
		for _, d := range endToEnd {
			vals := set.values[sp.name][d.Name]
			if len(vals) < 2 {
				continue
			}
			if doc.Workloads[sp.name] == nil {
				doc.Workloads[sp.name] = map[string]summary{}
			}
			q1, q2, q3 := quartiles(vals)
			doc.Workloads[sp.name][d.Name] = summary{Unit: d.Unit, Runs: len(vals), Q1: q1, Median: q2, Q3: q3, Spread: spread(vals), Bound: d.Bound, Listed: d.listedOn(sp.name)}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// environment is the machine and the checkout a run was made on, recorded
// by the run itself.
type environment struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"` // "" outside a git checkout
}

func currentEnvironment() environment {
	return environment{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        firstMatch("/proc/cpuinfo", "model name"),
		Kernel:     strings.TrimSpace(readFile("/proc/sys/kernel/osrelease")),
		Commit:     gitCommit(),
	}
}

func readFile(path string) string {
	b, _ := os.ReadFile(path) // absent on other platforms: report ""
	return string(b)
}

// firstMatch returns the value of the first "key : value" line of a file.
func firstMatch(path, key string) string {
	for _, line := range strings.Split(readFile(path), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// gitCommit names the commit checked out in the working directory, or ""
// when that is not the root of a git checkout (or the branch's ref is
// packed). It reads .git itself: the benchmark starts no process.
func gitCommit() string {
	head := strings.TrimSpace(readFile(".git/HEAD"))
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		return strings.TrimSpace(readFile(filepath.Join(".git", ref)))
	}
	return head
}
