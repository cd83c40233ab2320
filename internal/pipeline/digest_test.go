package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/relation"
)

// This file pins what a whole batch writes: for the four pipeline.Run
// configurations the benchmark pre-processes (bench/workloads.go), a
// SHA-256 over every stored speech — canonical key, fact dims and codes,
// the bits of each value, utility and prior error, and the text — plus
// the sums of the kernel's work counters. The golden file was generated
// at the commit before the evaluate stage went hash-free (d848d12 with
// only the counter fields added), so a digest that still matches is the
// proof that the rewrite changed no decision and no bit of any store.
//
// Regenerate (only when a change is meant to alter stored speeches) with:
//
//	DIGEST_UPDATE=1 go test ./internal/pipeline/ -run TestStoreDigest

const digestGoldenPath = "testdata/store_digest.json"

type digestConfig struct {
	name        string
	rel         func() *relation.Relation
	maxQueryLen int
	maxFacts    int
	solver      string
	prior       engine.PriorMode
}

func digestConfigs() []digestConfig {
	return []digestConfig{
		{"preprocess_greedy", func() *relation.Relation { return dataset.Flights(12000, 1) }, 2, 3, "G-O", engine.PriorGlobalMean},
		{"preprocess_exact", func() *relation.Relation { return dataset.Flights(12000, 1) }, 1, 4, "E", engine.PriorGlobalMean},
		{"dialog_scan", func() *relation.Relation { return dataset.Housing(60000, 1) }, 2, 3, "G-O", engine.PriorGlobalMean},
		{"publish_under_read", func() *relation.Relation { return dataset.Flights(5000, 1) }, 2, 3, "G-O", engine.PriorZero},
	}
}

// storeDigest is one configuration's golden record.
type storeDigest struct {
	SHA256         string
	Speeches       int
	JoinedRows     int64
	FactsEvaluated int
	GroupsPruned   int
	BoundsComputed int
	NodesExpanded  int64
}

// build generates the configuration's relation and the arguments the
// benchmark hands pipeline.Run for it (bench/deploy.go).
func (dc digestConfig) build() (*relation.Relation, engine.Config, Options) {
	rel := dc.rel()
	cfg := engine.DefaultConfig(rel)
	cfg.MaxQueryLen = dc.maxQueryLen
	cfg.MaxFacts = dc.maxFacts
	cfg.Prior = dc.prior
	opts := Options{Solver: dc.solver, Workers: 2}
	opts.Solve.Timeout = 10 * time.Second
	return rel, cfg, opts
}

// digestOf runs the configuration's batch at the given worker count and
// returns its digest and Stats. Progress must count up one problem at a
// time to the total.
func digestOf(t *testing.T, dc digestConfig, workers int) (storeDigest, Stats) {
	t.Helper()
	rel, cfg, opts := dc.build()
	opts.Workers = workers
	var last Progress
	opts.Progress = func(p Progress) {
		if p.Done != last.Done+1 || p.Done != p.Solved+p.Failed+p.Skipped || p.Done > p.Total {
			t.Errorf("%s at %d workers: progress %+v after %+v", dc.name, workers, p, last)
		}
		last = p
	}
	store, stats, err := Run(context.Background(), rel, cfg, opts)
	if err != nil {
		t.Fatalf("%s: %v", dc.name, err)
	}
	if last.Done != last.Total || last.Solved != stats.Problems {
		t.Errorf("%s at %d workers: last progress %+v, %d problems solved", dc.name, workers, last, stats.Problems)
	}
	if stats.TimedOut > 0 {
		t.Fatalf("%s: %d problems timed out; the digest of a truncated search means nothing", dc.name, stats.TimedOut)
	}
	h := sha256.New()
	var buf [8]byte
	u64 := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	for _, sp := range store.Speeches() {
		str(sp.Query.Canonical().Key())
		u64(uint64(len(sp.Facts)))
		for _, f := range sp.Facts {
			u64(uint64(len(f.Scope.Dims)))
			for i, d := range f.Scope.Dims {
				u64(uint64(d))
				u64(uint64(f.Scope.Codes[i]))
			}
			u64(math.Float64bits(f.Value))
		}
		u64(math.Float64bits(sp.Utility))
		u64(math.Float64bits(sp.PriorError))
		str(sp.Text)
	}
	return storeDigest{
		SHA256:         hex.EncodeToString(h.Sum(nil)),
		Speeches:       stats.Speeches,
		JoinedRows:     stats.JoinedRows,
		FactsEvaluated: stats.FactsEvaluated,
		GroupsPruned:   stats.GroupsPruned,
		BoundsComputed: stats.BoundsComputed,
		NodesExpanded:  stats.NodesExpanded,
	}, stats
}

// readDigestGolden loads the checked-in digests.
func readDigestGolden(t *testing.T) map[string]storeDigest {
	t.Helper()
	golden := map[string]storeDigest{}
	raw, err := os.ReadFile(digestGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	return golden
}

func TestStoreDigest(t *testing.T) {
	update := os.Getenv("DIGEST_UPDATE") != ""
	golden := map[string]storeDigest{}
	if !update {
		golden = readDigestGolden(t)
	}
	for _, dc := range digestConfigs() {
		if raceEnabled && dc.solver == "E" {
			// Ten times slower under the race detector, the exact search
			// would run into its own per-problem timeout; the plain test
			// step covers this configuration.
			continue
		}
		got, _ := digestOf(t, dc, 2)
		if update {
			golden[dc.name] = got
			continue
		}
		if want, ok := golden[dc.name]; !ok {
			t.Errorf("%s: no golden record", dc.name)
		} else if got != want {
			t.Errorf("%s: store digest moved\n got  %+v\n want %+v", dc.name, got, want)
		}
	}
	if update {
		raw, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreDigestScheduling: which worker takes which data subset, and
// in which order the sink hears of its problems, is up to the scheduler.
// At one worker, at eight, and at the benchmark's two on one processor,
// every configuration must still write the checked-in digest with all
// five counters, add Stats.SumScaledUtility to the same bits as the
// benchmark's two workers, and report progress one problem at a time up
// to the total.
func TestStoreDigestScheduling(t *testing.T) {
	if raceEnabled {
		t.Skip("three more batches per configuration; the plain test step runs them")
	}
	golden := readDigestGolden(t)
	for _, dc := range digestConfigs() {
		_, base := digestOf(t, dc, 2)
		for _, v := range []struct {
			name             string
			workers, maxProc int
		}{{"workers=1", 1, 0}, {"workers=8", 8, 0}, {"gomaxprocs=1", 2, 1}} {
			got, stats := func() (storeDigest, Stats) {
				if v.maxProc > 0 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(v.maxProc))
				}
				return digestOf(t, dc, v.workers)
			}()
			if want := golden[dc.name]; got != want {
				t.Errorf("%s %s: store digest moved\n got  %+v\n want %+v", dc.name, v.name, got, want)
			}
			if math.Float64bits(stats.SumScaledUtility) != math.Float64bits(base.SumScaledUtility) {
				t.Errorf("%s %s: utility sum %v, at two workers %v", dc.name, v.name, stats.SumScaledUtility, base.SumScaledUtility)
			}
		}
	}
}
