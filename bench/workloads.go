package main

import (
	"time"

	"cicero/internal/engine"
)

// trafficKind selects the generator that renders a workload's requests.
type trafficKind int

const (
	// mixTraffic is load.Generate's deployment-log mix over a small zipf
	// pool: mostly answer-cache hits.
	mixTraffic trafficKind = iota
	// storeKeyTraffic is one utterance per stored speech key, sampled
	// uniformly: a working set larger than the answer cache.
	storeKeyTraffic
	// dialogTraffic is multi-turn sessions whose turns scan the relation.
	dialogTraffic
)

// spec is one workload: on which data, with which solver and traffic, and
// which kind of workload it is. The kind alone decides how the measured
// seconds are split (see plan).
type spec struct {
	name, why string

	// Data and pre-processing. The data seed is always 1.
	dataset     string
	rows        int
	maxQueryLen int
	maxFacts    int
	solver      string
	prior       engine.PriorMode

	// Serving.
	cacheEntries int  // httpserve.Options.CacheEntries; 0 is the default
	cluster      bool // two nodes behind a cluster.Router
	traffic      trafficKind
	// rate is the workload's offered load in requests per second: the rate
	// of the traced run's real-time open loop.
	rate float64

	// preprocess marks a workload named for pre-processing: pipeline.Run
	// back to back takes the long share of its measured seconds.
	preprocess bool
	// publishUnderRead marks the workload whose publisher runs beside the
	// reads, one publish every publishEvery seconds, instead of between
	// them.
	publishUnderRead bool

	// Guard rails: the run aborts, printing no numbers, when the observed
	// cache hit share leaves [hitMin, hitMax].
	hitMin, hitMax float64
}

// plan splits the measured seconds between back-to-back pipeline.Run,
// serving (half one client, half nproc clients) and publishing. The issue
// lists each metric on some workloads only, but the contract BENCHMARK.json
// is written to has every run report every end-to-end metric, none of them
// zero (README.md quotes it). So a workload's own phases get the long
// share and the others still run; pre-processing needs no share on a
// serving workload, whose set-ups each run the pipeline. The publish share
// is that of the publishes after the rounds; the one publish beside each
// later set-up takes about as much again.
func (sp *spec) plan(seconds float64) (preprocess, serve, publish time.Duration) {
	share := func(f float64) time.Duration { return time.Duration(f * seconds * float64(time.Second)) }
	switch {
	case sp.publishUnderRead:
		return 0, share(1), 0
	case sp.preprocess:
		return share(0.4), share(0.4), share(0.1)
	}
	return 0, share(0.8), share(0.1)
}

const (
	// fullSeconds is the measured time the phase lengths in the issue add
	// up to (10 s + 5 s of serving); -seconds/fullSeconds is the duration
	// scale of a run.
	fullSeconds = 15.0
	// publishEvery is the publisher's period at any scale.
	publishEvery = 0.5
	// publishOps is the number of row ops in one synthetic delta.
	publishOps = 10
	// dataSeed fixes every relation; -seed drives only the traffic.
	dataSeed = 1
	// pipelineWorkers is pipeline.Options.Workers for every build.
	pipelineWorkers = 2
)

var workloads = []spec{
	{
		name:    "serve_hot",
		why:     "Deployment-log mix, all cache hits once warm, on the mmapped flights store: the answer-is-a-lookup steady state, where net/http and httpserve do nearly all the work and voice and engine almost none.",
		dataset: "flights", rows: 12000, maxQueryLen: 2, maxFacts: 3, solver: "G-O", prior: engine.PriorGlobalMean,
		traffic: mixTraffic, rate: 4000,
		hitMin: 0.85, hitMax: 1,
	},
	{
		name:    "serve_miss",
		why:     "One utterance per stored speech key, uniform, against a 128-entry cache: every request pays classify, store match and an LRU insert, with no relation scan; the bypass workload for cache changes.",
		dataset: "flights", rows: 12000, maxQueryLen: 2, maxFacts: 3, solver: "G-O", prior: engine.PriorGlobalMean,
		cacheEntries: 128, traffic: storeKeyTraffic, rate: 2000,
		hitMin: 0, hitMax: 0.15,
	},
	{
		name:    "dialog_scan",
		why:     "Session dialogues on 60,000 housing rows: sessions bypass cache and singleflight and every turn is an O(rows) group-by, so this is the one workload whose latency scales with rows.",
		dataset: "housing", rows: 60000, maxQueryLen: 2, maxFacts: 3, solver: "G-O", prior: engine.PriorGlobalMean,
		traffic: dialogTraffic, rate: 600,
		hitMin: 0, hitMax: 1,
	},
	{
		name:    "cluster_hot",
		why:     "serve_hot's store and texts through a cluster.Router over two in-process nodes (RF 2, health checker on): the same traffic with one more hop, the only workload that shows the router's cost.",
		dataset: "flights", rows: 12000, maxQueryLen: 2, maxFacts: 3, solver: "G-O", prior: engine.PriorGlobalMean,
		cluster: true, traffic: mixTraffic, rate: 2000,
		hitMin: 0.85, hitMax: 1,
	},
	{
		name:    "preprocess_greedy",
		why:     "Back-to-back pipeline.Run with G-O, 3 facts, 2-predicate queries on flights: the default production batch, where fact generation and evaluator build outweigh the solve.",
		dataset: "flights", rows: 12000, maxQueryLen: 2, maxFacts: 3, solver: "G-O", prior: engine.PriorGlobalMean,
		traffic: mixTraffic, rate: 4000,
		preprocess: true,
		hitMin:     0.85, hitMax: 1,
	},
	{
		name:    "preprocess_exact",
		why:     "The same pipeline with solver E, 4 facts, 1-predicate queries and a 10 s problem timeout: the solve is nearly all of the work, so an evaluate gain that taxes the search kernel shows here.",
		dataset: "flights", rows: 12000, maxQueryLen: 1, maxFacts: 4, solver: "E", prior: engine.PriorGlobalMean,
		traffic: mixTraffic, rate: 4000,
		preprocess: true,
		hitMin:     0.85, hitMax: 1,
	},
	{
		name:    "publish_under_read",
		why:     "Reads with dirty-key canaries while a 10-op delta is applied, re-solved and swapped in every 500 ms, each purging the cache: read-path gains bought with publish-time work show here and nowhere else.",
		dataset: "flights", rows: 5000, maxQueryLen: 2, maxFacts: 3, solver: "G-O", prior: engine.PriorZero,
		traffic: mixTraffic, rate: 1000,
		publishUnderRead: true,
		hitMin:           0, hitMax: 1,
	},
}

func findWorkload(name string) *spec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
