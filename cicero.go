// Package cicero is a Go implementation of "Optimally Summarizing Data by
// Small Fact Sets for Concise Answers to Voice Queries" (Trummer &
// Anderson, ICDE 2021): a voice query interface that answers simple
// analytical queries with short speech summaries, pre-generated by
// solving a speech summarization problem per supported query.
//
// The library is organized in layers:
//
//   - a columnar in-memory relational engine (dimension and target
//     columns, equality predicates, grouping);
//   - the problem model: facts (scope + typical value), speeches (fact
//     sets), user expectation models, and the deviation/utility
//     criterion;
//   - summarization algorithms: a guaranteed-optimal exact search with
//     two pruning rules, a (1−1/e)-approximate greedy algorithm, and
//     cost-optimized fact-group pruning;
//   - the end-to-end engine: a problem generator that enumerates every
//     supported query, an immutable speech store whose one index
//     (engine.Index, shared with the snapshot reader) answers by
//     near-constant-time most-specific-match lookup, and text templates;
//   - a streaming pre-processing pipeline: problems flow through
//     generate → evaluate → solve → render → sink stages with bounded
//     memory and per-stage metrics; runs are cancellable down to the
//     algorithms' inner loops and resumable from a checkpoint, and the
//     solver is one of the paper's algorithms (E, E-P, G-B, G-P, G-O),
//     by name;
//   - a voice front-end: a sample-trained text-to-query extractor and a
//     request classifier;
//   - a unified serving layer: the Answerer front door classifies any
//     voice request and routes it to the right backend — indexed store
//     lookup for summary queries, group-by cells built once per
//     generation for extrema, comparisons and the other run-time shapes,
//     canned conversational answers for help and repeat — returning a
//     uniform answer with speech text, latency, and match metadata. The
//     Answerer serves a frozen store lock-free from any number of
//     goroutines and holds it, with the relation it was summarized from
//     and that relation's cells, as one generation behind an atomic
//     pointer, so a freshly pre-processed store is published with zero
//     downtime (SwapData), and Session adds per-user conversational
//     state;
//   - a networked serving tier: an HTTP API (POST /v1/answer with one
//     utterance, GET /v1/healthz, GET /v1/stats) layered over the Answerer
//     with a sharded LRU answer cache keyed by canonicalized request
//     text (entries are tagged with the store generation they were
//     computed against, so a hot swap invalidates them automatically),
//     singleflight deduplication so concurrent identical queries execute
//     the kernel once, admission control that sheds load with 503 under
//     pressure, and per-route latency/hit-rate metrics (measured from
//     outside by the benchmark under bench/, which replays the seeded
//     workloads GenerateLoad synthesizes);
//   - multi-dataset tenancy with persistent snapshots: a Registry hosts
//     the built Answerers of N named datasets behind one daemon —
//     per-dataset hot swap, per-dataset HTTP routes
//     (/v1/{dataset}/answer, /v1/datasets) with dataset-scoped caching
//     — and the binary snapshot format (versioned, checksummed,
//     name-resolved; see internal/snapshot/FORMAT.md) turns a
//     pre-processed store into a deployable artifact, so a restarted
//     daemon cold-starts in microseconds instead of re-summarizing for
//     minutes (SaveSnapshot/MapSnapshot/SnapshotInfo).
//
// This root package re-exports the public surface; see the example
// programs under examples/ for end-to-end usage and internal/experiments
// for the reproduction of every table and figure of the paper.
package cicero

import (
	"context"
	"net/http"
	"time"

	"cicero/internal/engine"
	"cicero/internal/fact"
	"cicero/internal/httpserve"
	"cicero/internal/load"
	"cicero/internal/pipeline"
	"cicero/internal/relation"
	"cicero/internal/serve"
	"cicero/internal/snapshot"
	"cicero/internal/summarize"
	"cicero/internal/voice"
)

// Relational substrate.
type (
	// Schema describes dimension and target columns of a relation.
	Schema = relation.Schema
	// Relation is an immutable set of rows over the schema.
	Relation = relation.Relation
	// Builder accumulates rows into a Relation.
	Builder = relation.Builder
	// Predicate is an equality predicate on a dimension column.
	Predicate = relation.Predicate
	// View is a subset of relation rows.
	View = relation.View
)

// NewBuilder creates a relation builder.
func NewBuilder(name string, schema Schema) *Builder {
	return relation.NewBuilder(name, schema)
}

// Problem model (Section II of the paper).
type (
	// Fact pairs a scope with a typical value.
	Fact = fact.Fact
	// Scope assigns values to a subset of dimension columns.
	Scope = fact.Scope
	// Prior supplies default user expectations per row.
	Prior = fact.Prior
	// ConstantPrior is a row-independent prior.
	ConstantPrior = fact.ConstantPrior
	// ExpectationModel selects how listeners combine facts.
	ExpectationModel = fact.ExpectationModel
	// GenerateOptions controls candidate-fact enumeration.
	GenerateOptions = fact.GenerateOptions
)

// Expectation models compared in the paper's Figure 7 user study; the
// optimizer uses Closest.
const (
	Closest  = fact.Closest
	Farthest = fact.Farthest
	AvgScope = fact.AvgScope
	AvgAll   = fact.AvgAll
)

// GenerateFacts enumerates candidate facts for a data subset.
func GenerateFacts(v *View, target int, opts GenerateOptions) []Fact {
	return fact.Generate(v, target, opts)
}

// Utility computes U(F) = D(∅) − D(F) for a speech over a view.
func Utility(v *View, facts []Fact, prior Prior, target int) float64 {
	return fact.Utility(v, facts, prior, target)
}

// MeanPrior returns the constant prior set to the view's target mean.
func MeanPrior(v *View, target int) ConstantPrior {
	return fact.MeanPrior(v, target)
}

// Summarization algorithms (Sections IV–VI).
type (
	// Evaluator pre-computes shared state for one problem instance.
	Evaluator = summarize.Evaluator
	// Options configures a summarization run.
	Options = summarize.Options
	// Summary is a summarization result.
	Summary = summarize.Summary
	// PruningMode selects the greedy fact-pruning strategy.
	PruningMode = summarize.PruningMode
)

// Greedy pruning modes (the G-B / G-P / G-O variants of the paper).
const (
	PruneNone      = summarize.PruneNone
	PruneNaive     = summarize.PruneNaive
	PruneOptimized = summarize.PruneOptimized
)

// NewEvaluator prepares a summarization problem ⟨R, F, m⟩.
func NewEvaluator(v *View, target int, facts []Fact, prior Prior) *Evaluator {
	return summarize.NewEvaluator(v, target, facts, prior)
}

// Greedy runs the near-optimal greedy algorithm (Algorithm 2).
func Greedy(e *Evaluator, opts Options) Summary {
	return summarize.Greedy(e, opts)
}

// Exact runs the guaranteed-optimal exact algorithm (Algorithm 1).
func Exact(e *Evaluator, opts Options) Summary {
	return summarize.Exact(e, opts)
}

// End-to-end engine (Section III).
type (
	// Config is the pre-processing configuration file.
	Config = engine.Config
	// Query is a supported voice query.
	Query = engine.Query
	// NamedPredicate is a (column, value) equality predicate by name.
	NamedPredicate = engine.NamedPredicate
	// Store holds pre-generated speeches for run-time lookup.
	Store = engine.Store
	// StoreView is the read-only accessor surface the serving stack
	// depends on; *Store and SnapshotMap both implement it.
	StoreView = engine.StoreView
	// StoredSpeech is one pre-generated speech answer.
	StoredSpeech = engine.StoredSpeech
	// Template renders fact sets into speech text.
	Template = engine.Template
	// Algorithm selects a summarization method for pre-processing by
	// name: "E", "E-P", "G-B", "G-P" or "G-O".
	Algorithm = engine.Algorithm
)

// DefaultConfig returns the paper's default configuration for a relation.
func DefaultConfig(rel *Relation) Config {
	return engine.DefaultConfig(rel)
}

// Streaming pre-processing pipeline: the production offline path. It
// streams problems through generate → evaluate → solve → render → sink
// stages with bounded memory, honors context cancellation down to the
// algorithms' inner loops, resumes interrupted batches from a
// checkpoint, and solves with one of the paper's algorithms, by name.
type (
	// PipelineOptions configures a pre-processing run.
	PipelineOptions = pipeline.Options
	// PipelineStats summarizes a pre-processing run with per-stage times.
	PipelineStats = pipeline.Stats
	// PipelineProgress is one monotonic progress snapshot.
	PipelineProgress = pipeline.Progress
	// Checkpoint records completed problems for crash/cancel recovery.
	Checkpoint = pipeline.Checkpoint
)

// Preprocess runs the streaming pre-processing pipeline over every
// supported query of the configuration, returning a frozen speech store.
func Preprocess(ctx context.Context, rel *Relation, cfg Config, opts PipelineOptions) (*Store, PipelineStats, error) {
	return pipeline.Run(ctx, rel, cfg, opts)
}

// Persistent store snapshots: the binary, versioned, checksummed
// artifact of pre-processing (internal/snapshot, format documented in
// internal/snapshot/FORMAT.md). A daemon cold-starts by mapping a
// snapshot (MapSnapshot) instead of re-summarizing for minutes.

// SnapshotMeta describes a snapshot without loading its speeches.
type SnapshotMeta = snapshot.Meta

// Snapshot load errors, distinguishable with errors.Is.
var (
	// ErrSnapshotCorrupt reports a truncated, bit-flipped, or
	// non-snapshot file.
	ErrSnapshotCorrupt = snapshot.ErrCorrupt
	// ErrSnapshotVersion reports an incompatible format version.
	ErrSnapshotVersion = snapshot.ErrVersion
	// ErrSnapshotDataset reports a snapshot written for a different
	// dataset or schema than the relation it is loaded against.
	ErrSnapshotDataset = snapshot.ErrDataset
)

// SaveSnapshot writes the store as a binary snapshot, atomically
// (temp file + rename).
func SaveSnapshot(path string, store *Store, rel *Relation) error {
	return snapshot.WriteFile(path, store, rel)
}

// SnapshotInfo returns a snapshot's metadata (dataset, schema, speech
// count, size) without rebuilding the store. Header and structure are
// verified; the payload checksum is deferred to SnapshotMap.Verify.
func SnapshotInfo(path string) (SnapshotMeta, error) {
	return snapshot.InfoFile(path)
}

// SnapshotMap is the zero-copy snapshot reader: a StoreView served
// directly out of the mapped snapshot bytes — O(page-fault) cold
// start and near-zero steady-state heap — over the same index as the
// heap store. See snapshot.Map for the lifetime contract.
type SnapshotMap = snapshot.Map

// MapSnapshot maps the snapshot at path as a zero-copy serving view
// (reading it into memory on platforms without mmap). Use the result
// anywhere a StoreView is accepted — NewAnswerer included.
func MapSnapshot(path string, rel *Relation) (*SnapshotMap, error) {
	return snapshot.MapFile(path, rel)
}

// Voice front-end.
type (
	// VoiceExtractor maps recognized text to structured queries.
	VoiceExtractor = voice.Extractor
	// VoiceSample teaches the extractor a target-column phrase.
	VoiceSample = voice.Sample
	// RequestType classifies voice requests (help/repeat/query/other).
	RequestType = voice.RequestType
	// Classification is the analysis result for one request.
	Classification = voice.Classification
)

// NewVoiceExtractor builds a text-to-query extractor for a relation.
func NewVoiceExtractor(rel *Relation, samples []VoiceSample, maxQueryLen int) *VoiceExtractor {
	return voice.NewExtractor(rel, samples, maxQueryLen)
}

// ClassifyRequest analyzes one voice request.
func ClassifyRequest(text string, ex *VoiceExtractor) Classification {
	return voice.Classify(text, ex)
}

// Serving layer: the unified run-time front door.
type (
	// Answerer routes any classified voice request to the right backend
	// and is safe for concurrent use.
	Answerer = serve.Answerer
	// AnswerResult is the uniform serving result: speech text, latency,
	// and match metadata.
	AnswerResult = serve.Answer
	// AnswerKind identifies which backend produced an answer.
	AnswerKind = serve.Kind
	// ServeOptions tunes an Answerer.
	ServeOptions = serve.Options
	// ServeSession adds per-user conversational state ("repeat").
	ServeSession = serve.Session
)

// Answer kinds.
const (
	KindSummary     = serve.Summary
	KindExtremum    = serve.Extremum
	KindComparison  = serve.Comparison
	KindHelp        = serve.Help
	KindRepeat      = serve.Repeat
	KindUnsupported = serve.Unsupported
	KindUnknown     = serve.Unknown
)

// NewAnswerer builds the serving front door over any store view — a
// pre-processed or loaded heap store (frozen as a side effect), or a
// zero-copy SnapshotMap.
func NewAnswerer(rel *Relation, store StoreView, ex *VoiceExtractor, opts ServeOptions) *Answerer {
	return serve.New(rel, store, ex, opts)
}

// Multi-dataset tenancy: one Registry hosts the built Answerers of N
// named datasets with per-dataset hot swap, so a single daemon serves
// every scenario at once.

// Registry hosts named dataset Answerers behind one serving surface.
type Registry = serve.Registry

// ErrUnknownDataset reports a dataset name no tenant is registered
// under (mapped to HTTP 404 by the serving tier).
var ErrUnknownDataset = serve.ErrUnknownDataset

// NewRegistry returns an empty dataset registry.
func NewRegistry() *Registry { return serve.NewRegistry() }

// Networked serving tier: the HTTP front end over an Answerer, with a
// sharded LRU answer cache (invalidated automatically on store swaps),
// singleflight deduplication of identical concurrent queries, admission
// control, and per-route metrics — plus the seeded workload generator
// the benchmark replays against it.
type (
	// HTTPServer serves POST /v1/answer, GET /v1/healthz, GET /v1/stats.
	HTTPServer = httpserve.Server
	// HTTPOptions tunes the cache, admission control, and limits.
	HTTPOptions = httpserve.Options
	// HTTPResult is one served answer plus cache/singleflight metadata.
	HTTPResult = httpserve.Result
	// HTTPStats is the metrics snapshot served on /v1/stats.
	HTTPStats = httpserve.StatsSnapshot
	// LoadOptions shapes a synthesized query workload.
	LoadOptions = load.Options
	// LoadMix weighs the request kinds of a workload.
	LoadMix = load.Mix
)

// ErrOverloaded reports a request shed by admission control (HTTP 503).
var ErrOverloaded = httpserve.ErrOverloaded

// NewServer builds the HTTP serving tier over one Answerer, mounted as
// the one tenant ("default") of a registry server.
func NewServer(a *Answerer, opts HTTPOptions) *HTTPServer {
	return httpserve.New(a, opts)
}

// Serve runs the HTTP serving tier on addr until ctx is cancelled,
// then shuts down gracefully (draining in-flight requests for up to
// five seconds). It always returns a non-nil error; after a clean
// shutdown that error is http.ErrServerClosed.
func Serve(ctx context.Context, addr string, a *Answerer, opts HTTPOptions) error {
	return httpserve.ListenAndServe(ctx, &http.Server{
		Addr:              addr,
		Handler:           httpserve.New(a, opts).Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	})
}

// GenerateLoad synthesizes a mixed, zipf-skewed voice-query workload
// over a relation for replay against the HTTP tier.
func GenerateLoad(rel *Relation, opts LoadOptions) []string {
	return load.Generate(rel, opts)
}
