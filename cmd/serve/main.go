// Command serve is the network daemon of the system: it mounts one or
// more pre-processed data sets behind a dataset registry and serves
// voice queries over HTTP — POST /v1/{dataset}/answer (single or
// batch), GET /v1/datasets, GET /v1/{dataset}/stats, plus the legacy
// default-dataset routes /v1/answer, /v1/healthz, /v1/stats — through
// the caching, deduplicating, admission-controlled tier of
// internal/httpserve.
//
// With -snapshot-dir the daemon cold-starts each dataset from its
// binary snapshot (internal/snapshot) in milliseconds when one exists,
// falling back to a full re-summarization — after which it writes the
// snapshot so the next boot is fast. With -rebuild it re-runs
// pre-processing per dataset on an interval, publishes the fresh store
// with zero downtime, and refreshes the snapshot artifact from it.
//
// With -patch-dir it additionally replays each dataset's patch artifact
// (summarize -patch-out) over the base store at cold start: an
// incremental publish reaches a rebooted daemon as base snapshot +
// patch journal, with no re-summarization.
//
//	serve -data flights -addr :8080
//	serve -datasets acs,flights -snapshot-dir snapshots -addr :8080
//	serve -datasets acs,flights -snapshot-dir snapshots -rebuild 10m
//	serve -data flights -snapshot-dir snapshots -patch-dir patches
//
// The daemon only serves; load generation and every measurement of it
// live in bench/ (bash bench/run.sh).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"cicero/internal/cluster"
	"cicero/internal/dataset"
	"cicero/internal/delta"
	"cicero/internal/engine"
	"cicero/internal/httpserve"
	"cicero/internal/pipeline"
	"cicero/internal/relation"
	"cicero/internal/serve"
	"cicero/internal/snapshot"
	"cicero/internal/voice"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		data     = flag.String("data", "flights", "single data set: "+strings.Join(dataset.Names(), ", "))
		datasets = flag.String("datasets", "", "comma-separated data sets to mount (overrides -data); the first is the default")
		seed     = flag.Int64("seed", 1, "data generation seed")
		maxLen   = flag.Int("maxlen", 2, "maximal supported query length")
		solver   = flag.String("solver", string(engine.AlgGreedyOpt), "pre-processing solver")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "pre-processing workers")
		rebuild  = flag.Duration("rebuild", 0, "re-summarize and hot-swap each dataset on this interval (0 disables)")
		snapDir  = flag.String("snapshot-dir", "", "cold-start datasets from <dir>/<name>.snap and keep the snapshots fresh")
		patchDir = flag.String("patch-dir", "", "replay <dir>/<name>.patch (summarize -patch-out) over each base store at cold start; fingerprint-gated")

		node      = flag.String("node", "", "this node's ID in the cluster (cluster mode)")
		clusterIs = flag.String("cluster-nodes", "", "comma-separated node IDs of the whole cluster; with -node, mount only this node's share")
		replicas  = flag.Int("replication", 2, "cluster replication factor (with -cluster-nodes)")

		readTimeout    = flag.Duration("read-timeout", 30*time.Second, "full-request read deadline on the listener")
		idleTimeout    = flag.Duration("idle-timeout", 120*time.Second, "keep-alive idle connection deadline")
		requestTimeout = flag.Duration("request-timeout", 0, "per-request handler deadline (0 disables)")

		cacheEntries = flag.Int("cache", 4096, "answer cache entries (negative disables)")
		maxInFlight  = flag.Int("max-inflight", 256, "bound on concurrent kernel executions")
		queueTimeout = flag.Duration("queue-timeout", 100*time.Millisecond, "admission queue timeout")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// A rebuild regenerates from the raw source, which does not include
	// the patch's row delta: the swap would silently revert the served
	// answers to the pre-delta state (and desync the answerer's patched
	// relation from the swapped store). Refuse the combination until the
	// delta is folded into the source.
	if *patchDir != "" && *rebuild > 0 {
		fatalf("-patch-dir is a cold-start replay over the base snapshot; combine it with -rebuild only after folding the delta into the raw data")
	}

	names := datasetNames(*datasets, *data)
	// Cluster mode: every node is started with the same -cluster-nodes /
	// -replication flags, so each computes the same placement as the
	// router and mounts exactly its share of the datasets — no
	// coordination service involved.
	if *clusterIs != "" {
		ids := splitList(*clusterIs)
		if *node == "" {
			fatalf("-cluster-nodes needs -node (this node's ID)")
		}
		owned, err := cluster.NodeDatasets(ids, *node, names, *replicas)
		if err != nil {
			fatalf("cluster placement: %v", err)
		}
		if len(owned) == 0 {
			fatalf("node %q hosts none of %s (is -node in -cluster-nodes?)",
				*node, strings.Join(names, ","))
		}
		fmt.Fprintf(os.Stderr, "cluster node %s: placement assigns %s (of %s)\n",
			*node, strings.Join(owned, ","), strings.Join(names, ","))
		names = owned
	}
	rels := make(map[string]*relation.Relation, len(names))
	for _, name := range names {
		rel := dataset.ByName(name, *seed)
		if rel == nil {
			fatalf("unknown data set %q", name)
		}
		rels[name] = rel
	}
	defName := names[0]

	fingerprint := func(name string) string {
		cfg := engine.DefaultConfig(rels[name])
		cfg.MaxQueryLen = *maxLen
		return pipeline.Fingerprint(*seed, cfg, *solver)
	}
	builder := func(name string) func(context.Context) (*engine.Store, error) {
		rel := rels[name]
		cfg := engine.DefaultConfig(rel)
		cfg.MaxQueryLen = *maxLen
		pipeOpts := pipeline.Options{Solver: *solver, Workers: *workers}
		return func(ctx context.Context) (*engine.Store, error) {
			store, _, err := pipeline.Run(ctx, rel, cfg, pipeOpts)
			return store, err
		}
	}

	// Mount every dataset: snapshot cold start when available, full
	// pre-processing otherwise (writing the snapshot for the next boot).
	reg := serve.NewRegistry()
	for _, name := range names {
		store, err := bootStore(ctx, name, rels[name], *snapDir, fingerprint(name), builder(name))
		if err != nil {
			fatalf("mounting %s: %v", name, err)
		}
		// A patch replay produces a patched relation alongside the patched
		// store; the extractor and answerer must be built against it, or
		// dictionary values introduced by the delta would not resolve.
		store, prel := applyColdPatch(name, rels[name], store, *patchDir, fingerprint(name))
		rels[name] = prel
		ex := voice.NewExtractor(prel, voice.DefaultSamples(name), *maxLen)
		if err := reg.Add(name, serve.New(prel, store, ex, serve.Options{})); err != nil {
			fatalf("registering %s: %v", name, err)
		}
	}

	srv := httpserve.NewMulti(reg, defName, httpserve.Options{
		CacheEntries: *cacheEntries,
		MaxInFlight:  *maxInFlight,
		QueueTimeout: *queueTimeout,
	})

	runDaemon(ctx, srv, *addr, *rebuild, names, rels, *snapDir, fingerprint, builder,
		serverTimeouts{read: *readTimeout, idle: *idleTimeout, request: *requestTimeout})
}

// datasetNames resolves the -datasets / -data flags into a non-empty,
// deduplicated mount list; the first entry is the default dataset.
func datasetNames(multi, single string) []string {
	raw := strings.Split(multi, ",")
	if multi == "" {
		raw = []string{single}
	}
	var names []string
	seen := map[string]bool{}
	for _, n := range raw {
		n = strings.ToLower(strings.TrimSpace(n))
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		names = append(names, n)
	}
	if len(names) == 0 {
		fatalf("no data sets given")
	}
	return names
}

// splitList splits a comma-separated flag verbatim (node IDs are
// case-sensitive placement keys, unlike dataset names).
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// snapPath names a dataset's snapshot artifact inside dir.
func snapPath(dir, name string) string { return filepath.Join(dir, name+".snap") }

// bootStore produces one dataset's store view: mapped zero-copy from
// its snapshot when a valid one exists, otherwise pre-processed from raw
// data (and snapshotted for the next boot when dir is set). A corrupt, version-skewed, or
// mismatched snapshot is reported and falls back to the rebuild — a
// bad artifact must never take the daemon down. The snapshot's build
// fingerprint must match this boot's flags (-seed/-maxlen/-solver): a
// structurally valid artifact built under different parameters is
// stale, not servable.
func bootStore(ctx context.Context, name string, rel *relation.Relation, dir string, fingerprint string, build func(context.Context) (*engine.Store, error)) (engine.StoreView, error) {
	if dir != "" {
		path := snapPath(dir, name)
		start := time.Now()
		view, err := snapView(path, rel, fingerprint)
		switch {
		case err == nil:
			how := "read zero-copy"
			if view.Mapped() {
				how = "mmapped"
			}
			fmt.Fprintf(os.Stderr, "%s: cold start from %s — %d speeches %s in %v\n",
				name, path, view.Len(), how, time.Since(start).Round(time.Microsecond))
			return view, nil
		case errors.Is(err, os.ErrNotExist):
			// First boot: fall through to the rebuild.
		default:
			fmt.Fprintf(os.Stderr, "%s: snapshot %s rejected (%v); rebuilding from raw data\n", name, path, err)
		}
	}
	fmt.Fprintf(os.Stderr, "%s: pre-processing ...", name)
	start := time.Now()
	store, err := build(ctx)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, " %d speeches in %v\n", store.Len(), time.Since(start).Round(time.Millisecond))
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := snapshot.WriteFileTagged(snapPath(dir, name), store, rel, fingerprint); err != nil {
			return nil, fmt.Errorf("write snapshot: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%s: snapshot written to %s\n", name, snapPath(dir, name))
	}
	return store, nil
}

// applyColdPatch replays the dataset's patch artifact over its base
// store view when one exists: the cold-start story of an incremental
// publish is base snapshot + patch journal — retained speeches are
// copied, upserts restored, removals dropped, no problem re-solved.
// The patch's base fingerprint must match this boot's (a patch cut
// against a different base would splice two generations); a missing,
// corrupt, or mismatched patch leaves the base servable.
func applyColdPatch(name string, rel *relation.Relation, view engine.StoreView, patchDir, fingerprint string) (engine.StoreView, *relation.Relation) {
	if patchDir == "" {
		return view, rel
	}
	path := filepath.Join(patchDir, name+".patch")
	p, err := snapshot.ReadPatchFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return view, rel
	case err != nil:
		fmt.Fprintf(os.Stderr, "%s: patch %s rejected (%v); serving the base\n", name, path, err)
		return view, rel
	}
	if p.BaseFingerprint != fingerprint {
		fmt.Fprintf(os.Stderr, "%s: patch %s cut against a different base (%q, this boot built %q); serving the base\n",
			name, path, p.BaseFingerprint, fingerprint)
		return view, rel
	}
	start := time.Now()
	store, next, err := delta.Replay(view, rel, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: patch replay failed (%v); serving the base\n", name, err)
		return view, rel
	}
	// The replayed store deep-copies everything it keeps, so an
	// mmap-backed base can be unmapped now instead of pinning the file.
	if m, ok := view.(*snapshot.Map); ok {
		m.Close()
	}
	fmt.Fprintf(os.Stderr, "%s: patch %s replayed — %d upserts, %d removals in %v\n",
		name, path, len(p.Upserts), len(p.RemovedKeys), time.Since(start).Round(time.Microsecond))
	return store, next
}

// snapView opens a snapshot as a serving view only if its build
// fingerprint matches what this process would build itself. The
// fingerprint gate reads just the header and metadata pages (InfoFile);
// the artifact is then mapped without an O(file) checksum scan.
func snapView(path string, rel *relation.Relation, fingerprint string) (*snapshot.Map, error) {
	meta, err := snapshot.InfoFile(path)
	if err != nil {
		return nil, err
	}
	if meta.Fingerprint != fingerprint {
		return nil, fmt.Errorf("snapshot built with different parameters (%q, this boot wants %q)",
			meta.Fingerprint, fingerprint)
	}
	return snapshot.MapFile(path, rel)
}

// serverTimeouts carries the listener and handler deadlines into
// runDaemon: a slowloris client or a wedged handler must not pin a
// connection (or a worker) forever.
type serverTimeouts struct {
	read    time.Duration // full request read
	idle    time.Duration // keep-alive idle connections
	request time.Duration // per-request handler deadline (0 disables)
}

// runDaemon serves until the context is cancelled (SIGINT/SIGTERM),
// then shuts down gracefully; the optional rebuild loop re-processes
// every dataset on its interval — build, then publish with zero
// downtime, then refresh the snapshot artifact from the store it built.
func runDaemon(ctx context.Context, srv *httpserve.Server, addr string, rebuild time.Duration,
	names []string, rels map[string]*relation.Relation, snapDir string,
	fingerprint func(string) string,
	builder func(string) func(context.Context) (*engine.Store, error),
	timeouts serverTimeouts) {
	handler := srv.Handler()
	if timeouts.request > 0 {
		handler = httpserve.WithRequestTimeout(handler, timeouts.request)
	}
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       timeouts.read,
		IdleTimeout:       timeouts.idle,
	}

	if rebuild > 0 {
		go func() {
			ticker := time.NewTicker(rebuild)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
				}
				for _, name := range names {
					start := time.Now()
					store, err := builder(name)(ctx)
					var old engine.StoreView
					if err == nil {
						old, err = srv.SwapDataFor(ctx, name, rels[name], store)
					}
					if err != nil {
						if ctx.Err() == nil {
							fmt.Fprintf(os.Stderr, "%s: rebuild failed (serving continues on the old store): %v\n", name, err)
						}
						continue
					}
					fmt.Fprintf(os.Stderr, "%s: rebuilt and hot-swapped in %v (%d -> %d speeches)\n",
						name, time.Since(start).Round(time.Millisecond), old.Len(), store.Len())
					if snapDir != "" {
						if err := snapshot.WriteFileTagged(snapPath(snapDir, name), store, rels[name], fingerprint(name)); err != nil {
							fmt.Fprintf(os.Stderr, "%s: snapshot refresh failed: %v\n", name, err)
						}
					}
				}
			}
		}()
	}

	fmt.Fprintf(os.Stderr, "serving %s on %s (POST /v1/{dataset}/answer, GET /v1/datasets, GET /v1/{dataset}/stats)\n",
		strings.Join(names, ", "), addr)
	context.AfterFunc(ctx, func() { fmt.Fprintln(os.Stderr, "shutting down ...") })
	err := httpserve.ListenAndServe(ctx, httpSrv)
	if ctx.Err() == nil {
		fatalf("listen: %v", err)
	}
	if !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "shutdown: %v\n", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "serve: "+format+"\n", args...)
	os.Exit(1)
}
