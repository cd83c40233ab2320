package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cicero/internal/cluster"
	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/httpserve"
	"cicero/internal/pipeline"
	"cicero/internal/relation"
	"cicero/internal/serve"
	"cicero/internal/snapshot"
	"cicero/internal/voice"
)

// exactTimeout is the per-problem timeout of the exact solver; a problem
// that hits it makes the run invalid (see guard rails).
const exactTimeout = 10 * time.Second

// generate builds the workload's relation from the fixed data seed.
func (sp *spec) generate() (*relation.Relation, error) {
	switch sp.dataset {
	case "flights":
		return dataset.Flights(sp.rows, dataSeed), nil
	case "housing":
		return dataset.Housing(sp.rows, dataSeed), nil
	}
	return nil, fmt.Errorf("workload %s: unknown dataset %q", sp.name, sp.dataset)
}

// config is the pre-processing configuration of the workload.
func (sp *spec) config(rel *relation.Relation) (engine.Config, pipeline.Options, error) {
	cfg := engine.DefaultConfig(rel)
	cfg.MaxQueryLen = sp.maxQueryLen
	cfg.MaxFacts = sp.maxFacts
	cfg.Prior = sp.prior
	if err := cfg.Validate(rel); err != nil {
		return cfg, pipeline.Options{}, err
	}
	popts := pipeline.Options{Solver: sp.solver, Workers: pipelineWorkers}
	popts.Solve.Timeout = exactTimeout
	return cfg, popts, nil
}

// newExtractor trains the workload's text-to-query extractor the way
// cmd/serve does.
func newExtractor(sp *spec, rel *relation.Relation) *voice.Extractor {
	return voice.NewExtractor(rel, voice.DefaultSamples(sp.dataset), sp.maxQueryLen)
}

// listener is one http.Server on a loopback port.
type listener struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	l := &listener{
		url:  "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: h},
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns ErrServerClosed on close
	}()
	return l, nil
}

// close drops every connection and waits for the accept loop to end.
func (l *listener) close() {
	_ = l.hs.Close()
	<-l.done
}

// node is one serving daemon: a mapped snapshot behind an httpserve.Server
// on its own listener.
type node struct {
	view *snapshot.Map
	srv  *httpserve.Server
	ln   *listener
}

// setupTimes is one set-up and the stages of it the traced run reports.
type setupTimes struct {
	snapWrite, snapMap, warm, total time.Duration
}

// deployment is one set-up of a workload: data, store, snapshot and the
// servers answering on loopback.
type deployment struct {
	sp    *spec
	rel   *relation.Relation
	cfg   engine.Config
	popts pipeline.Options
	store *engine.Store  // heap store pipeline.Run returned
	stats pipeline.Stats // of that run
	snap  string         // snapshot file
	ex    *voice.Extractor
	nodes []*node

	router       *cluster.Router
	routerLn     *listener
	stopRouter   context.CancelFunc
	routerHealth sync.WaitGroup

	// front is the base URL clients talk to: the node, or the router.
	front string
	times setupTimes
}

// deploy runs one set-up up to, and excluding, warm-up: generate the data,
// pre-process it, write and map the snapshot, boot the servers. serial names
// the snapshot file, so that a set-up beside a live deployment leaves that
// one's file alone.
func deploy(ctx context.Context, sp *spec, dir string, serial int) (*deployment, error) {
	d := &deployment{sp: sp}
	rel, err := sp.generate()
	if err != nil {
		return nil, err
	}
	d.rel = rel
	if d.cfg, d.popts, err = sp.config(rel); err != nil {
		return nil, err
	}
	d.store, d.stats, err = pipeline.Run(ctx, rel, d.cfg, d.popts)
	if err != nil {
		return nil, fmt.Errorf("pre-process %s: %w", sp.name, err)
	}
	t2 := time.Now()
	d.snap = filepath.Join(dir, fmt.Sprintf("%s-%d.snap", sp.name, serial))
	if err := snapshot.WriteFile(d.snap, d.store, rel); err != nil {
		return nil, fmt.Errorf("write snapshot: %w", err)
	}
	t3 := time.Now()

	d.ex = newExtractor(sp, rel)
	nodes := 1
	if sp.cluster {
		nodes = 2
	}
	var mapTime time.Duration
	for i := 0; i < nodes; i++ {
		tm := time.Now()
		view, err := snapshot.MapFile(d.snap, rel)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("map snapshot: %w", err)
		}
		mapTime += time.Since(tm)
		n, err := bootNode(sp, rel, view, d.ex)
		if err != nil {
			d.close()
			return nil, err
		}
		d.nodes = append(d.nodes, n)
	}
	d.front = d.nodes[0].ln.url
	if sp.cluster {
		if err := d.bootRouter(); err != nil {
			d.close()
			return nil, err
		}
	}
	d.times = setupTimes{snapWrite: t3.Sub(t2), snapMap: mapTime}
	return d, nil
}

func bootNode(sp *spec, rel *relation.Relation, view *snapshot.Map, ex *voice.Extractor) (*node, error) {
	reg := serve.NewRegistry()
	if err := reg.Add(sp.dataset, serve.New(rel, view, ex, serve.Options{})); err != nil {
		return nil, err
	}
	srv := httpserve.NewMulti(reg, sp.dataset, httpserve.Options{CacheEntries: sp.cacheEntries})
	ln, err := listen(srv.Handler())
	if err != nil {
		return nil, err
	}
	return &node{view: view, srv: srv, ln: ln}, nil
}

func (d *deployment) bootRouter() error {
	members := make([]cluster.Node, len(d.nodes))
	for i, n := range d.nodes {
		members[i] = cluster.Node{ID: fmt.Sprintf("n%d", i+1), URL: n.ln.url}
	}
	r, err := cluster.New(members, []string{d.sp.dataset}, cluster.Options{Replication: 2})
	if err != nil {
		return err
	}
	ln, err := listen(r.Handler())
	if err != nil {
		return err
	}
	d.router, d.routerLn, d.front = r, ln, ln.url
	hctx, cancel := context.WithCancel(context.Background())
	d.stopRouter = cancel
	d.routerHealth.Add(1)
	go func() {
		defer d.routerHealth.Done()
		r.Run(hctx)
	}()
	return nil
}

// answerURL is the route every request of the workload is posted to.
func (d *deployment) answerURL() string {
	return d.front + "/v1/" + d.sp.dataset + "/answer"
}

// swap publishes a post-delta generation on every node.
func (d *deployment) swap(ctx context.Context, rel *relation.Relation, next engine.StoreView) error {
	for _, n := range d.nodes {
		if _, err := n.srv.SwapDataFor(ctx, d.sp.dataset, rel, next); err != nil {
			return err
		}
	}
	return nil
}

// close stops the router and the nodes, waits for their goroutines, and
// removes the snapshot file. The mapped views are left to their finalizer,
// as on the serving path: answers handed out earlier may still point into
// the mapping.
func (d *deployment) close() {
	if d.router != nil {
		d.stopRouter()
		d.routerHealth.Wait()
		d.routerLn.close()
	}
	for _, n := range d.nodes {
		n.ln.close()
	}
	if d.snap != "" {
		if err := os.Remove(d.snap); err != nil && !errors.Is(err, os.ErrNotExist) {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
	}
}
