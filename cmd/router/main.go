// Command router is the fault-tolerance tier of the system: it fronts
// N cmd/serve nodes as one continuously available cluster. Datasets
// are placed on the nodes by rendezvous hashing with a configurable
// replication factor — every node must be started with the matching
// -node/-cluster-nodes/-replication flags so it mounts exactly its
// share — and requests are forwarded with per-attempt timeouts, capped
// exponential backoff with jitter and failover retries across
// replicas. Failed requests and failed probes of the nodes' per-dataset
// healthz endpoints alike take a replica out of rotation; when
// every replica of a dataset is down the router serves the last known
// good answer with an explicit staleness marker instead of an error,
// and under overload it sheds with 503 and a retry hint.
//
//	router -addr :8090 -nodes n1=http://10.0.0.1:8080,n2=http://10.0.0.2:8080,n3=http://10.0.0.3:8080 \
//	    -datasets flights,stackoverflow -replication 2
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cicero/internal/cluster"
	"cicero/internal/httpserve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8090", "listen address")
		nodes    = flag.String("nodes", "", "comma-separated id=url cluster members, e.g. n1=http://10.0.0.1:8080,n2=http://10.0.0.2:8080")
		datasets = flag.String("datasets", "flights", "comma-separated datasets to route; the first is the default")
		replicas = flag.Int("replication", 2, "replicas per dataset (must match the nodes' -replication)")

		requestTimeout = flag.Duration("request-timeout", 2*time.Second, "per-attempt forwarding deadline")
		maxAttempts    = flag.Int("max-attempts", 0, "total tries per request across replicas (0: 2x replication)")
		healthEvery    = flag.Duration("health-interval", time.Second, "active health-check sweep period")
		maxInFlight    = flag.Int("max-inflight", 512, "bound on concurrently forwarded requests")
		queueTimeout   = flag.Duration("queue-timeout", 100*time.Millisecond, "admission queue timeout before shedding")
		staleEntries   = flag.Int("stale", 4096, "stale-answer cache entries (negative disables graceful degradation)")
		brkFailures    = flag.Int("breaker-failures", 5, "consecutive failed requests or probes that take a replica down")
		brkCooldown    = flag.Duration("breaker-cooldown", 2*time.Second, "how long a down replica is skipped before one trial request")
		seed           = flag.Int64("seed", 1, "backoff jitter seed")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	members, err := parseNodes(*nodes)
	if err != nil {
		fatalf("%v", err)
	}
	names := splitList(*datasets)
	if len(names) == 0 {
		fatalf("no datasets given")
	}
	r, err := cluster.New(members, names, cluster.Options{
		Replication:    *replicas,
		RequestTimeout: *requestTimeout,
		MaxAttempts:    *maxAttempts,
		HealthInterval: *healthEvery,
		MaxInFlight:    *maxInFlight,
		QueueTimeout:   *queueTimeout,
		StaleEntries:   *staleEntries,
		Breaker:        cluster.BreakerPolicy{FailureThreshold: *brkFailures, Cooldown: *brkCooldown},
		Seed:           *seed,
	})
	if err != nil {
		fatalf("%v", err)
	}

	ids := make([]string, len(members))
	for i, m := range members {
		ids[i] = m.ID
	}
	hosts, err := cluster.Assignments(ids, names, *replicas)
	if err != nil {
		fatalf("%v", err)
	}
	for _, id := range ids {
		fmt.Fprintf(os.Stderr, "placement: %s hosts %s\n", id, strings.Join(hosts[id], ","))
	}
	r.CheckHealth(ctx)
	health := r.HealthSnapshot()
	for _, n := range health.Nodes {
		state := "healthy"
		if !n.Healthy {
			state = "UNREACHABLE"
		}
		fmt.Fprintf(os.Stderr, "node %s (%s): %s\n", n.ID, n.URL, state)
	}
	go r.Run(ctx)

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           r.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	fmt.Fprintf(os.Stderr, "routing %s across %d nodes on %s (replication %d)\n",
		strings.Join(names, ","), len(members), *addr, health.Datasets[names[0]].Replication)
	context.AfterFunc(ctx, func() { fmt.Fprintln(os.Stderr, "shutting down ...") })
	err = httpserve.ListenAndServe(ctx, httpSrv)
	if ctx.Err() == nil {
		fatalf("listen: %v", err)
	}
	if !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "shutdown: %v\n", err)
	}
}

// parseNodes resolves the -nodes flag's id=url pairs.
func parseNodes(s string) ([]cluster.Node, error) {
	var out []cluster.Node
	for _, part := range splitList(s) {
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad -nodes entry %q (want id=url)", part)
		}
		out = append(out, cluster.Node{ID: id, URL: url})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no cluster members given (-nodes id=url,...)")
	}
	return out, nil
}

// splitList splits a comma-separated flag, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "router: "+format+"\n", args...)
	os.Exit(1)
}
