package cluster

import (
	"context"
	"sort"
	"sync"
	"time"
)

// ProbeFunc checks one (node, dataset) replica — production probes GET
// the node's /v1/{dataset}/healthz — returning the dataset's store
// swap count (its generation) on success.
type ProbeFunc func(ctx context.Context, node, dataset string) (swaps uint64, err error)

// healthKey identifies one replica: a dataset hosted on a node.
type healthKey struct{ node, dataset string }

// ReplicaHealth is one replica's probe state.
type ReplicaHealth struct {
	Node    string `json:"node"`
	Dataset string `json:"dataset"`
	// Healthy is the last probe verdict; replicas start healthy so a
	// router serves traffic before its first sweep completes.
	Healthy bool `json:"healthy"`
	// Swaps is the dataset's store swap count from the last good probe
	// — the generation stale cache entries are tagged with.
	Swaps uint64 `json:"swaps"`
	// Error is the last probe failure ("" when healthy).
	Error string `json:"error,omitempty"`
	// Checked is when the replica was last probed (zero before the
	// first sweep).
	Checked time.Time `json:"checked"`
}

// HealthChecker actively probes every (node, dataset) replica of the
// cluster and holds the latest verdicts. The router consults Healthy
// to demote dead replicas out of the forwarding order and Swaps to
// generation-tag stale cache entries. Run sweeps on an interval;
// Check runs one synchronous sweep (tests and boot use it directly).
type HealthChecker struct {
	probe    ProbeFunc
	interval time.Duration
	timeout  time.Duration

	mu      sync.RWMutex
	entries map[healthKey]*ReplicaHealth
}

// NewHealthChecker tracks the given replica pairs. interval is the
// sweep period for Run (default 1s); each probe is bounded by half of
// it.
func NewHealthChecker(probe ProbeFunc, ring *Ring, datasets []string, interval time.Duration) *HealthChecker {
	if interval <= 0 {
		interval = time.Second
	}
	h := &HealthChecker{
		probe:    probe,
		interval: interval,
		timeout:  interval / 2,
		entries:  make(map[healthKey]*ReplicaHealth),
	}
	for _, ds := range datasets {
		for _, node := range ring.Replicas(ds) {
			k := healthKey{node: node, dataset: ds}
			h.entries[k] = &ReplicaHealth{Node: node, Dataset: ds, Healthy: true}
		}
	}
	return h
}

// Check runs one synchronous sweep: every replica is probed in
// parallel under the probe timeout and its verdict updated.
func (h *HealthChecker) Check(ctx context.Context) {
	h.mu.RLock()
	keys := make([]healthKey, 0, len(h.entries))
	for k := range h.entries {
		keys = append(keys, k)
	}
	h.mu.RUnlock()

	var wg sync.WaitGroup
	for _, k := range keys {
		wg.Add(1)
		go func(k healthKey) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, h.timeout)
			defer cancel()
			swaps, err := h.probe(pctx, k.node, k.dataset)
			now := time.Now()
			h.mu.Lock()
			defer h.mu.Unlock()
			e := h.entries[k]
			if e == nil {
				// RemoveDataset dropped the replica while it was being
				// probed: there is no verdict left to record.
				return
			}
			e.Checked = now
			if err != nil {
				e.Healthy = false
				e.Error = err.Error()
			} else {
				e.Healthy = true
				e.Error = ""
				e.Swaps = swaps
			}
		}(k)
	}
	wg.Wait()
}

// Run sweeps on the checker's interval until ctx is done. The first
// sweep runs immediately.
func (h *HealthChecker) Run(ctx context.Context) {
	h.Check(ctx)
	ticker := time.NewTicker(h.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			h.Check(ctx)
		}
	}
}

// Healthy reports the replica's last probe verdict; unknown replicas
// (not in the ring's plan) report false.
func (h *HealthChecker) Healthy(node, dataset string) bool {
	h.mu.RLock()
	defer h.mu.RUnlock()
	e := h.entries[healthKey{node: node, dataset: dataset}]
	return e != nil && e.Healthy
}

// Swaps returns the replica's last observed store generation.
func (h *HealthChecker) Swaps(node, dataset string) uint64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	e := h.entries[healthKey{node: node, dataset: dataset}]
	if e == nil {
		return 0
	}
	return e.Swaps
}

// RemoveDataset drops every replica entry of a dataset, so sweeps stop
// probing it and its replicas report unhealthy with zero generation.
func (h *HealthChecker) RemoveDataset(dataset string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for k := range h.entries {
		if k.dataset == dataset {
			delete(h.entries, k)
		}
	}
}

// MarkUnhealthy force-flags a replica down (the router does this on
// forwarding failures so routing reacts faster than the next sweep).
func (h *HealthChecker) MarkUnhealthy(node, dataset string, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if e := h.entries[healthKey{node: node, dataset: dataset}]; e != nil {
		e.Healthy = false
		if err != nil {
			e.Error = err.Error()
		}
	}
}

// Snapshot copies every replica verdict, sorted by (dataset, node).
func (h *HealthChecker) Snapshot() []ReplicaHealth {
	h.mu.RLock()
	out := make([]ReplicaHealth, 0, len(h.entries))
	for _, e := range h.entries {
		out = append(out, *e)
	}
	h.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dataset != out[j].Dataset {
			return out[i].Dataset < out[j].Dataset
		}
		return out[i].Node < out[j].Node
	})
	return out
}
