package stats

import (
	"math"
	"slices"
	"sync"
	"time"
)

// This file is the serving-side half of the package: a concurrent
// latency recorder for long-running servers. Handlers record one
// duration per request; Snapshot computes percentiles over a bounded
// window of recent samples, so memory stays constant regardless of how
// many requests a server has answered.

// LatencySnapshot summarizes recorded latencies at one point in time.
type LatencySnapshot struct {
	// Count is the total number of recorded samples, including ones
	// that have rotated out of the percentile window.
	Count uint64 `json:"count"`
	// Window is the number of samples the percentiles are computed on.
	Window int           `json:"window"`
	P50    time.Duration `json:"p50_ns"`
	P95    time.Duration `json:"p95_ns"`
	P99    time.Duration `json:"p99_ns"`
	Mean   time.Duration `json:"mean_ns"`
	Max    time.Duration `json:"max_ns"`
}

// LatencyRecorder accumulates request latencies in a fixed-size ring
// buffer. It is safe for concurrent use; Record is a mutex-guarded
// store into the ring, Snapshot copies the window out and sorts the
// copy, so recording never blocks on a snapshot's sort.
type LatencyRecorder struct {
	mu    sync.Mutex
	ring  []time.Duration
	next  int
	count uint64
	max   time.Duration
}

// DefaultLatencyWindow is the ring size used when NewLatencyRecorder is
// given a non-positive window.
const DefaultLatencyWindow = 4096

// NewLatencyRecorder creates a recorder keeping the last window samples
// for percentile estimation.
func NewLatencyRecorder(window int) *LatencyRecorder {
	if window <= 0 {
		window = DefaultLatencyWindow
	}
	return &LatencyRecorder{ring: make([]time.Duration, 0, window)}
}

// Record adds one latency sample.
func (r *LatencyRecorder) Record(d time.Duration) {
	r.mu.Lock()
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, d)
	} else {
		r.ring[r.next] = d
		r.next++
		if r.next == len(r.ring) {
			r.next = 0
		}
	}
	r.count++
	if d > r.max {
		r.max = d
	}
	r.mu.Unlock()
}

// Snapshot computes percentiles over the current window. The zero
// snapshot is returned when nothing has been recorded.
func (r *LatencyRecorder) Snapshot() LatencySnapshot {
	r.mu.Lock()
	window := append([]time.Duration(nil), r.ring...)
	count, max := r.count, r.max
	r.mu.Unlock()
	snap := SummarizeLatencies(window)
	// Count and Max cover every sample ever recorded, not just the window.
	snap.Count, snap.Max = count, max
	return snap
}

// SummarizeLatencies sorts ds in place and summarizes it as one window
// holding every sample: the tree's one definition of p50/p95/p99
// (nearest rank, ceiling), mean and max over a set of durations.
func SummarizeLatencies(ds []time.Duration) LatencySnapshot {
	snap := LatencySnapshot{Count: uint64(len(ds)), Window: len(ds)}
	if len(ds) == 0 {
		return snap
	}
	slices.Sort(ds)
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	snap.P50 = PercentileDuration(ds, 0.50)
	snap.P95 = PercentileDuration(ds, 0.95)
	snap.P99 = PercentileDuration(ds, 0.99)
	snap.Mean = sum / time.Duration(len(ds))
	snap.Max = ds[len(ds)-1]
	return snap
}

// PercentileDuration returns the nearest-rank percentile of an
// ascending-sorted duration slice, or 0 for empty input.
func PercentileDuration(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[percentileRank(len(sorted), q)]
}

// percentileRank maps quantile q to a nearest-rank index in [0, n).
func percentileRank(n int, q float64) int {
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return rank
}
