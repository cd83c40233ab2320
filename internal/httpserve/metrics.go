package httpserve

import (
	"sync/atomic"
	"time"

	"cicero/internal/stats"
)

// Per-route serving metrics, exposed as JSON on GET /v1/stats. Counters
// are lock-free atomics; latency percentiles come from the bounded
// recorder in internal/stats, so a long-running server's stats cost
// constant memory.

// routeMetrics aggregates one route's traffic.
type routeMetrics struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	lat      *stats.LatencyRecorder
}

func newRouteMetrics() *routeMetrics {
	return &routeMetrics{lat: stats.NewLatencyRecorder(stats.DefaultLatencyWindow)}
}

// observe records one served request on the route.
func (m *routeMetrics) observe(d time.Duration, failed bool) {
	m.requests.Add(1)
	if failed {
		m.errors.Add(1)
	}
	m.lat.Record(d)
}

// RouteSnapshot is one route's metrics at a point in time.
type RouteSnapshot struct {
	Requests uint64                `json:"requests"`
	Errors   uint64                `json:"errors"`
	Latency  stats.LatencySnapshot `json:"latency"`
}

func (m *routeMetrics) snapshot() RouteSnapshot {
	return RouteSnapshot{
		Requests: m.requests.Load(),
		Errors:   m.errors.Load(),
		Latency:  m.lat.Snapshot(),
	}
}

// CacheSnapshot reports answer-cache effectiveness.
type CacheSnapshot struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
	Entries int     `json:"entries"`
}

// AdmissionSnapshot reports load-shedding state.
type AdmissionSnapshot struct {
	MaxInFlight int    `json:"max_in_flight"`
	InFlight    int    `json:"in_flight"`
	Rejected    uint64 `json:"rejected"`
}

// StoreSnapshot reports the live speech stores in aggregate: Speeches
// sums the stores of the Datasets mounted; Swaps is the sum of their
// generation numbers — every publish since boot.
type StoreSnapshot struct {
	Speeches int    `json:"speeches"`
	Datasets int    `json:"datasets,omitempty"`
	Swaps    uint64 `json:"swaps"`
}

// DatasetInfo is one row of the GET /v1/datasets listing.
type DatasetInfo struct {
	Name string `json:"name"`
	// Default marks the dataset the legacy /v1/answer route serves.
	Default bool `json:"default,omitempty"`
	// Speeches is the live store size.
	Speeches int `json:"speeches"`
}

// DatasetSnapshot is one dataset's metrics at a point in time (the
// GET /v1/{dataset}/stats payload). CellSets and CellBytes report the
// live generation's group-by cells, which the run-time shapes build on
// first use (0 after a publish until asked again).
type DatasetSnapshot struct {
	Name      string        `json:"name"`
	Default   bool          `json:"default,omitempty"`
	Speeches  int           `json:"speeches"`
	Swaps     uint64        `json:"swaps"`
	CellSets  int           `json:"cell_sets"`
	CellBytes int           `json:"cell_bytes"`
	Answers   RouteSnapshot `json:"answers"`
}

// StatsSnapshot is the full GET /v1/stats payload.
type StatsSnapshot struct {
	UptimeNS  time.Duration              `json:"uptime_ns"`
	Panics    uint64                     `json:"panics_total"`
	Routes    map[string]RouteSnapshot   `json:"routes"`
	Cache     CacheSnapshot              `json:"cache"`
	Deduped   uint64                     `json:"singleflight_shared"`
	Admission AdmissionSnapshot          `json:"admission"`
	Store     StoreSnapshot              `json:"store"`
	Datasets  map[string]DatasetSnapshot `json:"datasets,omitempty"`
}
