package stats

import (
	"sync"
	"testing"
	"time"
)

func TestLatencyRecorderEmpty(t *testing.T) {
	r := NewLatencyRecorder(8)
	snap := r.Snapshot()
	if snap.Count != 0 || snap.Window != 0 || snap.P99 != 0 || snap.Mean != 0 {
		t.Errorf("empty snapshot not zero: %+v", snap)
	}
}

func TestLatencyRecorderPercentiles(t *testing.T) {
	r := NewLatencyRecorder(1000)
	for i := 1; i <= 100; i++ {
		r.Record(time.Duration(i) * time.Millisecond)
	}
	snap := r.Snapshot()
	if snap.Count != 100 || snap.Window != 100 {
		t.Fatalf("count/window = %d/%d, want 100/100", snap.Count, snap.Window)
	}
	if snap.P50 != 50*time.Millisecond {
		t.Errorf("p50 = %v, want 50ms", snap.P50)
	}
	if snap.P95 != 95*time.Millisecond {
		t.Errorf("p95 = %v, want 95ms", snap.P95)
	}
	if snap.P99 != 99*time.Millisecond {
		t.Errorf("p99 = %v, want 99ms", snap.P99)
	}
	if snap.Max != 100*time.Millisecond {
		t.Errorf("max = %v, want 100ms", snap.Max)
	}
	if want := 50500 * time.Microsecond; snap.Mean != want {
		t.Errorf("mean = %v, want %v", snap.Mean, want)
	}
}

func TestLatencyRecorderWindowRotation(t *testing.T) {
	r := NewLatencyRecorder(4)
	for i := 1; i <= 10; i++ {
		r.Record(time.Duration(i) * time.Second)
	}
	snap := r.Snapshot()
	if snap.Count != 10 {
		t.Errorf("count = %d, want 10", snap.Count)
	}
	if snap.Window != 4 {
		t.Errorf("window = %d, want 4", snap.Window)
	}
	// Only the last four samples (7..10s) remain in the window.
	if snap.P50 < 7*time.Second {
		t.Errorf("p50 = %v includes rotated-out samples", snap.P50)
	}
	if snap.Max != 10*time.Second {
		t.Errorf("max = %v, want 10s", snap.Max)
	}
}

func TestLatencyRecorderConcurrent(t *testing.T) {
	r := NewLatencyRecorder(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot().Count; got != 4000 {
		t.Errorf("count = %d, want 4000", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []time.Duration{1, 2, 3, 4, 5}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0, 1}, {0.2, 1}, {0.21, 2}, {0.5, 3}, {0.99, 5}, {1, 5},
	}
	for _, c := range cases {
		if got := PercentileDuration(sorted, c.q); got != c.want {
			t.Errorf("PercentileDuration(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := PercentileDuration(nil, 0.5); got != 0 {
		t.Errorf("empty duration percentile = %v, want 0", got)
	}
}

// TestSummarizeLatenciesNearestRank pins the one nearest-rank definition
// (ceiling) every latency summary in the tree goes through. n = 31 is
// the row a round-half-up rank gets wrong: 0.95·31 = 29.45 is index 29,
// where int(29.45+0.5)-1 picked 28.
func TestSummarizeLatenciesNearestRank(t *testing.T) {
	cases := []struct{ n, p50, p95, p99 int }{ // expected indices into the sorted samples
		{n: 1, p50: 0, p95: 0, p99: 0},
		{n: 20, p50: 9, p95: 18, p99: 19},
		{n: 31, p50: 15, p95: 29, p99: 30},
		{n: 100, p50: 49, p95: 94, p99: 98},
	}
	for _, c := range cases {
		ds := make([]time.Duration, c.n) // sample i is i+1 ms, handed over unsorted
		for i := range ds {
			ds[i] = time.Duration(c.n-i) * time.Millisecond
		}
		snap := SummarizeLatencies(ds)
		at := func(index int) time.Duration { return time.Duration(index+1) * time.Millisecond }
		if snap.P50 != at(c.p50) || snap.P95 != at(c.p95) || snap.P99 != at(c.p99) {
			t.Errorf("n=%d: p50/p95/p99 = %v/%v/%v, want %v/%v/%v",
				c.n, snap.P50, snap.P95, snap.P99, at(c.p50), at(c.p95), at(c.p99))
		}
		if snap.Count != uint64(c.n) || snap.Window != c.n || snap.Max != at(c.n-1) ||
			snap.Mean != time.Duration(c.n+1)*time.Millisecond/2 {
			t.Errorf("n=%d: count/window/max/mean = %d/%d/%v/%v", c.n, snap.Count, snap.Window, snap.Max, snap.Mean)
		}
	}
	if snap := SummarizeLatencies(nil); snap != (LatencySnapshot{}) {
		t.Errorf("empty summary = %+v, want zero", snap)
	}
}
