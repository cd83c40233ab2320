package main

import (
	"math"
	"sort"
)

// sortedCopy returns vals sorted ascending, leaving the input alone.
func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank q-quantile of an ascending slice: the
// smallest value with at least a share q of the samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median is the middle value, or the mean of the two middle values.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

const (
	lowerIsBetter  = true
	higherIsBetter = false
)

// undisturbedShare is how far from the better end of a run's repeated
// measurements of one quantity the reported value lies.
const undisturbedShare = 0.1

// undisturbed estimates what a quantity measured several times over a run
// costs when the host leaves the program alone: the value a share
// undisturbedShare of the measurements are at least as good as. The machines
// this runs on slow down by a third for seconds to minutes at a time when a
// neighbour is busy, and never speed up: the disturbance has one sign, so the
// better end of a run's measurements repeats from run to run where their
// median does not (README.md, "Why rounds", has the numbers). A change to the
// program moves every measurement, the good ones too.
func undisturbed(vals []float64, lower bool) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	i := max(int(math.Ceil(undisturbedShare*float64(len(s))))-1, 0)
	if !lower {
		i = len(s) - 1 - i
	}
	return s[i]
}

// quartiles reproduces Python's statistics.quantiles(vals, n=4), the
// estimator the acceptance rule of this benchmark is written in. It
// needs at least two values.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share
// of the median: the run-to-run noise a bound is compared against.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// timed is one latency sample placed in its phase: at is the offset (in
// seconds) at which the request was due, lat its latency.
type timed struct {
	at, lat float64
}

// tailSamples is the least number of samples a p99 window must hold, so
// that ten of them lie beyond the percentile.
const tailSamples = 1000

// windowedP99 cuts a phase of dur seconds into at most windows equal
// windows, takes the p99 of each, and returns the median of those. The
// machines this runs on stall for 50 to 100 ms every few seconds; one
// stall lands in one window, so the median of windows repeats where the
// p99 of the whole phase does not. There are as many windows as leave
// tailSamples samples in each, and at least one.
func windowedP99(samples []timed, dur float64, windows int) (p99 float64, used int) {
	if len(samples) == 0 || dur <= 0 {
		return 0, 0
	}
	windows = min(max(windows, 1), max(len(samples)/tailSamples, 1))
	width := dur / float64(windows)
	buckets := make([][]float64, windows)
	for _, s := range samples {
		w := min(max(int(s.at/width), 0), windows-1)
		buckets[w] = append(buckets[w], s.lat)
	}
	tails := make([]float64, 0, windows)
	for _, b := range buckets {
		if len(b) > 0 {
			sort.Float64s(b)
			tails = append(tails, percentile(b, 0.99))
		}
	}
	return median(tails), windows
}
