// Package stats provides the small statistical toolbox shared across
// the generate → evaluate → solve → serve flow: the normal
// distribution CDF the solve stage's cost-based pruning optimizer
// (Section VI-C of the paper) estimates pruning probabilities with,
// percentile helpers for the experiment harness, and the concurrent
// bounded-window LatencyRecorder the serve stage's HTTP tier reports
// p50/p95/p99 latencies from at constant memory.
package stats

import (
	"math"
	"sort"
)

// NormalCDF returns P(X <= x) for X ~ N(mu, sigma^2).
func NormalCDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		// Degenerate distribution: a point mass at mu.
		if x < mu {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc(-(x-mu)/(sigma*math.Sqrt2))
}

// ProbGreater returns P(A > B) for independent A ~ N(muA, sigma^2) and
// B ~ N(muB, sigma^2). The difference A−B is N(muA−muB, 2 sigma^2), so
// P(A > B) = Φ((muA−muB)/(sigma·√2)). This is exactly the Pr(P_{s→t})
// estimate of the paper's cost model.
func ProbGreater(muA, muB, sigma float64) float64 {
	return NormalCDF(muA-muB, 0, sigma*math.Sqrt2)
}

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the median of xs (average of the two middle values for
// even length), or 0 for empty input. The input is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
