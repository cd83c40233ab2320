package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDF(t *testing.T) {
	cases := []struct {
		x, mu, sigma, want float64
	}{
		{0, 0, 1, 0.5},
		{1.959963985, 0, 1, 0.975},
		{-1.959963985, 0, 1, 0.025},
		{10, 10, 3, 0.5},
		{13, 10, 3, 0.8413447},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x, c.mu, c.sigma); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("NormalCDF(%v,%v,%v) = %v, want %v", c.x, c.mu, c.sigma, got, c.want)
		}
	}
}

func TestNormalCDFDegenerate(t *testing.T) {
	if got := NormalCDF(1, 2, 0); got != 0 {
		t.Errorf("point mass below: %v", got)
	}
	if got := NormalCDF(3, 2, 0); got != 1 {
		t.Errorf("point mass above: %v", got)
	}
	if got := NormalCDF(2, 2, -1); got != 1 {
		t.Errorf("negative sigma treated as point mass: %v", got)
	}
}

func TestProbGreater(t *testing.T) {
	if got := ProbGreater(1, 1, 2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("equal means: %v, want 0.5", got)
	}
	if got := ProbGreater(5, 0, 1); got < 0.99 {
		t.Errorf("well-separated means: %v, want ~1", got)
	}
	if got := ProbGreater(0, 5, 1); got > 0.01 {
		t.Errorf("reversed means: %v, want ~0", got)
	}
}

// TestPropertyProbGreaterSymmetry: P(A>B) + P(B>A) = 1 for continuous
// distributions.
func TestPropertyProbGreaterSymmetry(t *testing.T) {
	f := func(a, b int8, s uint8) bool {
		sigma := float64(s)/16 + 0.1
		p := ProbGreater(float64(a), float64(b), sigma)
		q := ProbGreater(float64(b), float64(a), sigma)
		return math.Abs(p+q-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanMedian(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := Mean(xs); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Median(xs); got != 2.5 {
		t.Errorf("Median = %v", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd Median = %v", got)
	}
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Error("empty inputs should yield 0")
	}
	// Median must not mutate its input.
	orig := []float64{3, 1, 2}
	Median(orig)
	if orig[0] != 3 {
		t.Error("Median mutated input")
	}
}
