package fact

import (
	"math"

	"cicero/internal/relation"
)

// ExpectationModel selects how a listener combines (possibly conflicting)
// facts into an expected value for a row. The paper's optimization model
// uses Closest (Definition 4); the remaining models are the alternatives
// compared in the Figure 7 user study.
type ExpectationModel int

const (
	// Closest assumes users have prior knowledge that lets them pick the
	// most relevant fact: expectation is the in-scope value (or prior)
	// closest to the true target value. This is the paper's model and the
	// empirical winner of the Figure 7 study.
	Closest ExpectationModel = iota
	// Farthest is the adversarial variant: users latch onto the in-scope
	// value farthest from the truth.
	Farthest
	// AvgScope averages the values of all in-scope facts.
	AvgScope
	// AvgAll averages the values of every fact in the speech, relevant or
	// not.
	AvgAll
)

// String returns the model name as used in the paper's Figure 7 legend.
func (m ExpectationModel) String() string {
	switch m {
	case Closest:
		return "Closest"
	case Farthest:
		return "Farthest"
	case AvgScope:
		return "Avg. Scope"
	case AvgAll:
		return "Avg. All"
	default:
		return "Unknown"
	}
}

// Models lists all expectation models in Figure 7 order.
func Models() []ExpectationModel {
	return []ExpectationModel{Farthest, AvgScope, Closest, AvgAll}
}

// Prior supplies the user's default expectation for a row before
// listening to any facts (the P(r) function of Definition 4).
type Prior interface {
	// At returns the prior expected target value for the relation row.
	At(row int32) float64
}

// ConstantPrior is a row-independent prior. The paper's experiments use
// the average of the target column as a constant prior.
type ConstantPrior float64

// At implements Prior.
func (p ConstantPrior) At(int32) float64 { return float64(p) }

// MeanPrior returns the constant prior set to the mean of the target
// column over the given view, matching the experimental setup of the
// paper ("we use the average value in the target column as a prior").
func MeanPrior(v *relation.View, target int) ConstantPrior {
	return ConstantPrior(v.Stats(target).Mean())
}

// Expectation computes E(F, r): the value the user expects in the target
// column of row r after hearing speech facts, under the given model. The
// prior value is part of the candidate set for Closest and Farthest, per
// Definition 4; the averaging models fall back to the prior when no fact
// applies.
func Expectation(rel *relation.Relation, facts []Fact, row int32, prior float64, truth float64, model ExpectationModel) float64 {
	switch model {
	case Closest:
		// Definition 4: the prior value is part of the candidate set.
		best := prior
		bestDist := math.Abs(prior - truth)
		for _, f := range facts {
			if !f.Scope.Matches(rel, row) {
				continue
			}
			if d := math.Abs(f.Value - truth); d < bestDist {
				best, bestDist = f.Value, d
			}
		}
		return best
	case Farthest:
		// Figure 7 model: the value *proposed by a relevant fact* that is
		// farthest from the truth; the prior applies only when no fact is
		// in scope.
		best, bestDist := prior, -1.0
		for _, f := range facts {
			if !f.Scope.Matches(rel, row) {
				continue
			}
			if d := math.Abs(f.Value - truth); d > bestDist {
				best, bestDist = f.Value, d
			}
		}
		return best
	case AvgScope:
		sum, n := 0.0, 0
		for _, f := range facts {
			if f.Scope.Matches(rel, row) {
				sum += f.Value
				n++
			}
		}
		if n == 0 {
			return prior
		}
		return sum / float64(n)
	case AvgAll:
		if len(facts) == 0 {
			return prior
		}
		sum := 0.0
		for _, f := range facts {
			sum += f.Value
		}
		return sum / float64(len(facts))
	default:
		return prior
	}
}

// RowDeviation computes D(F, r) = |E(F, r) − vr| for a single row
// (Definition 5) under the Closest model.
func RowDeviation(rel *relation.Relation, facts []Fact, row int32, prior Prior, target int) float64 {
	truth := rel.Target(target).At(int(row))
	e := Expectation(rel, facts, row, prior.At(row), truth, Closest)
	return math.Abs(e - truth)
}

// Deviation computes the accumulated deviation ("error") D(F) over all
// rows of the view (Definition 5).
func Deviation(v *relation.View, facts []Fact, prior Prior, target int) float64 {
	total := 0.0
	n := v.NumRows()
	for i := 0; i < n; i++ {
		total += RowDeviation(v.Rel, facts, v.Row(i), prior, target)
	}
	return total
}

// Utility computes U(F) = D(∅) − D(F), the reduction in accumulated
// deviation achieved by the speech (Definition 6).
func Utility(v *relation.View, facts []Fact, prior Prior, target int) float64 {
	return Deviation(v, nil, prior, target) - Deviation(v, facts, prior, target)
}
