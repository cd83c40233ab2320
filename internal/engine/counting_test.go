package engine

import (
	"math/rand"
	"testing"

	"cicero/internal/fact"
	"cicero/internal/relation"
)

// These tests turn the counting theorems of Section VII into executable
// checks: Theorem 9 bounds the number of facts by O((d choose l) · n^l)
// and Theorem 10 the number of queries by O(t · (d choose l) · n^l),
// where d is the dimension count, t the target count, l the number of
// predicates, and n the row count.

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	out := 1
	for i := 0; i < k; i++ {
		out = out * (n - i) / (i + 1)
	}
	return out
}

func randomCountingRelation(rng *rand.Rand, rows, dims, targets, card int) *relation.Relation {
	schema := relation.Schema{}
	for i := 0; i < dims; i++ {
		schema.Dimensions = append(schema.Dimensions, string(rune('a'+i)))
	}
	for i := 0; i < targets; i++ {
		schema.Targets = append(schema.Targets, string(rune('t'))+string(rune('0'+i)))
	}
	b := relation.NewBuilder("count", schema)
	dimVals := make([]string, dims)
	tgtVals := make([]float64, targets)
	for r := 0; r < rows; r++ {
		for i := range dimVals {
			dimVals[i] = string(rune('A' + rng.Intn(card)))
		}
		for i := range tgtVals {
			tgtVals[i] = rng.Float64()
		}
		b.MustAddRow(dimVals, tgtVals)
	}
	return b.Freeze()
}

// TestTheorem9FactCountBound: the number of generated facts never
// exceeds Σ_{j≤l} (d choose j) · n^j; with distinct-value counts capped
// by both n and the dictionary cardinality, the per-group count is
// bounded by the product of cardinalities.
func TestTheorem9FactCountBound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		rows := 20 + rng.Intn(100)
		dims := 2 + rng.Intn(3)
		card := 2 + rng.Intn(4)
		rel := randomCountingRelation(rng, rows, dims, 1, card)
		for l := 0; l <= 2; l++ {
			got := len(fact.Generate(rel.FullView(), 0, fact.GenerateOptions{MaxDims: l}))
			bound := 0
			for j := 0; j <= l; j++ {
				nj := 1
				for i := 0; i < j; i++ {
					nj *= rows
				}
				bound += binomial(dims, j) * nj
			}
			if got > bound {
				t.Fatalf("facts %d exceed Theorem 9 bound %d (d=%d l=%d n=%d)",
					got, bound, dims, l, rows)
			}
		}
	}
}

// TestTheorem10QueryCountBound: problems per configuration stay within
// t · Σ_{j≤l} (d choose j) · n^j and scale linearly in targets.
func TestTheorem10QueryCountBound(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rel := randomCountingRelation(rng, 80, 4, 3, 3)
	for l := 0; l <= 2; l++ {
		cfg := Config{Dataset: "count", MaxQueryLen: l, MaxFactDims: 1, MaxFacts: 2}
		count, err := CountProblems(rel, cfg)
		if err != nil {
			t.Fatal(err)
		}
		problems, err := Problems(rel, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if count != len(problems) {
			t.Fatalf("CountProblems %d != len(Problems) %d", count, len(problems))
		}
		perTarget := count / rel.NumTargets()
		if count != perTarget*rel.NumTargets() {
			t.Fatalf("query count %d not divisible by targets %d", count, rel.NumTargets())
		}
		bound := 0
		for j := 0; j <= l; j++ {
			nj := 1
			for i := 0; i < j; i++ {
				nj *= rel.NumRows()
			}
			bound += binomial(rel.NumDims(), j) * nj
		}
		if perTarget > bound {
			t.Fatalf("queries/target %d exceed Theorem 10 bound %d (l=%d)", perTarget, bound, l)
		}
	}
}

// TestQueryCountLinearInTargets verifies the t factor of Theorem 10.
func TestQueryCountLinearInTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rel := randomCountingRelation(rng, 60, 3, 4, 3)
	cfg1 := Config{Dataset: "count", Targets: rel.Schema().Targets[:1], MaxQueryLen: 1, MaxFactDims: 1, MaxFacts: 2}
	cfg4 := Config{Dataset: "count", Targets: rel.Schema().Targets, MaxQueryLen: 1, MaxFactDims: 1, MaxFacts: 2}
	c1, err := CountProblems(rel, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	c4, err := CountProblems(rel, cfg4)
	if err != nil {
		t.Fatal(err)
	}
	if c4 != 4*c1 {
		t.Errorf("4-target count %d != 4 × 1-target count %d", c4, c1)
	}
}
