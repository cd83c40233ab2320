package load

import (
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/relation"
	"cicero/internal/voice"
)

func TestGenerateDeterministicMix(t *testing.T) {
	rel := dataset.Flights(1000, 1)
	opts := Options{
		Requests: 400, Distinct: 16, Seed: 7,
		TargetPhrases: voice.SpokenTargetPhrases(voice.DefaultSamples("flights")),
	}
	texts := Generate(rel, opts)
	if len(texts) != 400 {
		t.Fatalf("generated %d texts, want 400", len(texts))
	}
	again := Generate(rel, opts)
	for i := range texts {
		if texts[i] != again[i] {
			t.Fatalf("generation not deterministic at %d: %q vs %q", i, texts[i], again[i])
		}
	}
	// Zipf skew: the pools are bounded, so the workload must repeat
	// itself (that is what makes it cacheable).
	distinct := map[string]bool{}
	for _, text := range texts {
		distinct[text] = true
	}
	if len(distinct) >= len(texts)/2 {
		t.Errorf("workload barely repeats: %d distinct of %d", len(distinct), len(texts))
	}
	if len(distinct) < 4 {
		t.Errorf("workload too uniform: %d distinct", len(distinct))
	}
}

func TestGenerateTinyRelationTerminates(t *testing.T) {
	b := relation.NewBuilder("tiny", relation.Schema{
		Dimensions: []string{"d"},
		Targets:    []string{"t"},
	})
	b.MustAddRow([]string{"only"}, []float64{1})
	rel := b.Freeze()
	texts := Generate(rel, Options{Requests: 100, Distinct: 64, Seed: 1})
	if len(texts) != 100 {
		t.Fatalf("generated %d texts, want 100", len(texts))
	}
}
