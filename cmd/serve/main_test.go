package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/snapshot"
)

// TestSnapViewFingerprintGate pins the boot-time snapshot gate: an
// artifact built under this boot's parameters is mapped, one built
// under other parameters is refused (the boot then rebuilds), and a
// missing artifact reports os.ErrNotExist, which a first boot treats as
// "nothing to refuse".
func TestSnapViewFingerprintGate(t *testing.T) {
	rel := dataset.Flights(200, 1)
	q := engine.Query{Target: "cancelled", Predicates: []engine.NamedPredicate{{Column: "season", Value: "Winter"}}}
	store := engine.NewStore()
	store.Add(&engine.StoredSpeech{Query: q, Text: "Winter flights are cancelled often."})
	path := filepath.Join(t.TempDir(), "flights.snap")
	if err := snapshot.WriteFileTagged(path, store, rel, "seed=1 solver=G-O"); err != nil {
		t.Fatal(err)
	}

	view, err := snapView(path, rel, "seed=1 solver=G-O")
	if err != nil {
		t.Fatalf("matching fingerprint refused: %v", err)
	}
	if sp, ok := view.Exact(q); !ok || sp.Text != "Winter flights are cancelled often." {
		t.Fatalf("mapped view answers %v, %v", sp, ok)
	}

	if _, err := snapView(path, rel, "seed=2 solver=G-O"); err == nil ||
		!strings.Contains(err.Error(), "different parameters") {
		t.Fatalf("mismatched fingerprint: err = %v, want a different-parameters refusal", err)
	}

	if _, err := snapView(filepath.Join(t.TempDir(), "absent.snap"), rel, "seed=1 solver=G-O"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing snapshot: err = %v, want os.ErrNotExist", err)
	}
}
