package cluster

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/pipeline"
	"cicero/internal/relation"
	"cicero/internal/serve"
	"cicero/internal/snapshot"
	"cicero/internal/voice"
)

// buildFlightsSnapshot preprocesses a small flights store and writes
// its tagged snapshot artifact, returning everything a replica needs
// to bootstrap from it.
func buildFlightsSnapshot(t testing.TB, fingerprint string) (string, *relation.Relation, *voice.Extractor) {
	t.Helper()
	rel := dataset.Flights(800, 1)
	cfg := engine.DefaultConfig(rel)
	cfg.Targets = []string{"cancelled"}
	cfg.Dimensions = []string{"season", "airline"}
	cfg.MaxQueryLen = 1
	store, _, err := pipeline.Run(context.Background(), rel, cfg, pipeline.Options{
		Template: engine.Template{TargetPhrase: "cancellation probability", Percent: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "flights.snap")
	if err := snapshot.WriteFileTagged(path, store, rel, fingerprint); err != nil {
		t.Fatal(err)
	}
	ex := voice.NewExtractor(rel, voice.DefaultSamples("flights"), cfg.MaxQueryLen)
	return path, rel, ex
}

func TestSnapshotLoaderBootstrapsReplica(t *testing.T) {
	path, rel, ex := buildFlightsSnapshot(t, "fp-1")
	reg := serve.NewRegistry()
	if err := reg.Register("flights", SnapshotLoader(path, rel, ex, "fp-1")); err != nil {
		t.Fatal(err)
	}
	a, err := reg.Get(context.Background(), "flights")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Store().(*snapshot.Map); !ok {
		t.Fatalf("replica serves a %T, want the mapped snapshot", a.Store())
	}
	ans := a.Answer("what is the cancellation probability for winter")
	if ans.Text == "" {
		t.Fatal("empty answer from bootstrapped replica")
	}
}

func TestSnapshotLoaderRejectsFingerprintMismatch(t *testing.T) {
	path, rel, ex := buildFlightsSnapshot(t, "fp-old")
	reg := serve.NewRegistry()
	if err := reg.Register("flights", SnapshotLoader(path, rel, ex, "fp-new")); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get(context.Background(), "flights"); err == nil {
		t.Fatal("fingerprint mismatch accepted")
	} else if !strings.Contains(err.Error(), "different parameters") {
		t.Fatalf("unexpected error: %v", err)
	}
	// An empty expected fingerprint skips the gate.
	reg2 := serve.NewRegistry()
	if err := reg2.Register("flights", SnapshotLoader(path, rel, ex, "")); err != nil {
		t.Fatal(err)
	}
	if _, err := reg2.Get(context.Background(), "flights"); err != nil {
		t.Fatalf("ungated load failed: %v", err)
	}
}
