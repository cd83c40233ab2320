package delta

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/pipeline"
	"cicero/internal/snapshot"
)

// TestReplayReconstructsPatchedStore is the cold-start contract: write
// the patch artifact, read it back, replay it over the base — the
// result must be bit-identical to both the original incremental apply
// and the full-rebuild oracle, without solving a single problem.
func TestReplayReconstructsPatchedStore(t *testing.T) {
	ctx := context.Background()
	rel := dataset.ACS(500, 11)
	cfg := acsConfig(rel, engine.PriorZero)
	base, _, err := pipeline.Run(ctx, rel, cfg, testOpts)
	if err != nil {
		t.Fatal(err)
	}

	b := Synthesize(rel, 5, 13)
	tab := FromRelation(rel)
	images, err := tab.Apply(b)
	if err != nil {
		t.Fatal(err)
	}
	next := tab.Rel()
	res, err := Apply(ctx, base, rel, next, cfg, testOpts, images)
	if err != nil {
		t.Fatal(err)
	}

	baseFP := pipeline.Fingerprint(1, cfg, "G-O")
	fp := pipeline.FingerprintDelta(1, cfg, "G-O", b.Tag())
	path := filepath.Join(t.TempDir(), "acs.patch")
	if err := snapshot.WritePatchFile(path, NewPatch(baseFP, fp, b, res)); err != nil {
		t.Fatal(err)
	}

	p, err := snapshot.ReadPatchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.BaseFingerprint != baseFP || p.Fingerprint != fp || p.DeltaTag != b.Tag() {
		t.Fatalf("patch provenance did not round-trip: %+v", p)
	}
	if BatchOfPatch(p).Tag() != b.Tag() {
		t.Fatal("journal round trip changed the batch tag")
	}

	replayed, replayedRel, err := Replay(base, rel, p)
	if err != nil {
		t.Fatal(err)
	}
	if replayedRel.NumRows() != next.NumRows() {
		t.Fatalf("replayed relation has %d rows, want %d", replayedRel.NumRows(), next.NumRows())
	}
	storesIdentical(t, replayed, res.Store)

	oracle, _, err := pipeline.Run(ctx, next, cfg, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	storesIdentical(t, replayed, oracle)
}

// TestReplayRefusesWrongDataset pins the journal/table identity check.
func TestReplayRefusesWrongDataset(t *testing.T) {
	rel := dataset.ACS(50, 1)
	store := engine.NewStore()
	store.Freeze()
	_, _, err := Replay(store, rel, &snapshot.Patch{Dataset: "flights"})
	if err == nil {
		t.Fatal("replaying a flights patch onto acs must fail")
	}
}

// TestReplayRejectsMalformedFact: a checksummed patch whose upsert
// carries a fact no writer produces — a column without its value, or a
// column named twice — is corrupt input. Replay must say so with an
// ErrCorrupt error, not panic, so the base stays servable.
func TestReplayRejectsMalformedFact(t *testing.T) {
	rel := dataset.Flights(200, 1)
	base := engine.NewStore()
	base.Freeze()
	for _, c := range []struct {
		name string
		fact engine.PersistedFact
	}{
		{"column without value", engine.PersistedFact{Columns: []string{"airline"}, Value: 1}},
		{"column twice", engine.PersistedFact{Columns: []string{"airline", "airline"}, Values: []string{"AA", "UA"}, Value: 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := snapshot.WritePatch(&buf, &snapshot.Patch{
				Dataset: rel.Name(),
				Upserts: []engine.PersistedSpeech{{
					Query: engine.Query{Target: "cancelled"},
					Facts: []engine.PersistedFact{c.fact},
					Text:  "t",
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
			p, err := snapshot.ReadPatch(&buf)
			if err == nil {
				_, _, err = Replay(base, rel, p)
			}
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("malformed upsert: error %v, want ErrCorrupt", err)
			}
		})
	}
}
