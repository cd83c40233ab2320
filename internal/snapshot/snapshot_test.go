package snapshot

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/relation"
	"cicero/internal/summarize"
)

// solveAll pre-processes cfg's problems into a frozen store with the
// plain sequential batch — enumerate, solve with G-O, render, add — so
// the format's tests do not depend on the batch driver (package
// pipeline).
func solveAll(t testing.TB, rel *relation.Relation, cfg engine.Config, tmpl engine.Template) *engine.Store {
	t.Helper()
	store := engine.NewStore()
	err := engine.EachProblem(rel, cfg, func(p engine.Problem) error {
		sum, err := engine.SolveProblem(context.Background(), engine.AlgGreedyOpt, &p, cfg.MaxFactDims,
			summarize.Options{MaxFacts: cfg.MaxFacts})
		if err != nil {
			return err
		}
		store.Add(&engine.StoredSpeech{
			Query: p.Query, Facts: sum.Facts, Utility: sum.Utility, PriorError: sum.PriorError,
			Text: tmpl.Render(rel, p.Query, sum.Facts),
		})
		return nil
	})
	if err != nil {
		t.Fatalf("pre-processing %s: %v", rel.Name(), err)
	}
	return store.Freeze()
}

// buildStore pre-processes a small default-configuration store for rel.
func buildStore(t *testing.T, rel *relation.Relation, maxLen int) *engine.Store {
	t.Helper()
	cfg := engine.DefaultConfig(rel)
	cfg.MaxQueryLen = maxLen
	store := solveAll(t, rel, cfg, engine.Template{})
	if store.Len() == 0 {
		t.Fatalf("pre-processing %s: empty store", rel.Name())
	}
	return store
}

// exampleStores returns the two example datasets with small row counts
// and their pre-processed stores.
func exampleStores(t *testing.T) []struct {
	rel   *relation.Relation
	store *engine.Store
} {
	t.Helper()
	acs := dataset.ACS(400, 1)
	fl := dataset.Flights(600, 1)
	return []struct {
		rel   *relation.Relation
		store *engine.Store
	}{
		{acs, buildStore(t, acs, 2)},
		{fl, buildStore(t, fl, 1)},
	}
}

func encode(t testing.TB, store *engine.Store, rel *relation.Relation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTagged(&buf, store, rel, ""); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

// randomQuery synthesizes a query over rel's real dimension values,
// with 0-3 predicates so both exact hits and generalizations occur.
func randomQuery(rel *relation.Relation, rng *rand.Rand) engine.Query {
	targets := rel.Schema().Targets
	q := engine.Query{Target: targets[rng.Intn(len(targets))]}
	for n := rng.Intn(4); n > 0; n-- {
		d := rng.Intn(rel.NumDims())
		vals := rel.Dim(d).Values()
		if len(vals) == 0 {
			continue
		}
		q.Predicates = append(q.Predicates, engine.NamedPredicate{
			Column: rel.Schema().Dimensions[d],
			Value:  vals[rng.Intn(len(vals))],
		})
	}
	return q
}

// TestRoundTripBitIdentical is the round-trip property test: on stores
// built from both example datasets, save → load must reproduce every
// stored speech and answer every random query bit-identically.
func TestRoundTripBitIdentical(t *testing.T) {
	for _, tc := range exampleStores(t) {
		t.Run(tc.rel.Name(), func(t *testing.T) {
			data := encode(t, tc.store, tc.rel)
			loaded, err := Decode(data, tc.rel)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !loaded.Frozen() {
				t.Fatal("loaded store is not frozen")
			}
			if loaded.Len() != tc.store.Len() {
				t.Fatalf("loaded %d speeches, want %d", loaded.Len(), tc.store.Len())
			}

			// Every stored speech survives exactly: query, text, facts,
			// and float fields compared at the bit level.
			want, got := tc.store.Speeches(), loaded.Speeches()
			for i := range want {
				w, g := want[i], got[i]
				if w.Query.Key() != g.Query.Key() {
					t.Fatalf("speech %d: query %q, want %q", i, g.Query.Key(), w.Query.Key())
				}
				if w.Text != g.Text {
					t.Fatalf("speech %d: text %q, want %q", i, g.Text, w.Text)
				}
				if math.Float64bits(w.Utility) != math.Float64bits(g.Utility) {
					t.Fatalf("speech %d: utility bits %x, want %x (%v vs %v)",
						i, math.Float64bits(g.Utility), math.Float64bits(w.Utility), g.Utility, w.Utility)
				}
				if math.Float64bits(w.PriorError) != math.Float64bits(g.PriorError) {
					t.Fatalf("speech %d: prior error %v, want %v", i, g.PriorError, w.PriorError)
				}
				if len(w.Facts) != len(g.Facts) {
					t.Fatalf("speech %d: %d facts, want %d", i, len(g.Facts), len(w.Facts))
				}
				for j := range w.Facts {
					if !w.Facts[j].Scope.Equal(g.Facts[j].Scope) {
						t.Fatalf("speech %d fact %d: scope %v, want %v", i, j, g.Facts[j].Scope, w.Facts[j].Scope)
					}
					if math.Float64bits(w.Facts[j].Value) != math.Float64bits(g.Facts[j].Value) {
						t.Fatalf("speech %d fact %d: value bits differ", i, j)
					}
				}
			}

			// Property: random queries answer identically through the
			// full Match path (exact hits, generalizations, and misses).
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 500; i++ {
				q := randomQuery(tc.rel, rng)
				wsp, wexact, wok := tc.store.Match(q)
				gsp, gexact, gok := loaded.Match(q)
				if wok != gok || wexact != gexact {
					t.Fatalf("query %v: (exact=%v ok=%v), want (exact=%v ok=%v)", q, gexact, gok, wexact, wok)
				}
				if !wok {
					continue
				}
				if wsp.Text != gsp.Text || wsp.Query.Key() != gsp.Query.Key() ||
					math.Float64bits(wsp.Utility) != math.Float64bits(gsp.Utility) {
					t.Fatalf("query %v: served %q (%q), want %q (%q)",
						q, gsp.Text, gsp.Query.Key(), wsp.Text, wsp.Query.Key())
				}
			}
		})
	}
}

// TestRoundTripSecondGeneration proves a loaded store can itself be
// snapshotted again without drift.
func TestRoundTripSecondGeneration(t *testing.T) {
	rel := dataset.ACS(300, 2)
	store := buildStore(t, rel, 1)
	first := encode(t, store, rel)
	loaded, err := Decode(first, rel)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	second := encode(t, loaded, rel)
	// The created timestamp differs; everything else must match, which
	// Info + a second decode verify structurally.
	reloaded, err := Decode(second, rel)
	if err != nil {
		t.Fatalf("Decode second generation: %v", err)
	}
	if reloaded.Len() != store.Len() {
		t.Fatalf("second generation lost speeches: %d, want %d", reloaded.Len(), store.Len())
	}
}

func TestInfo(t *testing.T) {
	rel := dataset.ACS(300, 1)
	store := buildStore(t, rel, 1)
	data := encode(t, store, rel)
	meta, err := Info(data)
	if err != nil {
		t.Fatalf("Info: %v", err)
	}
	if meta.Dataset != "acs" {
		t.Errorf("Dataset = %q, want acs", meta.Dataset)
	}
	if meta.Speeches != store.Len() {
		t.Errorf("Speeches = %d, want %d", meta.Speeches, store.Len())
	}
	if meta.FormatVersion != Version {
		t.Errorf("FormatVersion = %d, want %d", meta.FormatVersion, Version)
	}
	if meta.Size != int64(len(data)) {
		t.Errorf("Size = %d, want %d", meta.Size, len(data))
	}
	if len(meta.Dimensions) != rel.NumDims() || len(meta.Targets) != rel.NumTargets() {
		t.Errorf("schema fingerprint %v/%v does not match relation", meta.Dimensions, meta.Targets)
	}
	if meta.Created.IsZero() {
		t.Error("Created is zero")
	}
}

// TestTruncation loads every prefix of a valid snapshot (sampled, plus
// all short prefixes) and requires a clean ErrCorrupt — never a panic,
// never success.
func TestTruncation(t *testing.T) {
	rel := dataset.ACS(200, 1)
	store := buildStore(t, rel, 1)
	data := encode(t, store, rel)

	lengths := []int{0, 1, 7, 8, headerSize - 1, headerSize, headerSize + 1}
	for n := headerSize; n < len(data); n += 101 {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, len(data)-1)
	for _, n := range lengths {
		if err := bothLoaders(t, fmt.Sprintf("%d-byte prefix", n), data[:n], rel); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%d/%d-byte prefix: err = %v, want ErrCorrupt", n, len(data), err)
		}
	}
}

// TestCorruption flips bytes across the file and requires every flip to
// be rejected (ErrCorrupt everywhere; the version field also carries a
// header-CRC guard, so even it reports corruption rather than skew).
func TestCorruption(t *testing.T) {
	rel := dataset.ACS(200, 1)
	store := buildStore(t, rel, 1)
	data := encode(t, store, rel)

	offsets := []int{0, offVersion, offSectionCount, offPayloadSize, offPayloadCRC, offHeaderCRC}
	for off := headerSize; off < len(data); off += 53 {
		offsets = append(offsets, off)
	}
	for _, off := range offsets {
		mut := bytes.Clone(data)
		mut[off] ^= 0x40
		_, err := Decode(mut, rel)
		if err == nil {
			t.Fatalf("Decode accepted a byte flip at offset %d", off)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte flip at offset %d: err = %v, want ErrCorrupt", off, err)
		}
		// The mapping reader defers the checksum, so it may first trip
		// over what the flipped byte now says (another dataset name);
		// between MapBytes and Verify it must still refuse the file.
		if m, err := MapBytes(mut, rel); err == nil && m.Verify() == nil {
			t.Fatalf("MapBytes+Verify accepted a byte flip at offset %d", off)
		}
	}
}

// TestVersionSkew crafts a structurally valid file of a future format
// version (header CRC recomputed, so the skew is the only defect) and
// requires ErrVersion with both versions named.
func TestVersionSkew(t *testing.T) {
	rel := dataset.ACS(200, 1)
	store := buildStore(t, rel, 1)
	data := encode(t, store, rel)

	mut := bytes.Clone(data)
	le.PutUint32(mut[offVersion:], Version+3)
	le.PutUint32(mut[offHeaderCRC:], crc32.Checksum(mut[:offHeaderCRC], castagnoli))
	err := bothLoaders(t, "future version", mut, rel)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
	if !strings.Contains(err.Error(), "version 4") || !strings.Contains(err.Error(), "version 1") {
		t.Errorf("error %q does not name both versions", err)
	}
}

// TestDatasetMismatch loads a snapshot against the wrong relation and
// against a same-name relation with a different schema.
func TestDatasetMismatch(t *testing.T) {
	rel := dataset.ACS(200, 1)
	store := buildStore(t, rel, 1)
	data := encode(t, store, rel)

	other := dataset.Flights(200, 1)
	if err := bothLoaders(t, "wrong dataset", data, other); !errors.Is(err, ErrDataset) {
		t.Fatalf("wrong dataset: err = %v, want ErrDataset", err)
	}

	// Same name, different schema.
	b := relation.NewBuilder("acs", relation.Schema{
		Dimensions: []string{"borough"},
		Targets:    []string{"hearing"},
	})
	b.MustAddRow([]string{"Brooklyn"}, []float64{1})
	skewed := b.Freeze()
	if err := bothLoaders(t, "schema skew", data, skewed); !errors.Is(err, ErrDataset) {
		t.Fatalf("schema skew: err = %v, want ErrDataset", err)
	}
}

// TestDroppedFacts loads a snapshot against a same-schema relation
// whose dictionaries miss some values: unresolvable facts are dropped,
// the speech text survives.
func TestDroppedFacts(t *testing.T) {
	rel := dataset.ACS(400, 1)
	store := buildStore(t, rel, 1)
	data := encode(t, store, rel)

	// A much smaller regeneration can miss dictionary values; build one
	// with a single row so most scope values cannot resolve.
	b := relation.NewBuilder("acs", rel.Schema().Clone())
	b.MustAddRow([]string{"Brooklyn", "Adults", "Female"}, make([]float64, rel.NumTargets()))
	tiny := b.Freeze()

	loaded, err := Decode(data, tiny)
	if err != nil {
		t.Fatalf("Decode against shrunken relation: %v", err)
	}
	if loaded.Len() != store.Len() {
		t.Fatalf("speech count changed: %d, want %d", loaded.Len(), store.Len())
	}
	droppedSome := false
	for i, sp := range loaded.Speeches() {
		orig := store.Speeches()[i]
		if sp.Text != orig.Text {
			t.Fatalf("speech %d text changed", i)
		}
		if len(sp.Facts) < len(orig.Facts) {
			droppedSome = true
		}
	}
	if !droppedSome {
		t.Error("expected at least one fact to be dropped against the tiny relation")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	rel := dataset.ACS(200, 1)
	store := buildStore(t, rel, 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "acs.snap")

	if err := WriteFile(path, store, rel); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	// Overwrite in place (the rebuild loop's path) and verify no
	// temporary litter remains.
	if err := WriteFile(path, store, rel); err != nil {
		t.Fatalf("WriteFile overwrite: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "acs.snap" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want exactly [acs.snap]", names)
	}
	loaded, err := ReadFile(path, rel)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if loaded.Len() != store.Len() {
		t.Fatalf("loaded %d speeches, want %d", loaded.Len(), store.Len())
	}
	if _, err := InfoFile(path); err != nil {
		t.Fatalf("InfoFile: %v", err)
	}
}

func TestReadFileMissing(t *testing.T) {
	rel := dataset.ACS(200, 1)
	if _, err := ReadFile(filepath.Join(t.TempDir(), "absent.snap"), rel); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want fs.ErrNotExist", err)
	}
}

// TestEmptyStore round-trips a store with zero speeches.
func TestEmptyStore(t *testing.T) {
	rel := dataset.ACS(100, 1)
	store := engine.NewStore()
	var buf bytes.Buffer
	if err := WriteTagged(&buf, store, rel, ""); err != nil {
		t.Fatalf("Write empty: %v", err)
	}
	loaded, err := Decode(buf.Bytes(), rel)
	if err != nil {
		t.Fatalf("Decode empty: %v", err)
	}
	if loaded.Len() != 0 {
		t.Fatalf("empty store loaded %d speeches", loaded.Len())
	}
}

// TestFingerprintRoundTrip proves the build-provenance tag survives
// the write/read cycle and that untagged writes read back empty.
func TestFingerprintRoundTrip(t *testing.T) {
	rel := dataset.ACS(200, 1)
	store := buildStore(t, rel, 1)
	dir := t.TempDir()

	tagged := filepath.Join(dir, "tagged.snap")
	const tag = "seed=1 maxlen=2 facts=3 solver=G-O"
	if err := WriteFileTagged(tagged, store, rel, tag); err != nil {
		t.Fatal(err)
	}
	meta, err := InfoFile(tagged)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Fingerprint != tag {
		t.Fatalf("Fingerprint = %q, want %q", meta.Fingerprint, tag)
	}
	// The fingerprint is policy, not structure: loading still succeeds.
	if _, err := ReadFile(tagged, rel); err != nil {
		t.Fatalf("ReadFile of tagged snapshot: %v", err)
	}

	untagged := filepath.Join(dir, "untagged.snap")
	if err := WriteFile(untagged, store, rel); err != nil {
		t.Fatal(err)
	}
	if meta, err := InfoFile(untagged); err != nil || meta.Fingerprint != "" {
		t.Fatalf("untagged fingerprint = %q, %v; want empty", meta.Fingerprint, err)
	}
}
