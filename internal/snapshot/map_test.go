package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/relation"
	"cicero/internal/serve"
	"cicero/internal/voice"
)

// sameSpeech fails the test unless two speeches answer identically:
// same canonical key, same text, and bit-identical floats. Facts are
// excluded — the mmap view deliberately does not materialize them.
func sameSpeech(t *testing.T, ctx string, h, m *engine.StoredSpeech) {
	t.Helper()
	if h.Query.Key() != m.Query.Key() {
		t.Fatalf("%s: key %q, want %q", ctx, m.Query.Key(), h.Query.Key())
	}
	if h.Text != m.Text {
		t.Fatalf("%s: text %q, want %q", ctx, m.Text, h.Text)
	}
	if math.Float64bits(h.Utility) != math.Float64bits(m.Utility) {
		t.Fatalf("%s: utility %v, want %v", ctx, m.Utility, h.Utility)
	}
	if math.Float64bits(h.PriorError) != math.Float64bits(m.PriorError) {
		t.Fatalf("%s: prior error %v, want %v", ctx, m.PriorError, h.PriorError)
	}
}

// bothLoaders runs snapshot bytes through both entry points and fails
// the test unless they agree on the verdict: Decode is the Map reader
// with Verify run up front, so the two must accept exactly the same
// files, and reject a file with one defect — truncated, version-skewed,
// mounted on the wrong relation, or crafted and resealed — with the
// same error class. It returns that verdict.
func bothLoaders(t *testing.T, ctx string, data []byte, rel *relation.Relation) error {
	t.Helper()
	_, derr := Decode(data, rel)
	m, merr := MapBytes(data, rel)
	if merr == nil {
		merr = m.Verify()
	}
	for _, class := range []error{ErrCorrupt, ErrVersion, ErrDataset} {
		if errors.Is(derr, class) != errors.Is(merr, class) {
			t.Fatalf("%s: Decode says %v, MapBytes+Verify says %v", ctx, derr, merr)
		}
	}
	if (derr == nil) != (merr == nil) {
		t.Fatalf("%s: Decode says %v, MapBytes+Verify says %v", ctx, derr, merr)
	}
	return derr
}

// TestMapParityOracle: the two containers of one store — the heap store
// pre-processing built and the Map over its snapshot bytes — enumerate
// the same speeches in the same order. What they answer from those
// speeches is the one index's business, pinned against the reference
// scan by engine.TestStoreLookupMatchesScan on both containers.
func TestMapParityOracle(t *testing.T) {
	for _, tc := range exampleStores(t) {
		t.Run(tc.rel.Name(), func(t *testing.T) {
			m, err := MapBytes(encode(t, tc.store, tc.rel), tc.rel)
			if err != nil {
				t.Fatalf("MapBytes: %v", err)
			}
			if m.Mapped() {
				t.Error("MapBytes must not report a region mapping")
			}
			if m.Len() != tc.store.Len() {
				t.Fatalf("Len = %d, want %d", m.Len(), tc.store.Len())
			}
			for _, target := range append([]string{"no-such-target"}, tc.rel.Schema().Targets...) {
				if m.HasTarget(target) != tc.store.HasTarget(target) {
					t.Fatalf("HasTarget(%q) diverges", target)
				}
			}
			hsp, msp := tc.store.Speeches(), m.Speeches()
			if len(hsp) != len(msp) {
				t.Fatalf("Speeches: %d, want %d", len(msp), len(hsp))
			}
			for i := range hsp {
				sameSpeech(t, fmt.Sprintf("speech %d", i), hsp[i], msp[i])
			}
		})
	}
}

// TestMapFileLifecycle exercises the file-backed path end to end:
// mapping, answering, deferred payload verification, and idempotent
// close.
func TestMapFileLifecycle(t *testing.T) {
	tc := exampleStores(t)[0]
	path := filepath.Join(t.TempDir(), "acs.snap")
	if err := WriteFile(path, tc.store, tc.rel); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	m, err := MapFile(path, tc.rel)
	if err != nil {
		t.Fatalf("MapFile: %v", err)
	}
	if mmapSupported && !m.Mapped() {
		t.Error("MapFile on a unix build must be region-backed")
	}
	if m.meta.Dataset != tc.rel.Name() {
		t.Errorf("meta.Dataset = %q", m.meta.Dataset)
	}
	sp, ok := m.Lookup(tc.store.Speeches()[0].Query)
	if !ok || sp.Text == "" {
		t.Fatal("mapped view failed to answer a stored query")
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestMapStructuralErrors: the structural checks run eagerly at map
// time, exactly as for Decode.
func TestMapStructuralErrors(t *testing.T) {
	tc := exampleStores(t)[0]
	data := encode(t, tc.store, tc.rel)

	bad := bytes.Clone(data)
	bad[0] ^= 0xff // magic
	if _, err := MapBytes(bad, tc.rel); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: err = %v, want ErrCorrupt", err)
	}
	if _, err := MapBytes(data[:len(data)/2], tc.rel); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncation: err = %v, want ErrCorrupt", err)
	}
	other := dataset.Flights(100, 1)
	if _, err := MapBytes(data, other); !errors.Is(err, ErrDataset) {
		t.Errorf("dataset mismatch: err = %v, want ErrDataset", err)
	}
}

// TestMapDeferredPayloadVerify pins the checksum contract: a payload
// bit-flip that eager Decode rejects outright still maps (only
// structure is checked at map time, keeping cold start O(pages
// needed)), and Verify reports it — with the verdict cached.
func TestMapDeferredPayloadVerify(t *testing.T) {
	tc := exampleStores(t)[0]
	data := encode(t, tc.store, tc.rel)
	text := tc.store.Speeches()[0].Text
	at := bytes.Index(data, []byte(text))
	if at < 0 {
		t.Fatal("speech text not found in snapshot bytes")
	}
	data[at] ^= 0x01

	if _, err := Decode(data, tc.rel); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode of bit-flipped payload: err = %v, want ErrCorrupt", err)
	}
	m, err := MapBytes(data, tc.rel)
	if err != nil {
		t.Fatalf("MapBytes must defer payload verification, got %v", err)
	}
	err = m.Verify()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Verify: err = %v, want ErrCorrupt", err)
	}
	if again := m.Verify(); !errors.Is(again, ErrCorrupt) {
		t.Fatalf("cached Verify: err = %v, want ErrCorrupt", again)
	}
}

// sectionSpan returns the absolute [start, end) range of a section's
// bytes within the snapshot file image.
func sectionSpan(t testing.TB, data []byte, id uint32) (int, int) {
	t.Helper()
	payload := data[headerSize:]
	for i := 0; i < int(le.Uint32(data[offSectionCount:])); i++ {
		e := payload[sectionEntrySize*i:]
		if le.Uint32(e[0:]) == id {
			off, length := le.Uint64(e[8:]), le.Uint64(e[16:])
			return headerSize + int(off), headerSize + int(off+length)
		}
	}
	t.Fatalf("section %d not found", id)
	return 0, 0
}

// reseal recomputes the payload and header checksums after a test
// mutated snapshot bytes in place, so the mutation survives the
// checksum layer and reaches the semantic validation under test.
func reseal(data []byte) {
	le.PutUint32(data[offPayloadCRC:], crc32.Checksum(data[headerSize:], castagnoli))
	le.PutUint32(data[offHeaderCRC:], crc32.Checksum(data[:offHeaderCRC], castagnoli))
}

// swapFirstPredPair reorders the predicates of the first speech that
// has two, in place, and reseals: a checksum-valid file that breaks the
// canonical predicate order the writer always emits.
func swapFirstPredPair(t testing.TB, data []byte) {
	t.Helper()
	starts := csrStarts(t, data, secPredStart)
	predsLo, _ := sectionSpan(t, data, secPreds)
	for i := 0; i+1 < len(starts); i++ {
		if starts[i+1]-starts[i] >= 2 {
			a := predsLo + 8*int(starts[i])
			swapBytes(data, a, a+8, 8)
			reseal(data)
			return
		}
	}
	t.Fatal("no two-predicate speech to reorder")
}

// forgeDuplicateKey clones one speech's identity (target id + predicate
// pairs) onto another with as many predicates, in place, and reseals.
func forgeDuplicateKey(t testing.TB, data []byte) {
	t.Helper()
	starts := csrStarts(t, data, secPredStart)
	recsLo, _ := sectionSpan(t, data, secSpeeches)
	predsLo, _ := sectionSpan(t, data, secPreds)
	for i := 0; i+2 < len(starts); i++ {
		for j := i + 1; j+1 < len(starts); j++ {
			if starts[i+1]-starts[i] == starts[j+1]-starts[j] {
				copy(data[recsLo+speechRecordSize*j:][:4], data[recsLo+speechRecordSize*i:][:4])
				n := int(starts[i+1] - starts[i])
				copy(data[predsLo+8*int(starts[j]):][:8*n], data[predsLo+8*int(starts[i]):][:8*n])
				reseal(data)
				return
			}
		}
	}
	t.Fatal("no two speeches with equal predicate counts to forge")
}

// rejectedEverywhere requires every entry point — Decode, MapBytes,
// and the path-taking ReadFile and MapFile — to refuse data as corrupt.
func rejectedEverywhere(t *testing.T, ctx string, data []byte, rel *relation.Relation) {
	t.Helper()
	if err := bothLoaders(t, ctx, data, rel); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%s: err = %v, want ErrCorrupt", ctx, err)
	}
	path := filepath.Join(t.TempDir(), "crafted.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path, rel); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%s: ReadFile err = %v, want ErrCorrupt", ctx, err)
	}
	if _, err := MapFile(path, rel); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%s: MapFile err = %v, want ErrCorrupt", ctx, err)
	}
}

// TestMapRejectsNonCanonicalPredOrder: the index builds its keys
// straight from file order, so a checksum-valid file whose predicates
// are reordered must fail loudly — through every entry point, now that
// Decode stands on Map (it used to re-canonicalize and accept).
func TestMapRejectsNonCanonicalPredOrder(t *testing.T) {
	tc := exampleStores(t)[0] // ACS: two-predicate speeches exist
	data := encode(t, tc.store, tc.rel)
	swapFirstPredPair(t, data)
	rejectedEverywhere(t, "reordered predicates", data, tc.rel)
}

// TestMapRejectsDuplicateKey: two records under one canonical key are
// rejected through every entry point (the heap decoder used to let the
// last writer win).
func TestMapRejectsDuplicateKey(t *testing.T) {
	tc := exampleStores(t)[0]
	data := encode(t, tc.store, tc.rel)
	forgeDuplicateKey(t, data)
	rejectedEverywhere(t, "duplicated key", data, tc.rel)
}

// csrStarts parses one CSR offset section from the file image.
func csrStarts(t testing.TB, data []byte, id uint32) []uint32 {
	t.Helper()
	lo, hi := sectionSpan(t, data, id)
	starts := make([]uint32, (hi-lo)/4)
	for i := range starts {
		starts[i] = le.Uint32(data[lo+4*i:])
	}
	return starts
}

// swapBytes exchanges two equally long, disjoint ranges of data.
func swapBytes(data []byte, a, b, n int) {
	tmp := bytes.Clone(data[a : a+n])
	copy(data[a:a+n], data[b:b+n])
	copy(data[b:b+n], tmp)
}

// permuteRecords swaps whole speeches — record, predicate pairs, fact
// values and scope pairs — between pairs of same-shaped speeches, in
// place, and reseals: the file stays valid but leaves key order, the
// way a hand-written one might. It returns how many speeches moved.
func permuteRecords(t testing.TB, data []byte) int {
	t.Helper()
	preds := csrStarts(t, data, secPredStart)
	facts := csrStarts(t, data, secFactStart)
	scopes := csrStarts(t, data, secScopeStart)
	recsLo, _ := sectionSpan(t, data, secSpeeches)
	predsLo, _ := sectionSpan(t, data, secPreds)
	valsLo, _ := sectionSpan(t, data, secFactValues)
	scopeLo, _ := sectionSpan(t, data, secScopePairs)
	n := len(preds) - 1
	// shape is everything the CSR offsets say about a speech, so that
	// swapping payload bytes alone keeps every offset valid.
	shape := func(i int) string {
		s := fmt.Sprint(preds[i+1]-preds[i], facts[i+1]-facts[i])
		for f := facts[i]; f < facts[i+1]; f++ {
			s += fmt.Sprint(",", scopes[f+1]-scopes[f])
		}
		return s
	}
	waiting := map[string]int{} // shape -> a speech still unpaired
	moved := 0
	for j := 0; j < n; j++ {
		i, ok := waiting[shape(j)]
		if !ok {
			waiting[shape(j)] = j
			continue
		}
		delete(waiting, shape(j))
		swapBytes(data, recsLo+speechRecordSize*i, recsLo+speechRecordSize*j, speechRecordSize)
		swapBytes(data, predsLo+8*int(preds[i]), predsLo+8*int(preds[j]), 8*int(preds[i+1]-preds[i]))
		swapBytes(data, valsLo+8*int(facts[i]), valsLo+8*int(facts[j]), 8*int(facts[i+1]-facts[i]))
		si, sj := scopes[facts[i]], scopes[facts[j]]
		swapBytes(data, scopeLo+8*int(si), scopeLo+8*int(sj), 8*int(scopes[facts[i+1]]-si))
		moved += 2
	}
	reseal(data)
	return moved
}

// TestMapSortsPermutedRecords: key order is what the writer emits, not
// a format requirement. A valid snapshot whose speeches sit in another
// order maps, verifies, enumerates and answers exactly like the sorted
// file, and decodes to the same speeches with the same facts.
func TestMapSortsPermutedRecords(t *testing.T) {
	tc := exampleStores(t)[0]
	sorted := encode(t, tc.store, tc.rel)
	permuted := bytes.Clone(sorted)
	if moved := permuteRecords(t, permuted); moved < tc.store.Len()/2 {
		t.Fatalf("only %d of %d speeches moved", moved, tc.store.Len())
	}
	if err := bothLoaders(t, "permuted records", permuted, tc.rel); err != nil {
		t.Fatalf("permuted file rejected: %v", err)
	}
	want, err := MapBytes(sorted, tc.rel)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MapBytes(permuted, tc.rel)
	if err != nil {
		t.Fatal(err)
	}
	wsp, gsp := want.Speeches(), got.Speeches()
	if len(wsp) != len(gsp) {
		t.Fatalf("Speeches: %d, want %d", len(gsp), len(wsp))
	}
	for i := range wsp {
		sameSpeech(t, fmt.Sprintf("speech %d", i), wsp[i], gsp[i])
	}
	rng := rand.New(rand.NewSource(77))
	queries := make([]engine.Query, 0, len(wsp)+525)
	for _, sp := range wsp {
		queries = append(queries, sp.Query)
	}
	for i := 0; i < 525; i++ {
		q := randomQuery(tc.rel, rng)
		if i >= 500 { // wide enough for the posting path
			for j := 0; j < 120; j++ {
				q.Predicates = append(q.Predicates,
					engine.NamedPredicate{Column: fmt.Sprintf("zz%03d", j), Value: "x"})
			}
		}
		queries = append(queries, q)
	}
	for _, q := range queries {
		ws, wexact, wok := want.Match(q)
		gs, gexact, gok := got.Match(q)
		if wok != gok || wexact != gexact {
			t.Fatalf("Match(%s): permuted (exact=%v ok=%v), sorted (exact=%v ok=%v)", q.Key(), gexact, gok, wexact, wok)
		}
		if wok {
			sameSpeech(t, "Match("+q.Key()+")", ws, gs)
		}
	}

	wantStore, err := Decode(sorted, tc.rel)
	if err != nil {
		t.Fatal(err)
	}
	gotStore, err := Decode(permuted, tc.rel)
	if err != nil {
		t.Fatal(err)
	}
	wsp, gsp = wantStore.Speeches(), gotStore.Speeches()
	for i := range wsp {
		sameSpeech(t, fmt.Sprintf("decoded speech %d", i), wsp[i], gsp[i])
		if len(wsp[i].Facts) != len(gsp[i].Facts) {
			t.Fatalf("decoded speech %d: %d facts, want %d", i, len(gsp[i].Facts), len(wsp[i].Facts))
		}
		for j, f := range wsp[i].Facts {
			if g := gsp[i].Facts[j]; !f.Scope.Equal(g.Scope) || math.Float64bits(f.Value) != math.Float64bits(g.Value) {
				t.Fatalf("decoded speech %d fact %d differs", i, j)
			}
		}
	}
}

// BenchmarkColdStart compares the two cold-start paths on the same
// snapshot bytes: full heap decode vs zero-copy map, each measured to
// its first answered query — the latency a restarted daemon pays
// before serving.
func BenchmarkColdStart(b *testing.B) {
	rel := dataset.ACS(400, 1)
	cfg := engine.DefaultConfig(rel)
	cfg.MaxQueryLen = 2
	store := solveAll(b, rel, cfg, engine.Template{})
	var buf bytes.Buffer
	if err := WriteTagged(&buf, store, rel, ""); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	probe := store.Speeches()[0].Query

	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st, err := Decode(data, rel)
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := st.Lookup(probe); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := MapBytes(data, rel)
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := m.Lookup(probe); !ok {
				b.Fatal("miss")
			}
		}
	})
}

// TestSwapDataAcrossImplementationsRace hammers the answer path while
// the live store swaps heap→mmap and mmap→mmap. Run under -race (CI
// does) this proves the generations are safely published and that an
// mmap-backed generation serves concurrent voice answers mid-swap as
// safely as the heap store it replaces.
func TestSwapDataAcrossImplementationsRace(t *testing.T) {
	rel := dataset.Flights(2000, 1)
	cfg := engine.DefaultConfig(rel)
	cfg.Targets = []string{"cancelled"}
	cfg.Dimensions = []string{"season", "airline"}
	cfg.MaxQueryLen = 1
	heap := solveAll(t, rel, cfg, engine.Template{TargetPhrase: "cancellation probability", Percent: true})
	path := filepath.Join(t.TempDir(), "flights.snap")
	if err := WriteFile(path, heap, rel); err != nil {
		t.Fatal(err)
	}
	// Two independent mmap generations of the same artifact, so the
	// swap cycle covers heap→mmap, mmap→mmap, and mmap→heap.
	m1, err := MapFile(path, rel)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := MapFile(path, rel)
	if err != nil {
		t.Fatal(err)
	}
	ex := voice.NewExtractor(rel, []voice.Sample{
		{Phrase: "cancellations", Target: "cancelled"},
	}, 2)
	a := serve.New(rel, heap, ex, serve.Options{})
	gens := []engine.StoreView{m1, m2, heap}

	const readers = 8
	const answersPerReader = 150
	var failures atomic.Int64
	var readersWG, swapperWG sync.WaitGroup
	stop := make(chan struct{})
	swapperWG.Add(1)
	go func() {
		defer swapperWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a.SwapData(rel, gens[i%len(gens)])
		}
	}()
	probe := heap.Speeches()[0].Query
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			for i := 0; i < answersPerReader; i++ {
				if ans := a.Answer("cancellations in Winter"); ans.Kind != serve.Summary || !ans.Answered {
					failures.Add(1)
				}
				if _, exact, ok := a.Store().Match(probe); !ok || !exact {
					failures.Add(1)
				}
			}
		}()
	}
	readersWG.Wait()
	close(stop)
	swapperWG.Wait()
	if n := failures.Load(); n > 0 {
		t.Errorf("%d answers failed during heap/mmap store swaps", n)
	}
	live := a.Store()
	if live != engine.StoreView(heap) && live != engine.StoreView(m1) && live != engine.StoreView(m2) {
		t.Error("live store is not one of the swapped generations")
	}
}
