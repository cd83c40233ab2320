package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/engine"
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

// checkQueryParity runs one query through both implementations and
// compares Exact, Match, and Lookup verbatim.
func checkQueryParity(t *testing.T, heap *engine.Store, m *Map, q engine.Query) {
	t.Helper()
	ctx := q.Key()
	he, hok := heap.Exact(q)
	me, mok := m.Exact(q)
	if hok != mok {
		t.Fatalf("Exact(%s): mmap ok=%v, heap ok=%v", ctx, mok, hok)
	}
	if hok {
		sameSpeech(t, "Exact("+ctx+")", he, me)
	}
	hs, hexact, hok := heap.Match(q)
	ms, mexact, mok := m.Match(q)
	if hok != mok || hexact != mexact {
		t.Fatalf("Match(%s): mmap (exact=%v ok=%v), heap (exact=%v ok=%v)", ctx, mexact, mok, hexact, hok)
	}
	if hok {
		sameSpeech(t, "Match("+ctx+")", hs, ms)
	}
	hl, hok := heap.Lookup(q)
	ml, mok := m.Lookup(q)
	if hok != mok {
		t.Fatalf("Lookup(%s): mmap ok=%v, heap ok=%v", ctx, mok, hok)
	}
	if hok {
		sameSpeech(t, "Lookup("+ctx+")", hl, ml)
	}
}

// TestMapParityOracle is the cross-check oracle for the zero-copy
// reader: over both example datasets, the mmap-backed view must be
// bit-identical to the heap store on every accessor — the full speech
// enumeration, a directed exact probe per stored speech, 500 random
// queries (most of which resolve through generalization with
// tie-breaks), and adversarially wide queries that force the
// posting-intersection path.
func TestMapParityOracle(t *testing.T) {
	for _, tc := range exampleStores(t) {
		t.Run(tc.rel.Name(), func(t *testing.T) {
			data := encode(t, tc.store, tc.rel)
			heap, err := Decode(data, tc.rel)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			m, err := MapBytes(data, tc.rel)
			if err != nil {
				t.Fatalf("MapBytes: %v", err)
			}
			if m.Mapped() {
				t.Error("MapBytes must not report a region mapping")
			}
			if m.Len() != heap.Len() {
				t.Fatalf("Len = %d, want %d", m.Len(), heap.Len())
			}
			for _, target := range tc.rel.Schema().Targets {
				if m.HasTarget(target) != heap.HasTarget(target) {
					t.Fatalf("HasTarget(%q) diverges", target)
				}
			}
			if m.HasTarget("no-such-target") {
				t.Error("HasTarget(no-such-target) = true")
			}

			// Full enumeration, in the same deterministic order.
			hsp, msp := heap.Speeches(), m.Speeches()
			if len(hsp) != len(msp) {
				t.Fatalf("Speeches: %d, want %d", len(msp), len(hsp))
			}
			for i := range hsp {
				sameSpeech(t, fmt.Sprintf("speech %d", i), hsp[i], msp[i])
			}

			// Directed exact probes over every stored key exercise the
			// whole binary-search key table.
			for _, sp := range hsp {
				checkQueryParity(t, heap, m, sp.Query)
			}

			// Random queries: 0-3 predicates over real dimension values, so
			// exact hits, generalizations, ties, and misses all occur.
			rng := rand.New(rand.NewSource(77))
			for i := 0; i < 500; i++ {
				checkQueryParity(t, heap, m, randomQuery(tc.rel, rng))
			}

			// Wide queries overflow the enumeration budget where the store's
			// maxPreds allows, forcing the posting-intersection fallback.
			for i := 0; i < 25; i++ {
				q := randomQuery(tc.rel, rng)
				for j := 0; j < 120; j++ {
					q.Predicates = append(q.Predicates,
						engine.NamedPredicate{Column: fmt.Sprintf("zz%03d", j), Value: "x"})
				}
				checkQueryParity(t, heap, m, q)
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
	if m.Meta().Dataset != tc.rel.Name() {
		t.Errorf("Meta().Dataset = %q", m.Meta().Dataset)
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
func sectionSpan(t *testing.T, data []byte, id uint32) (int, int) {
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

// predStarts parses the predicate CSR offsets from the file image.
func predStarts(t *testing.T, data []byte) []uint32 {
	t.Helper()
	lo, hi := sectionSpan(t, data, secPredStart)
	starts := make([]uint32, (hi-lo)/4)
	for i := range starts {
		starts[i] = le.Uint32(data[lo+4*i:])
	}
	return starts
}

// TestMapRejectsNonCanonicalPredOrder: Map builds its canonical keys
// straight from file order, so a checksum-valid file whose predicates
// are reordered must fail loudly instead of silently diverging from
// the heap loader (which re-canonicalizes on Add).
func TestMapRejectsNonCanonicalPredOrder(t *testing.T) {
	tc := exampleStores(t)[0] // ACS: two-predicate speeches exist
	data := encode(t, tc.store, tc.rel)
	starts := predStarts(t, data)
	predsLo, _ := sectionSpan(t, data, secPreds)
	swapped := false
	for i := 0; i+1 < len(starts); i++ {
		if starts[i+1]-starts[i] >= 2 {
			a := predsLo + 8*int(starts[i])
			var tmp [8]byte
			copy(tmp[:], data[a:a+8])
			copy(data[a:a+8], data[a+8:a+16])
			copy(data[a+8:a+16], tmp[:])
			swapped = true
			break
		}
	}
	if !swapped {
		t.Fatal("no two-predicate speech to reorder")
	}
	reseal(data)
	if _, err := Decode(data, tc.rel); err != nil {
		t.Fatalf("heap loader re-canonicalizes, so Decode must accept: %v", err)
	}
	if _, err := MapBytes(data, tc.rel); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("MapBytes: err = %v, want ErrCorrupt", err)
	}
}

// TestMapRejectsDuplicateKey: the heap loader would silently
// last-writer-win a duplicated canonical key; the mmap reader rejects
// it so both loaders always serve the same speech set.
func TestMapRejectsDuplicateKey(t *testing.T) {
	tc := exampleStores(t)[0]
	data := encode(t, tc.store, tc.rel)
	starts := predStarts(t, data)
	recsLo, _ := sectionSpan(t, data, secSpeeches)
	predsLo, _ := sectionSpan(t, data, secPreds)
	forged := false
	for i := 0; i+2 < len(starts) && !forged; i++ {
		for j := i + 1; j+1 < len(starts); j++ {
			if starts[i+1]-starts[i] == starts[j+1]-starts[j] {
				// Clone speech i's identity (target id + predicate pairs)
				// onto speech j.
				copy(data[recsLo+speechRecordSize*j:][:4], data[recsLo+speechRecordSize*i:][:4])
				n := int(starts[i+1] - starts[i])
				copy(data[predsLo+8*int(starts[j]):][:8*n], data[predsLo+8*int(starts[i]):][:8*n])
				forged = true
				break
			}
		}
	}
	if !forged {
		t.Fatal("no two speeches with equal predicate counts to forge")
	}
	reseal(data)
	if _, err := MapBytes(data, tc.rel); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("MapBytes: err = %v, want ErrCorrupt", err)
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
	if err := Write(&buf, store, rel); err != nil {
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
				if ans := a.AnswerQuery(probe); !ans.Answered || !ans.Exact {
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
