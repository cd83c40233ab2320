package snapshot

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"unsafe"

	"cicero/internal/engine"
	"cicero/internal/relation"
)

// Map is the zero-copy snapshot reader: an engine.StoreView served
// directly out of the snapshot bytes, mapped from disk where the
// platform supports mmap. Where Decode copies every string and builds
// heap maps — O(dataset) work and resident heap before the first
// answer — Map materializes only a thin index: speech structs whose
// Target, Text, and predicate strings are unsafe views into the mapped
// interned-string table, one canonical-key table (the snapshot writer
// emits speeches in key order, so Exact is a binary search instead of
// a hash map), and per-target posting lists for the wide-query
// fallback. Cold start touches the pages the index needs; speech text
// pages fault in lazily as queries hit them, and the kernel may share
// them across processes serving the same artifact.
//
// Semantics are bit-identical to the heap store by construction: Match
// mirrors Store.Match probe for probe (exact key, then largest-first
// subset enumeration under the same budget, then posting-list
// intersection, with the same smallest-key tie-breaks), using the key
// helpers the engine package exports for exactly this purpose. The
// cross-check oracle in map_test.go pins that parity.
//
// Lifetime: speeches returned by a Map point into the mapped region.
// The region is unmapped by a GC finalizer only once the speech
// backing array is unreachable, so holding any *StoredSpeech (or any
// string field of one) keeps the mapping alive — no caller-side
// refcounting. The one sharp edge is retention-by-view: a string view
// into the mapping does NOT keep it alive on its own (the GC does not
// trace pointers into non-heap memory), so code that stores a speech's
// text beyond the speech pointer itself must strings.Clone it.
//
// Facts are not materialized — the serving read path never touches
// them. Tools that need facts (re-snapshotting, persistence) must load
// via Decode.
//
// A Map is immutable after construction; all methods are safe for
// concurrent use.
type Map struct {
	data   []byte
	region *mapRegion
	meta   Meta

	// speeches is the file-order backing array every escaped
	// *StoredSpeech points into; the unmap finalizer hangs off it.
	speeches []engine.StoredSpeech
	// keys holds each speech's canonical key (file order), views into
	// one shared heap buffer.
	keys []string
	// order maps sorted position -> file index; nil when the file is
	// already in key order (what the writer emits).
	order []int32
	// sorted is the Speeches() result — pointers in key order — built
	// lazily: the serve path answers queries without ever enumerating.
	sortedOnce sync.Once
	sorted     []*engine.StoredSpeech
	targets    map[string]*mapTarget
	// postingOnce builds the per-target posting lists on the first
	// wide-query fallback; keeping them off the construction path is
	// part of what makes the cold start O(index), not O(dataset).
	postingOnce sync.Once

	// scratch pools the dense posting-intersection counters, mirroring
	// the heap store's allocation-free wide-query fallback.
	scratch sync.Pool

	verifyOnce sync.Once
	verifyErr  error
}

// mapTarget is the per-target half of the generalization index, the
// mmap analogue of the heap store's targetIndex (posting lists hold
// global speech indices rather than per-target ones, and are built
// lazily on the first wide query via Map.postings).
type mapTarget struct {
	posting  map[engine.NamedPredicate][]int32
	overall  int32
	maxPreds int
}

// mapRegion owns one munmap, guarded so the explicit Close and the GC
// finalizer cannot double-unmap.
type mapRegion struct {
	once    sync.Once
	unmapFn func() error
	err     error
}

func (r *mapRegion) unmap() error {
	if r == nil {
		return nil
	}
	r.once.Do(func() { r.err = r.unmapFn() })
	return r.err
}

// MapFile maps the snapshot at path and returns the zero-copy view
// over it. On platforms without mmap (or filesystems that refuse it)
// the file is read into memory instead — same semantics, no page
// sharing. Structural integrity (header checksum, version, every
// section bound, canonical ordering) is verified here; the payload
// checksum is deferred to Verify so that mapping does not fault in the
// whole file. Error contract matches Read: ErrCorrupt, ErrVersion,
// ErrDataset.
func MapFile(path string, rel *relation.Relation) (*Map, error) {
	data, closer, err := mapWhole(path)
	if err != nil {
		return nil, err
	}
	m, err := newMap(data, closer, rel)
	if err != nil && closer != nil {
		closer()
	}
	return m, err
}

// MapBytes builds the zero-copy view over snapshot bytes already in
// memory — the portable construction and the test seam. The caller
// must not mutate data while the Map (or any speech obtained from it)
// is in use.
func MapBytes(data []byte, rel *relation.Relation) (*Map, error) {
	return newMap(data, nil, rel)
}

// mapWhole maps the entire file at path read-only, falling back to an
// ordinary read where mmap is unavailable; closer is nil on the
// fallback path.
func mapWhole(path string) ([]byte, func() error, error) {
	if !mmapSupported {
		data, err := os.ReadFile(path)
		return data, nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	if st.Size() == 0 {
		// mmap rejects empty files; an empty snapshot is structurally
		// invalid anyway, so let the header check report it.
		return nil, nil, nil
	}
	data, closer, err := mmapFile(f, st.Size())
	if err != nil {
		// e.g. a filesystem that refuses mmap: degrade to a heap read.
		data, err := os.ReadFile(path)
		return data, nil, err
	}
	return data, closer, nil
}

// newMap validates the snapshot structurally and builds the on-load
// index. closer, when non-nil, unmaps the region and is wired to a GC
// finalizer on the speech backing array.
func newMap(data []byte, closer func() error, rel *relation.Relation) (*Map, error) {
	rd, meta, err := openStructural(data)
	if err != nil {
		return nil, err
	}
	if err := meta.check(rel); err != nil {
		return nil, err
	}

	n := meta.Speeches
	recs := rd.sections[secSpeeches]
	if len(recs) != speechRecordSize*n {
		return nil, corruptf("speech section holds %d bytes for %d declared speeches", len(recs), n)
	}
	predPairs := rd.sections[secPreds]
	if len(predPairs)%8 != 0 {
		return nil, corruptf("predicate section of %d bytes is not pair-aligned", len(predPairs))
	}
	predStart, err := rd.csr(secPredStart, n+1, len(predPairs)/8, "predicate")
	if err != nil {
		return nil, err
	}
	// The fact sections stay unmaterialized AND unvalidated here: the
	// view never dereferences them, so walking their CSR offsets at map
	// time would tax every cold start for sections the serving path
	// cannot touch. Verify covers them along with the payload checksum.

	speeches := make([]engine.StoredSpeech, n)
	preds := make([]engine.NamedPredicate, predStart[n])
	targets := make(map[string]*mapTarget)
	// Speeches are grouped by target (the writer emits key order, and
	// keys start with the target), so caching the last-seen index entry
	// turns the per-speech map probe into a string-header compare.
	var lastTarget string
	var lastT *mapTarget
	keyLen := 0
	for i := 0; i < n; i++ {
		rec := recs[speechRecordSize*i:]
		sp := &speeches[i]
		sp.Utility = math.Float64frombits(le.Uint64(rec[8:]))
		sp.PriorError = math.Float64frombits(le.Uint64(rec[16:]))
		if sp.Query.Target, err = rd.strView(le.Uint32(rec[0:])); err != nil {
			return nil, err
		}
		if sp.Text, err = rd.strView(le.Uint32(rec[4:])); err != nil {
			return nil, err
		}
		if lastT == nil || sp.Query.Target != lastTarget {
			if lastT = targets[sp.Query.Target]; lastT == nil {
				lastT = &mapTarget{overall: -1}
				targets[sp.Query.Target] = lastT
			}
			lastTarget = sp.Query.Target
		}
		lo, hi := predStart[i], predStart[i+1]
		var prev engine.NamedPredicate
		for p := lo; p < hi; p++ {
			col, err := rd.strView(le.Uint32(predPairs[8*p:]))
			if err != nil {
				return nil, err
			}
			val, err := rd.strView(le.Uint32(predPairs[8*p+4:]))
			if err != nil {
				return nil, err
			}
			np := engine.NamedPredicate{Column: col, Value: val}
			// The writer emits canonical predicate order; the heap loader
			// re-canonicalizes on Add, but Map's keys are built straight
			// from file order, so enforce it instead of silently diverging.
			if p > lo && (np.Column < prev.Column || (np.Column == prev.Column && np.Value <= prev.Value)) {
				return nil, corruptf("speech %d predicates are not in canonical order", i)
			}
			prev = np
			preds[p] = np
			keyLen += 2 + len(col) + len(val)
		}
		if lo < hi {
			sp.Query.Predicates = preds[lo:hi:hi]
		} else {
			lastT.overall = int32(i)
		}
		if int(hi-lo) > lastT.maxPreds {
			lastT.maxPreds = int(hi - lo)
		}
		keyLen += len(sp.Query.Target)
	}

	// Canonical keys, materialized into one shared buffer. Offsets are
	// recorded first and views created after the buffer is complete, so
	// no view can dangle across an append-time reallocation.
	keyBuf := make([]byte, 0, keyLen)
	keyOff := make([]int, n+1)
	for i := range speeches {
		keyOff[i] = len(keyBuf)
		sp := &speeches[i]
		keyBuf = append(keyBuf, sp.Query.Target...)
		for _, p := range sp.Query.Predicates {
			keyBuf = append(keyBuf, '|')
			keyBuf = append(keyBuf, p.Column...)
			keyBuf = append(keyBuf, '=')
			keyBuf = append(keyBuf, p.Value...)
		}
	}
	keyOff[n] = len(keyBuf)
	keys := make([]string, n)
	for i := range keys {
		if b := keyBuf[keyOff[i]:keyOff[i+1]]; len(b) > 0 {
			keys[i] = unsafe.String(&b[0], len(b))
		}
	}

	// The writer emits key order, making binary search index-free; a
	// reordered (hand-written) file costs one permutation, and duplicate
	// keys — which the heap loader would last-writer-wins — are rejected
	// so both loaders see the same speech set.
	var order []int32
	for i := 1; i < n; i++ {
		if keys[i-1] >= keys[i] {
			order = make([]int32, n)
			for j := range order {
				order[j] = int32(j)
			}
			sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
			for j := 1; j < n; j++ {
				if keys[order[j-1]] == keys[order[j]] {
					return nil, corruptf("duplicate speech key %q", keys[order[j]])
				}
			}
			break
		}
	}

	m := &Map{
		data:     data,
		meta:     meta,
		speeches: speeches,
		keys:     keys,
		order:    order,
		targets:  targets,
	}
	if closer != nil {
		region := &mapRegion{unmapFn: closer}
		m.region = region
		if n > 0 {
			// Every escaped *StoredSpeech points into this backing array,
			// so its finalizer firing proves no speech (and hence no string
			// view reached through one) is still reachable — only then is
			// unmapping safe. The finalizer is NOT on m: the Map being
			// dropped (e.g. after SwapData) must not unmap under in-flight
			// answers still holding speeches.
			runtime.SetFinalizer(&speeches[0], func(*engine.StoredSpeech) { region.unmap() })
		} else {
			runtime.SetFinalizer(m, func(mm *Map) { mm.region.unmap() })
		}
	}
	return m, nil
}

// strView resolves one interned string id as a zero-copy view into the
// string blob.
func (rd *reader) strView(id uint32) (string, error) {
	if int(id) >= len(rd.strOffs)-1 {
		return "", corruptf("string id %d out of range (%d interned)", id, len(rd.strOffs)-1)
	}
	lo, hi := rd.strOffs[id], rd.strOffs[id+1]
	if lo == hi {
		return "", nil
	}
	return unsafe.String(&rd.strBlob[lo], int(hi-lo)), nil
}

// Meta returns the snapshot's metadata.
func (m *Map) Meta() Meta { return m.meta }

// Mapped reports whether the view is backed by an actual memory
// mapping (false on the portable read-into-heap fallback and for
// MapBytes).
func (m *Map) Mapped() bool { return m.region != nil }

// Verify checks the payload checksum and the structure of the fact
// sections the view never dereferences, once; subsequent calls return
// the cached verdict. It is deliberately not part of construction:
// checksumming faults in every page, which would turn the O(pages
// needed) cold start back into O(dataset). Run it from a background
// goroutine after boot, or offline, when bit-rot detection is wanted.
func (m *Map) Verify() error {
	m.verifyOnce.Do(func() {
		if err := verifyPayload(m.data); err != nil {
			m.verifyErr = err
			return
		}
		rd, meta, err := openStructural(m.data)
		if err != nil {
			m.verifyErr = err
			return
		}
		m.verifyErr = rd.checkFactSections(meta.Speeches)
	})
	runtime.KeepAlive(m)
	return m.verifyErr
}

// Close unmaps the region immediately. It is safe to call only when no
// speech obtained from this Map is still in use — the serving path
// never calls it (SwapData relies on the finalizer instead); it
// exists for tools and tests with bounded lifetimes. Close is
// idempotent, and a no-op for non-mapped views.
func (m *Map) Close() error {
	err := m.region.unmap()
	runtime.KeepAlive(m)
	return err
}

// Len returns the number of stored speeches.
func (m *Map) Len() int { return len(m.speeches) }

// HasTarget reports whether any speech exists for the target column.
func (m *Map) HasTarget(target string) bool {
	return m.targets[target] != nil
}

// Speeches returns all stored speeches in canonical-key order. The
// slice is shared and must be treated as read-only (the heap store
// returns a fresh slice; a zero-copy view does not). It is built on
// first use — the answering path never enumerates, so cold start does
// not pay for it.
func (m *Map) Speeches() []*engine.StoredSpeech {
	m.sortedOnce.Do(func() {
		sorted := make([]*engine.StoredSpeech, len(m.speeches))
		for i := range sorted {
			sorted[i] = m.at(i)
		}
		m.sorted = sorted
	})
	return m.sorted
}

// postings builds every target's posting lists, once, on the first
// query wide enough to need the intersection fallback. One pass over
// the speeches serves all targets; voice-sized queries never trigger
// it.
func (m *Map) postings() {
	m.postingOnce.Do(func() {
		for i := range m.speeches {
			sp := &m.speeches[i]
			t := m.targets[sp.Query.Target]
			if t.posting == nil {
				t.posting = make(map[engine.NamedPredicate][]int32)
			}
			for _, p := range sp.Query.Predicates {
				t.posting[p] = append(t.posting[p], int32(i))
			}
		}
	})
}

// key returns the canonical key at sorted position i.
func (m *Map) key(i int) string {
	if m.order != nil {
		i = int(m.order[i])
	}
	return m.keys[i]
}

// at returns the speech at sorted position i.
func (m *Map) at(i int) *engine.StoredSpeech {
	if m.order != nil {
		i = int(m.order[i])
	}
	return &m.speeches[i]
}

// findKey is the binary-search analogue of the heap store's byKey map.
func (m *Map) findKey(key string) (*engine.StoredSpeech, bool) {
	i, ok := sort.Find(len(m.keys), func(i int) int { return strings.Compare(key, m.key(i)) })
	if !ok {
		return nil, false
	}
	return m.at(i), true
}

// Exact returns the speech pre-generated for precisely this query.
func (m *Map) Exact(q engine.Query) (*engine.StoredSpeech, bool) {
	defer runtime.KeepAlive(m)
	return m.findKey(q.Key())
}

// Lookup returns the best speech for the query: the exact match, or
// the most specific containing generalization; see Store.Lookup for
// the full contract, which this implementation matches bit for bit.
func (m *Map) Lookup(q engine.Query) (*engine.StoredSpeech, bool) {
	sp, _, ok := m.Match(q)
	return sp, ok
}

// Match mirrors Store.Match: one canonicalization serves the exact
// probe and both index paths, subset enumeration runs largest-first
// under the shared budget, and ties break to the smallest canonical
// key.
func (m *Map) Match(q engine.Query) (sp *engine.StoredSpeech, exact, ok bool) {
	defer runtime.KeepAlive(m)
	preds := engine.CanonicalPreds(q.Predicates)
	if sp, ok := m.findKey(engine.PredsKey(q.Target, preds)); ok {
		return sp, true, true
	}
	t := m.targets[q.Target]
	if t == nil {
		return nil, false, false
	}
	top := len(preds)
	if t.maxPreds < top {
		top = t.maxPreds
	}
	if engine.EnumFits(len(preds), top) {
		sp, ok = m.lookupEnum(q.Target, preds, top)
	} else {
		sp, ok = m.lookupPosting(t, preds)
	}
	return sp, false, ok
}

// lookupEnum probes the canonical keys of all predicate subsets of
// size k = top..0; the smallest key among the hits of the first
// non-empty size wins, exactly as in the heap store — only the probe
// is a binary search instead of a map access.
func (m *Map) lookupEnum(target string, preds []engine.NamedPredicate, top int) (*engine.StoredSpeech, bool) {
	idx := make([]int, 0, top)
	for k := top; k >= 0; k-- {
		var best *engine.StoredSpeech
		bestKey := ""
		var walk func(start int)
		walk = func(start int) {
			if len(idx) == k {
				key := engine.SubsetPredsKey(target, preds, idx)
				if sp, ok := m.findKey(key); ok {
					if best == nil || key < bestKey {
						best, bestKey = sp, key
					}
				}
				return
			}
			for i := start; i <= len(preds)-(k-len(idx)); i++ {
				idx = append(idx, i)
				walk(i + 1)
				idx = idx[:len(idx)-1]
			}
		}
		walk(0)
		if best != nil {
			return best, true
		}
	}
	return nil, false
}

// mapScratch is the dense posting-intersection counter state, pooled
// per Map; same epoch-stamping trick as the heap store's postScratch,
// sized by total speeches because Map posting lists hold global
// indices.
type mapScratch struct {
	epoch   uint32
	stamp   []uint32
	count   []int32
	touched []int32
}

func (sc *mapScratch) reset(n int) {
	if cap(sc.stamp) < n {
		sc.stamp = make([]uint32, n)
		sc.count = make([]int32, n)
	}
	sc.stamp = sc.stamp[:n]
	sc.count = sc.count[:n]
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale stamps could collide, clear once
		clear(sc.stamp)
		sc.epoch = 1
	}
	sc.touched = sc.touched[:0]
}

// lookupPosting is the wide-query fallback, mirroring the heap store's:
// count shared predicates per referenced speech, keep the candidates
// whose count equals their own predicate count, break ties to the
// smallest key, fall back to the overall speech.
func (m *Map) lookupPosting(t *mapTarget, preds []engine.NamedPredicate) (*engine.StoredSpeech, bool) {
	m.postings()
	sc, _ := m.scratch.Get().(*mapScratch)
	if sc == nil {
		sc = &mapScratch{}
	}
	defer m.scratch.Put(sc)
	sc.reset(len(m.speeches))
	for _, p := range preds {
		for _, idx := range t.posting[p] {
			if sc.stamp[idx] != sc.epoch {
				sc.stamp[idx] = sc.epoch
				sc.count[idx] = 0
				sc.touched = append(sc.touched, idx)
			}
			sc.count[idx]++
		}
	}
	var best *engine.StoredSpeech
	bestShared, bestKey := -1, ""
	for _, idx := range sc.touched {
		sp := &m.speeches[idx]
		c := int(sc.count[idx])
		if c != len(sp.Query.Predicates) {
			continue
		}
		if c > bestShared || (c == bestShared && m.keys[idx] < bestKey) {
			best, bestShared, bestKey = sp, c, m.keys[idx]
		}
	}
	if best == nil && t.overall >= 0 {
		best = &m.speeches[t.overall]
	}
	if best == nil {
		return nil, false
	}
	return best, true
}

// Map must satisfy the serving contract.
var _ engine.StoreView = (*Map)(nil)
