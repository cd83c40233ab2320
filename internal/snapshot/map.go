package snapshot

import (
	"math"
	"os"
	"runtime"
	"sync"
	"unsafe"

	"cicero/internal/engine"
	"cicero/internal/relation"
)

// Map is the snapshot reader: an engine.StoreView served directly out
// of the snapshot bytes, mapped from disk where the platform supports
// mmap. It materializes only a thin layer over them — speech structs
// whose Target, Text, and predicate strings are unsafe views into the
// mapped interned-string table — and hands those to the same
// engine.Index that backs the heap store, so the two containers answer
// every query identically by construction. The snapshot writer emits
// speeches in key order, so building the index is one pass. Cold start
// touches the pages the index needs; speech text pages fault in lazily
// as queries hit them, and the kernel may share them across processes
// serving the same artifact.
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
	rd     *reader
	region *mapRegion
	meta   Meta

	// speeches is the file-order backing array every escaped
	// *StoredSpeech points into; the unmap finalizer hangs off it.
	speeches []engine.StoredSpeech
	// idx answers every StoreView method over pointers into speeches.
	idx *engine.Index

	verifyOnce sync.Once
	verifyErr  error
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
// whole file. Error contract matches Decode: ErrCorrupt, ErrVersion,
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
	return buildMap(data, rd, meta, closer, rel)
}

// buildMap is newMap past the structural checks, which Decode runs
// itself so it can verify the payload checksum before anything in the
// payload is interpreted.
func buildMap(data []byte, rd *reader, meta Meta, closer func() error, rel *relation.Relation) (*Map, error) {
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
	ptrs := make([]*engine.StoredSpeech, n)
	preds := make([]engine.NamedPredicate, predStart[n])
	for i := 0; i < n; i++ {
		rec := recs[speechRecordSize*i:]
		sp := &speeches[i]
		ptrs[i] = sp
		sp.Utility = math.Float64frombits(le.Uint64(rec[8:]))
		sp.PriorError = math.Float64frombits(le.Uint64(rec[16:]))
		if sp.Query.Target, err = rd.strView(le.Uint32(rec[0:])); err != nil {
			return nil, err
		}
		if sp.Text, err = rd.strView(le.Uint32(rec[4:])); err != nil {
			return nil, err
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
			// The index builds its keys straight from this order, and the
			// writer only ever emits the canonical one.
			if p > lo && (np.Column < prev.Column || (np.Column == prev.Column && np.Value <= prev.Value)) {
				return nil, corruptf("speech %d predicates are not in canonical order", i)
			}
			prev = np
			preds[p] = np
		}
		if lo < hi {
			sp.Query.Predicates = preds[lo:hi:hi]
		}
	}

	// The writer emits key order; the index sorts a reordered
	// (hand-written) file's pointers and rejects a duplicated key.
	idx, err := engine.NewIndex(ptrs)
	if err != nil {
		return nil, corruptf("%v", err)
	}

	m := &Map{data: data, rd: rd, meta: meta, speeches: speeches, idx: idx}
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
		_, _, m.verifyErr = m.rd.factSections(m.meta.Speeches)
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

// The StoreView methods delegate to the index; KeepAlive pins the Map —
// and with it an empty view's finalizer — until the probe has returned.

// Len returns the number of stored speeches.
func (m *Map) Len() int { return m.idx.Len() }

// HasTarget reports whether any speech exists for the target column.
func (m *Map) HasTarget(target string) bool { return m.idx.HasTarget(target) }

// Speeches returns all stored speeches in canonical-key order. The
// slice is shared and must be treated as read-only.
func (m *Map) Speeches() []*engine.StoredSpeech { return m.idx.Speeches() }

// Exact returns the speech pre-generated for precisely this query.
func (m *Map) Exact(q engine.Query) (*engine.StoredSpeech, bool) {
	defer runtime.KeepAlive(m)
	return m.idx.Exact(q)
}

// Lookup returns the exact match or the most specific containing
// generalization; see engine.Index.Lookup for the contract.
func (m *Map) Lookup(q engine.Query) (*engine.StoredSpeech, bool) {
	defer runtime.KeepAlive(m)
	return m.idx.Lookup(q)
}

// Match is Lookup plus the exact flag; see engine.Index.Match.
func (m *Map) Match(q engine.Query) (sp *engine.StoredSpeech, exact, ok bool) {
	defer runtime.KeepAlive(m)
	return m.idx.Match(q)
}

// Map must satisfy the serving contract.
var _ engine.StoreView = (*Map)(nil)
