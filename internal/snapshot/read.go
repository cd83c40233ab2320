package snapshot

import (
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"cicero/internal/engine"
	"cicero/internal/fact"
	"cicero/internal/relation"
)

// reader decodes one validated snapshot held fully in memory. Every
// access is bounds-checked, so a corrupt or adversarial file surfaces
// as ErrCorrupt, never as a panic.
type reader struct {
	sections map[uint32][]byte

	// Decoded string table.
	strOffs []uint32
	strBlob []byte
}

// ReadFile loads the snapshot at path into a heap store; see Decode.
func ReadFile(path string, rel *relation.Relation) (*engine.Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data, rel)
}

// Decode rebuilds the frozen heap store, facts included, from in-memory
// snapshot bytes: the facts-complete load for tools that re-write an
// artifact (serving maps instead; see Map). It is the Map reader with
// the deferred Verify run up front, plus a deep copy, so both entry
// points accept exactly the same files. It fails with ErrCorrupt on
// truncation, checksum mismatch, or a malformed section, ErrVersion on
// format-version skew, and ErrDataset when the snapshot was written for
// a different dataset or schema. Facts whose scope names no longer
// resolve against rel's dictionaries are dropped from their speech (the
// speech text is kept verbatim). The store shares no memory with data.
func Decode(data []byte, rel *relation.Relation) (*engine.Store, error) {
	rd, meta, err := openStructural(data)
	if err != nil {
		return nil, err
	}
	// Checksum before the payload is interpreted, so a flipped byte reads
	// as corruption and not as whatever the damaged field now claims (a
	// different dataset, say).
	if err := verifyPayload(data); err != nil {
		return nil, err
	}
	m, err := buildMap(data, rd, meta, nil, rel)
	if err != nil {
		return nil, err
	}
	factVals, scopePairs := rd.sections[secFactValues], rd.sections[secScopePairs]
	factStart, scopeStart, err := rd.factSections(meta.Speeches)
	if err != nil {
		return nil, err
	}
	store := engine.NewStore()
	// Map keeps the file's record order (only the index's pointers are
	// sorted), so speech i owns facts factStart[i]..factStart[i+1].
	for i := range m.speeches {
		view := &m.speeches[i]
		sp := &engine.StoredSpeech{
			Query:      engine.Query{Target: strings.Clone(view.Query.Target)},
			Utility:    view.Utility,
			PriorError: view.PriorError,
			Text:       strings.Clone(view.Text),
		}
		for _, p := range view.Query.Predicates {
			sp.Query.Predicates = append(sp.Query.Predicates, engine.NamedPredicate{
				Column: strings.Clone(p.Column), Value: strings.Clone(p.Value)})
		}
		for f := factStart[i]; f < factStart[i+1]; f++ {
			fc, ok, err := rd.restoreFact(rel, scopeStart, scopePairs, f, factVals)
			if err != nil {
				return nil, err
			}
			if ok {
				sp.Facts = append(sp.Facts, fc)
			}
		}
		store.Add(sp)
	}
	return store.Freeze(), nil
}

// Info returns the snapshot's metadata without rebuilding the store.
// The header checksum, format version, and every structural bound are
// verified; the payload checksum is not — metadata reads are a boot
// fast path, and the payload is checksummed once by whichever full
// load (Decode or Map.Verify) follows. A corrupt meta or string
// section still surfaces as ErrCorrupt through the bounds checks.
func Info(data []byte) (Meta, error) {
	_, meta, err := openStructural(data)
	if err != nil {
		return Meta{}, err
	}
	return meta, nil
}

// InfoFile returns the metadata of the snapshot at path; see Info. On
// platforms with mmap support the file is mapped rather than read, so
// only the header, section table, meta, and string-table pages are
// faulted in — O(pages needed), not O(file) — which is what lets a
// daemon hosting hundreds of snapshots scan their provenance cheaply
// at boot.
func InfoFile(path string) (Meta, error) {
	data, closer, err := mapWhole(path)
	if err != nil {
		return Meta{}, err
	}
	meta, infoErr := Info(data)
	if closer != nil {
		// Meta strings are copies, never views, so unmapping here is safe.
		if err := closer(); err != nil && infoErr == nil {
			return Meta{}, err
		}
	}
	return meta, infoErr
}

// check validates the snapshot's provenance against the relation it is
// being mounted onto.
func (m Meta) check(rel *relation.Relation) error {
	if m.Dataset != rel.Name() {
		return fmt.Errorf("%w: snapshot of dataset %q cannot serve relation %q",
			ErrDataset, m.Dataset, rel.Name())
	}
	if !slices.Equal(m.Dimensions, rel.Schema().Dimensions) {
		return fmt.Errorf("%w: snapshot dimensions %v, relation has %v",
			ErrDataset, m.Dimensions, rel.Schema().Dimensions)
	}
	if !slices.Equal(m.Targets, rel.Schema().Targets) {
		return fmt.Errorf("%w: snapshot targets %v, relation has %v",
			ErrDataset, m.Targets, rel.Schema().Targets)
	}
	return nil
}

// verifyPayload checks the payload checksum recorded in an
// already-header-verified snapshot.
func verifyPayload(data []byte) error {
	hdr, payload := data[:headerSize], data[headerSize:]
	if got := crc32.Checksum(payload, castagnoli); got != le.Uint32(hdr[offPayloadCRC:]) {
		return corruptf("payload checksum mismatch (computed %08x, stored %08x)",
			got, le.Uint32(hdr[offPayloadCRC:]))
	}
	return nil
}

// openStructural verifies the header (magic, header checksum, version,
// payload size), section table, string table, and meta section — every
// structural bound, but not the payload checksum. The mmap reader
// builds on this so mapping a snapshot faults in only the pages the
// index needs, deferring the full-file checksum scan to Verify.
func openStructural(data []byte) (*reader, Meta, error) {
	if len(data) < headerSize {
		return nil, Meta{}, corruptf("file of %d bytes is smaller than the %d-byte header", len(data), headerSize)
	}
	hdr := data[:headerSize]
	if string(hdr[offMagic:offMagic+8]) != Magic {
		return nil, Meta{}, corruptf("bad magic %q — not a cicero snapshot", hdr[offMagic:offMagic+8])
	}
	if got := crc32.Checksum(hdr[:offHeaderCRC], castagnoli); got != le.Uint32(hdr[offHeaderCRC:]) {
		return nil, Meta{}, corruptf("header checksum mismatch (computed %08x, stored %08x)",
			got, le.Uint32(hdr[offHeaderCRC:]))
	}
	if v := le.Uint32(hdr[offVersion:]); v != Version {
		return nil, Meta{}, fmt.Errorf("%w: file has format version %d, this build reads version %d",
			ErrVersion, v, Version)
	}
	payload := data[headerSize:]
	if size := le.Uint64(hdr[offPayloadSize:]); size != uint64(len(payload)) {
		return nil, Meta{}, corruptf("truncated: header declares %d payload bytes, file carries %d",
			size, len(payload))
	}

	nSections := int(le.Uint32(hdr[offSectionCount:]))
	if nSections > maxSections || sectionEntrySize*nSections > len(payload) {
		return nil, Meta{}, corruptf("section table with %d entries does not fit the payload", nSections)
	}
	rd := &reader{sections: make(map[uint32][]byte, nSections)}
	for i := 0; i < nSections; i++ {
		e := payload[sectionEntrySize*i:]
		id := le.Uint32(e[0:])
		off, length := le.Uint64(e[8:]), le.Uint64(e[16:])
		if off > uint64(len(payload)) || length > uint64(len(payload))-off {
			return nil, Meta{}, corruptf("section %d spans [%d, %d+%d) beyond the %d-byte payload",
				id, off, off, length, len(payload))
		}
		if _, dup := rd.sections[id]; dup {
			return nil, Meta{}, corruptf("duplicate section id %d", id)
		}
		rd.sections[id] = payload[off : off+length]
	}
	for _, id := range []uint32{secMeta, secStrings, secSpeeches, secPredStart,
		secPreds, secFactStart, secFactValues, secScopeStart, secScopePairs} {
		if _, ok := rd.sections[id]; !ok {
			return nil, Meta{}, corruptf("required section %d missing", id)
		}
	}
	if err := rd.decodeStrings(); err != nil {
		return nil, Meta{}, err
	}
	meta, err := rd.decodeMeta(int64(len(data)))
	if err != nil {
		return nil, Meta{}, err
	}
	return rd, meta, nil
}

// decodeStrings validates the interned-string section: a count, count+1
// monotone CSR offsets, and the blob they index.
func (rd *reader) decodeStrings() error {
	sec := rd.sections[secStrings]
	if len(sec) < 8 {
		return corruptf("string table of %d bytes has no room for its counts", len(sec))
	}
	count := int(le.Uint32(sec))
	offsEnd := 4 + 4*(count+1)
	if count < 0 || offsEnd > len(sec) {
		return corruptf("string table declares %d strings but holds %d bytes", count, len(sec))
	}
	offs := make([]uint32, count+1)
	for i := range offs {
		offs[i] = le.Uint32(sec[4+4*i:])
	}
	blob := sec[offsEnd:]
	for i := 0; i < count; i++ {
		if offs[i] > offs[i+1] {
			return corruptf("string table offsets decrease at entry %d", i)
		}
	}
	if int(offs[count]) != len(blob) {
		return corruptf("string blob is %d bytes, offsets claim %d", len(blob), offs[count])
	}
	rd.strOffs, rd.strBlob = offs, blob
	return nil
}

// str resolves one interned string id.
func (rd *reader) str(id uint32) (string, error) {
	if int(id) >= len(rd.strOffs)-1 {
		return "", corruptf("string id %d out of range (%d interned)", id, len(rd.strOffs)-1)
	}
	return string(rd.strBlob[rd.strOffs[id]:rd.strOffs[id+1]]), nil
}

// decodeMeta parses the meta section.
func (rd *reader) decodeMeta(fileSize int64) (Meta, error) {
	sec := rd.sections[secMeta]
	if len(sec) < metaFixedSize {
		return Meta{}, corruptf("meta section of %d bytes is smaller than its %d-byte fixed prefix", len(sec), metaFixedSize)
	}
	nDims := int(le.Uint32(sec[16:]))
	nTargets := int(le.Uint32(sec[20:]))
	if nDims < 0 || nTargets < 0 || metaFixedSize+4*(nDims+nTargets) > len(sec) {
		return Meta{}, corruptf("meta section declares %d dimensions and %d targets but holds %d bytes",
			nDims, nTargets, len(sec))
	}
	meta := Meta{
		Speeches:      int(le.Uint32(sec[4:])),
		Created:       time.Unix(0, int64(le.Uint64(sec[8:]))),
		FormatVersion: Version,
		Size:          fileSize,
	}
	var err error
	if meta.Dataset, err = rd.str(le.Uint32(sec[0:])); err != nil {
		return Meta{}, err
	}
	if meta.Fingerprint, err = rd.str(le.Uint32(sec[24:])); err != nil {
		return Meta{}, err
	}
	ids := sec[metaFixedSize:]
	meta.Dimensions = make([]string, nDims)
	for i := range meta.Dimensions {
		if meta.Dimensions[i], err = rd.str(le.Uint32(ids[4*i:])); err != nil {
			return Meta{}, err
		}
	}
	meta.Targets = make([]string, nTargets)
	for i := range meta.Targets {
		if meta.Targets[i], err = rd.str(le.Uint32(ids[4*(nDims+i):])); err != nil {
			return Meta{}, err
		}
	}
	return meta, nil
}

// csr validates a CSR offset section: wantLen entries, monotone,
// terminated exactly at flatLen.
func (rd *reader) csr(id uint32, wantLen, flatLen int, what string) ([]uint32, error) {
	sec := rd.sections[id]
	if len(sec) != 4*wantLen {
		return nil, corruptf("%s offsets hold %d bytes, want %d", what, len(sec), 4*wantLen)
	}
	offs := make([]uint32, wantLen)
	for i := range offs {
		offs[i] = le.Uint32(sec[4*i:])
		if i > 0 && offs[i] < offs[i-1] {
			return nil, corruptf("%s offsets decrease at entry %d", what, i)
		}
	}
	if wantLen > 0 && int(offs[wantLen-1]) != flatLen {
		return nil, corruptf("%s offsets end at %d, flat section holds %d entries", what, offs[wantLen-1], flatLen)
	}
	return offs, nil
}

// factSections validates the fact-side CSR sections and returns their
// offsets: per-speech fact ranges and per-fact scope-pair ranges. The
// mmap view never dereferences these sections, so this is the
// structural half of its deferred Verify; Decode walks the offsets.
func (rd *reader) factSections(n int) (factStart, scopeStart []uint32, err error) {
	factVals := rd.sections[secFactValues]
	if len(factVals)%8 != 0 {
		return nil, nil, corruptf("fact-value section of %d bytes is not 8-byte aligned", len(factVals))
	}
	scopePairs := rd.sections[secScopePairs]
	if len(scopePairs)%8 != 0 {
		return nil, nil, corruptf("scope-pair section of %d bytes is not pair-aligned", len(scopePairs))
	}
	nFacts := len(factVals) / 8
	if factStart, err = rd.csr(secFactStart, n+1, nFacts, "fact"); err != nil {
		return nil, nil, err
	}
	if scopeStart, err = rd.csr(secScopeStart, nFacts+1, len(scopePairs)/8, "scope"); err != nil {
		return nil, nil, err
	}
	return factStart, scopeStart, nil
}

// restoreFact resolves one fact's scope names back to dictionary codes.
// A fact whose column or value no longer exists in the relation is
// dropped (ok=false) rather than failing the load.
func (rd *reader) restoreFact(rel *relation.Relation, scopeStart []uint32, scopePairs []byte, f uint32, factVals []byte) (fact.Fact, bool, error) {
	var dims []int
	var codes []int32
	for s := scopeStart[f]; s < scopeStart[f+1]; s++ {
		col, err := rd.str(le.Uint32(scopePairs[8*s:]))
		if err != nil {
			return fact.Fact{}, false, err
		}
		val, err := rd.str(le.Uint32(scopePairs[8*s+4:]))
		if err != nil {
			return fact.Fact{}, false, err
		}
		d := rel.Schema().DimIndex(col)
		if d < 0 {
			return fact.Fact{}, false, nil
		}
		code, found := rel.Dim(d).Code(val)
		if !found {
			return fact.Fact{}, false, nil
		}
		// A checksum-valid file could still be hand-crafted; a repeated
		// dimension would panic fact.NewScope, so reject it as corrupt.
		for _, prev := range dims {
			if prev == d {
				return fact.Fact{}, false, corruptf("fact %d restricts dimension %q twice", f, col)
			}
		}
		dims = append(dims, d)
		codes = append(codes, code)
	}
	return fact.Fact{
		Scope: fact.NewScope(dims, codes),
		Value: math.Float64frombits(le.Uint64(factVals[8*f:])),
	}, true, nil
}
