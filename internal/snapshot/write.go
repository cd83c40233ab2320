package snapshot

import (
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"cicero/internal/engine"
	"cicero/internal/relation"
)

// stringTable interns every string of the snapshot once; sections refer
// to strings by their uint32 id in first-appearance order.
type stringTable struct {
	ids  map[string]uint32
	list []string
}

func newStringTable() *stringTable {
	return &stringTable{ids: make(map[string]uint32)}
}

func (t *stringTable) intern(s string) uint32 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := uint32(len(t.list))
	t.ids[s] = id
	t.list = append(t.list, s)
	return id
}

// encode renders the table as its section bytes: count, CSR offsets
// (count+1 entries, relative to the blob start), then the blob.
func (t *stringTable) encode() []byte {
	blobLen := 0
	for _, s := range t.list {
		blobLen += len(s)
	}
	out := make([]byte, 4+4*(len(t.list)+1)+blobLen)
	le.PutUint32(out, uint32(len(t.list)))
	offs := out[4:]
	blob := out[4+4*(len(t.list)+1):]
	pos := uint32(0)
	for i, s := range t.list {
		le.PutUint32(offs[4*i:], pos)
		copy(blob[pos:], s)
		pos += uint32(len(s))
	}
	le.PutUint32(offs[4*len(t.list):], pos)
	return out
}

// u32s renders a []uint32 as little-endian bytes.
func u32s(v []uint32) []byte {
	out := make([]byte, 4*len(v))
	for i, x := range v {
		le.PutUint32(out[4*i:], x)
	}
	return out
}

// WriteTagged serializes the store as one snapshot. The relation
// resolves fact-scope dictionary codes to names and stamps the
// snapshot with its dataset name and schema; fingerprint records the
// build parameters (seed, query length, solver, ...) so a later boot
// can reject a structurally valid but stale artifact. The store need
// not be frozen; speeches are written in deterministic canonical-key
// order.
func WriteTagged(w io.Writer, store *engine.Store, rel *relation.Relation, fingerprint string) error {
	strs := newStringTable()
	speeches := store.Speeches()
	dims := rel.Schema().Dimensions

	// Meta references: intern the identity strings first so small
	// snapshots keep them at the front of the table.
	dsID := strs.intern(rel.Name())
	dimIDs := make([]uint32, len(dims))
	for i, d := range dims {
		dimIDs[i] = strs.intern(d)
	}
	targetIDs := make([]uint32, len(rel.Schema().Targets))
	for i, t := range rel.Schema().Targets {
		targetIDs[i] = strs.intern(t)
	}

	// Flatten speeches into the CSR arrays.
	speechRecs := make([]byte, 0, speechRecordSize*len(speeches))
	predStart := make([]uint32, 1, len(speeches)+1)
	var preds []uint32 // (column, value) id pairs
	factStart := make([]uint32, 1, len(speeches)+1)
	var factValues []byte   // float64 bits
	var scopeStart []uint32 // one entry per fact, plus terminator
	var scopePairs []uint32 // (dimension, value) id pairs
	scopeStart = append(scopeStart, 0)

	for _, sp := range speeches {
		var rec [speechRecordSize]byte
		le.PutUint32(rec[0:], strs.intern(sp.Query.Target))
		le.PutUint32(rec[4:], strs.intern(sp.Text))
		le.PutUint64(rec[8:], math.Float64bits(sp.Utility))
		le.PutUint64(rec[16:], math.Float64bits(sp.PriorError))
		speechRecs = append(speechRecs, rec[:]...)

		for _, p := range sp.Query.Predicates {
			preds = append(preds, strs.intern(p.Column), strs.intern(p.Value))
		}
		predStart = append(predStart, uint32(len(preds)/2))

		for _, f := range sp.Facts {
			var vb [8]byte
			le.PutUint64(vb[:], math.Float64bits(f.Value))
			factValues = append(factValues, vb[:]...)
			for i, d := range f.Scope.Dims {
				scopePairs = append(scopePairs,
					strs.intern(dims[d]),
					strs.intern(rel.Dim(d).Value(f.Scope.Codes[i])))
			}
			scopeStart = append(scopeStart, uint32(len(scopePairs)/2))
		}
		factStart = append(factStart, uint32(len(factValues)/8))
	}

	// Meta section: fixed prefix plus dimension and target id arrays.
	meta := make([]byte, metaFixedSize, metaFixedSize+4*(len(dimIDs)+len(targetIDs)))
	le.PutUint32(meta[0:], dsID)
	le.PutUint32(meta[4:], uint32(len(speeches)))
	le.PutUint64(meta[8:], uint64(time.Now().UnixNano()))
	le.PutUint32(meta[16:], uint32(len(dimIDs)))
	le.PutUint32(meta[20:], uint32(len(targetIDs)))
	le.PutUint32(meta[24:], strs.intern(fingerprint))
	meta = append(meta, u32s(dimIDs)...)
	meta = append(meta, u32s(targetIDs)...)

	sections := []struct {
		id   uint32
		data []byte
	}{
		{secMeta, meta},
		{secStrings, strs.encode()},
		{secSpeeches, speechRecs},
		{secPredStart, u32s(predStart)},
		{secPreds, u32s(preds)},
		{secFactStart, u32s(factStart)},
		{secFactValues, factValues},
		{secScopeStart, u32s(scopeStart)},
		{secScopePairs, u32s(scopePairs)},
	}

	// Assemble the payload: section table first, then the 8-byte-aligned
	// section bodies.
	tableLen := sectionEntrySize * len(sections)
	payloadLen := align8(tableLen)
	offsets := make([]int, len(sections))
	for i, s := range sections {
		offsets[i] = payloadLen
		payloadLen = align8(payloadLen + len(s.data))
	}
	payload := make([]byte, payloadLen)
	for i, s := range sections {
		e := payload[sectionEntrySize*i:]
		le.PutUint32(e[0:], s.id)
		le.PutUint64(e[8:], uint64(offsets[i]))
		le.PutUint64(e[16:], uint64(len(s.data)))
		copy(payload[offsets[i]:], s.data)
	}

	var hdr [headerSize]byte
	copy(hdr[offMagic:], Magic)
	le.PutUint32(hdr[offVersion:], Version)
	le.PutUint32(hdr[offSectionCount:], uint32(len(sections)))
	le.PutUint64(hdr[offPayloadSize:], uint64(payloadLen))
	le.PutUint32(hdr[offPayloadCRC:], crc32.Checksum(payload, castagnoli))
	le.PutUint32(hdr[offHeaderCRC:], crc32.Checksum(hdr[:offHeaderCRC], castagnoli))

	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// WriteFile writes the snapshot atomically with an empty build
// fingerprint; see WriteFileTagged.
func WriteFile(path string, store *engine.Store, rel *relation.Relation) error {
	return WriteFileTagged(path, store, rel, "")
}

// WriteFileTagged writes the snapshot atomically and durably: the
// bytes go to a temporary file next to path, which is fsynced and then
// renamed into place — with the parent directory fsynced after the
// rename — so readers never observe a torn snapshot and a crash right
// after return cannot lose it. See WriteTagged for the fingerprint
// semantics.
func WriteFileTagged(path string, store *engine.Store, rel *relation.Relation, fingerprint string) error {
	return atomicWriteFile(path, func(w io.Writer) error {
		return WriteTagged(w, store, rel, fingerprint)
	})
}

// atomicWriteFile renders write's output into path with the
// temp-file → fsync → rename → fsync-dir discipline. Split out so
// tests can drive the commit path with a faulting writer.
func atomicWriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	// The data must be on stable storage before the rename publishes
	// it: rename-then-crash must never leave a named empty file.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// And the rename itself must survive: fsync the parent directory so
	// the new directory entry is durable too.
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
