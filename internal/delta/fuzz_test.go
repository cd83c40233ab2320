package delta

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/pipeline"
	"cicero/internal/snapshot"
)

// armorPatch wraps a JSON payload in a patch header with a correct
// version and correct checksums, so whatever the payload holds reaches
// the decoder and Replay instead of stopping at the CRC check.
func armorPatch(payload []byte) []byte {
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	hdr := make([]byte, 28)
	copy(hdr[0:8], snapshot.PatchMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], snapshot.PatchVersion)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[20:24], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint32(hdr[24:28], crc32.Checksum(hdr[:24], castagnoli))
	return append(hdr, payload...)
}

// FuzzPatchReplay drives the patch path past its checksums: a patch
// file is input from disk, and a corrupt one must fail ReadPatch or
// Replay with an error — never panic — so the base stays servable.
func FuzzPatchReplay(f *testing.F) {
	ctx := context.Background()
	rel := dataset.ACS(300, 11)
	cfg := acsConfig(rel, engine.PriorZero)
	base, _, err := pipeline.Run(ctx, rel, cfg, testOpts)
	if err != nil {
		f.Fatal(err)
	}
	b := Synthesize(rel, 5, 13)
	tab := FromRelation(rel)
	images, err := tab.Apply(b)
	if err != nil {
		f.Fatal(err)
	}
	res, err := Apply(ctx, base, rel, tab.Rel(), cfg, testOpts, images)
	if err != nil {
		f.Fatal(err)
	}
	seed, err := json.Marshal(NewPatch("base-fp", "fp", b, res))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"dataset":"acs","upserts":[{"query":{"target":"hearing"},"facts":[{"columns":["gender"],"value":1}]}]}`))
	f.Add([]byte(`{"ops":[{"op":"delete","row":-1}]}`))

	f.Fuzz(func(t *testing.T, payload []byte) {
		p, err := snapshot.ReadPatch(bytes.NewReader(armorPatch(payload)))
		if err != nil {
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("ReadPatch: %v, want ErrCorrupt", err)
			}
			return
		}
		store, next, err := Replay(base, rel, p)
		if err != nil {
			return
		}
		if store == nil || next == nil {
			t.Fatal("Replay succeeded without a store and relation")
		}
	})
}
