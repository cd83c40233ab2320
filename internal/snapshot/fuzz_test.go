package snapshot

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/engine"
)

// FuzzMapBytes feeds arbitrary bytes to the one snapshot reader. The
// seeds are a valid snapshot and the damaged files the hand-written
// tests craft. Whatever the input: no panic; a refusal is one of the
// three typed errors; a view that maps answers every key it stores
// exactly, survives a query wide enough for the posting path, and
// Verify and Decode agree on whether the file is sound.
func FuzzMapBytes(f *testing.F) {
	rel := dataset.Flights(300, 1)
	cfg := engine.DefaultConfig(rel)
	cfg.Targets = []string{"cancelled"}
	cfg.Dimensions = []string{"season", "time_of_day"}
	cfg.MaxQueryLen = 2
	valid := encode(f, solveAll(f, rel, cfg, engine.Template{}), rel)

	f.Add(valid)
	for _, craft := range []func(testing.TB, []byte){
		swapFirstPredPair,
		forgeDuplicateKey,
		func(t testing.TB, data []byte) { permuteRecords(t, data) },
		func(_ testing.TB, data []byte) { data[len(data)/2] ^= 0x40 }, // payload bit rot
		func(_ testing.TB, data []byte) { // version skew behind a valid header checksum
			le.PutUint32(data[offVersion:], Version+3)
			le.PutUint32(data[offHeaderCRC:], crc32.Checksum(data[:offHeaderCRC], castagnoli))
		},
	} {
		data := bytes.Clone(valid)
		craft(f, data)
		f.Add(data)
	}
	for _, n := range []int{0, headerSize - 1, headerSize, len(valid) / 2, len(valid) - 1} {
		f.Add(valid[:n]) // torn writes
	}

	typed := func(err error) bool {
		return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrVersion) || errors.Is(err, ErrDataset)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := MapBytes(data, rel)
		_, derr := Decode(data, rel)
		if err != nil {
			if !typed(err) {
				t.Fatalf("MapBytes: untyped error %v", err)
			}
			if derr == nil {
				t.Fatalf("Decode accepted what MapBytes refused: %v", err)
			}
			return
		}
		wide := engine.Query{Target: "cancelled"}
		for _, sp := range m.Speeches() {
			got, exact, ok := m.Match(sp.Query)
			if !ok || !exact || got != sp {
				t.Fatalf("Match(%q) = %v exact=%v ok=%v, want the stored speech", sp.Query.Key(), got, exact, ok)
			}
			wide.Target = sp.Query.Target
			wide.Predicates = append(wide.Predicates, sp.Query.Predicates...)
		}
		for i := 0; i < 130; i++ {
			wide.Predicates = append(wide.Predicates, engine.NamedPredicate{Column: fmt.Sprintf("zz%03d", i), Value: "x"})
		}
		m.Match(wide)
		verr := m.Verify()
		if verr != nil && !typed(verr) {
			t.Fatalf("Verify: untyped error %v", verr)
		}
		if derr != nil && !typed(derr) {
			t.Fatalf("Decode: untyped error %v", derr)
		}
		if (verr == nil) != (derr == nil) {
			t.Fatalf("Verify says %v, Decode says %v", verr, derr)
		}
	})
}
