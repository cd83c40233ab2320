package main

import (
	"testing"

	"cicero/internal/dataset"
)

// TestLoadInputAcceptsEveryDataset guards against a private name list:
// every built-in data set cmd/serve can mount must be summarizable, or
// that tenant cannot be given a snapshot or a patch.
func TestLoadInputAcceptsEveryDataset(t *testing.T) {
	for _, name := range dataset.Names() {
		rel, cfg, err := loadInput(name, "", "", 1, 0)
		if err != nil {
			t.Errorf("loadInput(%q): %v", name, err)
			continue
		}
		if rel.NumRows() != dataset.DefaultRows[name] {
			t.Errorf("%s: %d rows at -rows 0, want the default %d", name, rel.NumRows(), dataset.DefaultRows[name])
		}
		if err := cfg.Validate(rel); err != nil {
			t.Errorf("%s: default config invalid: %v", name, err)
		}
		if sized, _, err := loadInput(name, "", "", 1, 400); err != nil || sized.NumRows() != 400 {
			t.Errorf("loadInput(%q, rows=400) did not generate 400 rows (err %v)", name, err)
		}
	}
	if _, _, err := loadInput("nope", "", "", 1, 0); err == nil {
		t.Error("unknown data set accepted")
	}
}
