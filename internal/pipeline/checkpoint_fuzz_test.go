package pipeline

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"cicero/internal/dataset"
)

// FuzzOpenCheckpoint drives the checkpoint loader: a checkpoint is a
// file on disk a crash may have torn anywhere. Nothing may panic;
// OpenCheckpoint either fails or leaves a file that is empty or ends in
// a newline (a torn tail is cut off on disk, so the next record cannot
// glue onto it); and reopening that file finds the same records.
func FuzzOpenCheckpoint(f *testing.F) {
	rel := dataset.Flights(300, 1)
	path := filepath.Join(f.TempDir(), "seed.ckpt")
	ckpt, err := OpenCheckpoint(path, rel)
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := Run(context.Background(), rel, flightsConfig(rel), Options{Solver: "G-O", Checkpoint: ckpt}); err != nil {
		f.Fatal(err)
	}
	if err := ckpt.Close(); err != nil {
		f.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	// The last record cut mid-line, as a crash mid-write leaves it.
	last := bytes.LastIndexByte(full[:len(full)-1], '\n') + 1
	f.Add(full[:last+(len(full)-last)/2])
	f.Add(full)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCheckpoint(path, rel)
		if err != nil {
			return
		}
		n := c.Len()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(kept) > 0 && kept[len(kept)-1] != '\n' {
			t.Fatalf("opened checkpoint left a torn tail on disk: %q", kept)
		}
		again, err := OpenCheckpoint(path, rel)
		if err != nil {
			t.Fatalf("reopening an opened checkpoint: %v", err)
		}
		defer again.Close()
		if again.Len() != n {
			t.Fatalf("reopened checkpoint holds %d records, first open %d", again.Len(), n)
		}
	})
}
