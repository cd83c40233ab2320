package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/pipeline"
	"cicero/internal/snapshot"
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

// TestRunBatchWritesSnapshot: with -snapshot-out, the batch's output is
// the deployable artifact — the written file reads back into the store
// runBatch returned, tagged with the fingerprint cmd/serve validates.
func TestRunBatchWritesSnapshot(t *testing.T) {
	rel, cfg, err := loadInput("flights", "", "", 1, 1500)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxQueryLen = 1
	fp := pipeline.Fingerprint(1, cfg, "G-O")
	path := filepath.Join(t.TempDir(), "flights.snap")
	store, _, err := runBatch(context.Background(), rel, cfg, pipeline.Options{Workers: 2}, path, fp)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := snapshot.InfoFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Fingerprint != fp {
		t.Errorf("snapshot tagged %q, want %q", meta.Fingerprint, fp)
	}
	loaded, err := snapshot.ReadFile(path, rel)
	if err != nil {
		t.Fatal(err)
	}
	want, got := store.Speeches(), loaded.Speeches()
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("snapshot holds %d speeches, the batch returned %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Query.Key() != want[i].Query.Key() || got[i].Text != want[i].Text ||
			math.Float64bits(got[i].Utility) != math.Float64bits(want[i].Utility) {
			t.Fatalf("speech %d diverged after the snapshot round trip", i)
		}
	}
}

// runMainEnv, when set, makes the test binary behave as the summarize
// command (see TestMain), so a test can observe its exit status.
const runMainEnv = "SUMMARIZE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// summarizeCmd runs the summarize command with args in a child process
// and returns its exit code and combined output.
func summarizeCmd(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	}
	t.Fatalf("summarize %v: %v", args, err)
	return 0, ""
}

// TestUnwritableSnapshotKeepsCheckpoint: a snapshot that cannot be
// written fails the command after the batch has run, and the checkpoint
// must survive closed, not removed, so -resume skips every solved
// problem and only writes the snapshot again.
func TestUnwritableSnapshotKeepsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "flights.ckpt")
	// A directory: the snapshot's final rename onto it fails.
	blocked := filepath.Join(dir, "blocked.snap")
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	args := []string{"-data", "flights", "-rows", "400", "-maxlen", "1", "-show", "0", "-checkpoint", ckpt}

	code, out := summarizeCmd(t, append(args, "-snapshot-out", blocked)...)
	if code == 0 {
		t.Fatalf("unwritable -snapshot-out exited 0:\n%s", out)
	}
	rel, _, err := loadInput("flights", "", "", 1, 400)
	if err != nil {
		t.Fatal(err)
	}
	c, err := pipeline.OpenCheckpoint(ckpt, rel)
	if err != nil {
		t.Fatalf("checkpoint after the failed write: %v", err)
	}
	solved := c.Len()
	c.Close()
	if solved == 0 {
		t.Fatalf("the failed run left an empty checkpoint:\n%s", out)
	}

	snap := filepath.Join(dir, "flights.snap")
	code, out = summarizeCmd(t, append(args, "-resume", "-snapshot-out", snap)...)
	if code != 0 {
		t.Fatalf("-resume exited %d:\n%s", code, out)
	}
	if want := fmt.Sprintf("resuming: %d problems already completed", solved); !strings.Contains(out, want) {
		t.Errorf("-resume output lacks %q:\n%s", want, out)
	}
	if !strings.Contains(out, fmt.Sprintf("speeches:        %d (%d resumed)", solved, solved)) {
		t.Errorf("-resume solved problems again:\n%s", out)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("checkpoint left behind after a completed run (stat: %v)", err)
	}
	if meta, err := snapshot.InfoFile(snap); err != nil || meta.Speeches != solved {
		t.Errorf("resumed snapshot: %+v, %v; want %d speeches", meta, err, solved)
	}
}
