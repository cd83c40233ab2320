package pipeline

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"cicero/internal/engine"
	"cicero/internal/relation"
)

// Checkpoint is the pipeline's crash/cancel recovery log: an append-only
// JSONL file with one record per completed problem. A run opened against
// an existing checkpoint skips every recorded problem and seeds its sink
// with the recorded speeches, so an interrupted batch resumes from the
// last completed problem instead of restarting. Records use the
// name-resolved persistence form of the engine package, so a checkpoint
// survives re-ingestion of the data with different dictionary code
// assignment.
//
// A Checkpoint is safe for concurrent use; the pipeline's single sink
// goroutine is the only writer in practice.
type Checkpoint struct {
	path string
	rel  *relation.Relation

	mu      sync.Mutex
	meta    *CheckpointMeta
	done    map[string]bool
	resumed []*engine.StoredSpeech
	f       *os.File
	w       *bufio.Writer
}

// CheckpointMeta identifies the run a checkpoint belongs to: the data
// (name and row count, the latter a cheap tripwire for a re-generated
// or re-ingested data set), the solver, the full validated
// configuration, and a template fingerprint. Resuming under any other
// setting would silently mix speeches of different provenance — other
// targets, another prior, another solver's quality, another text style
// — into one seemingly complete store, so the pipeline writes the meta
// as the file's first record and refuses to resume on a mismatch.
type CheckpointMeta struct {
	Dataset        string `json:"dataset"`
	Rows           int    `json:"rows"`
	Solver         string `json:"solver"`
	Targets        string `json:"targets"`         // comma-joined, post-validation
	Dimensions     string `json:"dimensions"`      // comma-joined, post-validation
	FactDimensions string `json:"fact_dimensions"` // comma-joined, post-validation
	MaxQueryLen    int    `json:"max_query_len"`
	MaxFactDims    int    `json:"max_fact_dims"`
	MaxFacts       int    `json:"max_facts"`
	Prior          string `json:"prior"`
	MinSubsetRows  int    `json:"min_subset_rows"`
	Template       string `json:"template"` // rendered fingerprint of the text template
}

// checkpointRecord is one line of the checkpoint file: either the meta
// header (first line) or a completed problem.
type checkpointRecord struct {
	// Meta is set on the header record only.
	Meta *CheckpointMeta `json:"meta,omitempty"`
	// Key is the canonical query key of the completed problem.
	Key string `json:"key,omitempty"`
	// Speech is the completed speech in persistence form.
	Speech engine.PersistedSpeech `json:"speech,omitzero"`
}

// OpenCheckpoint opens (creating if absent) the checkpoint file at path
// for the relation. Existing records are loaded for resume; a trailing
// partial line — the signature of a crash mid-write — is ignored.
func OpenCheckpoint(path string, rel *relation.Relation) (*Checkpoint, error) {
	c := &Checkpoint{path: path, rel: rel, done: map[string]bool{}}
	keep := int64(-1)
	if data, err := os.ReadFile(path); err == nil {
		// A file not ending in '\n' carries a torn record from a crash
		// mid-write. It must not only be skipped on load but also cut
		// off on disk: appending after the torn bytes would glue the
		// next record onto them, corrupting the file for good.
		if n := len(data); n > 0 && data[n-1] != '\n' {
			keep = int64(bytes.LastIndexByte(data, '\n') + 1)
			data = data[:keep]
		}
		if err := c.load(data); err != nil {
			return nil, err
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	if keep >= 0 {
		if err := os.Truncate(path, keep); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	c.f = f
	c.w = bufio.NewWriter(f)
	return c, nil
}

// load parses existing checkpoint lines.
func (c *Checkpoint) load(data []byte) error {
	start := 0
	for i := 0; i <= len(data); i++ {
		if i < len(data) && data[i] != '\n' {
			continue
		}
		line := data[start:i]
		start = i + 1
		if len(line) == 0 {
			continue
		}
		if i == len(data) {
			// No trailing newline: the final record was cut mid-write by
			// a crash; drop it (its problem simply re-runs).
			break
		}
		var rec checkpointRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("checkpoint %s: corrupt record: %w", c.path, err)
		}
		if rec.Meta != nil && c.meta == nil {
			c.meta = rec.Meta
			continue
		}
		if rec.Key == "" || c.done[rec.Key] {
			continue
		}
		sp, err := rec.Speech.Restore(c.rel)
		if err != nil {
			return fmt.Errorf("checkpoint %s: corrupt record: %w", c.path, err)
		}
		c.done[rec.Key] = true
		c.resumed = append(c.resumed, sp)
	}
	return nil
}

// bind stamps the checkpoint with the identity of the run using it. A
// fresh checkpoint records the meta as its first line; an existing one
// must carry the same meta, otherwise resuming would mix speeches from
// different datasets, solvers, or query shapes into one store.
func (c *Checkpoint) bind(meta CheckpointMeta) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.meta != nil {
		if *c.meta != meta {
			return fmt.Errorf("checkpoint %s was written by a different run (%+v); this run is %+v — remove the file or rerun with the original flags",
				c.path, *c.meta, meta)
		}
		return nil
	}
	line, err := json.Marshal(checkpointRecord{Meta: &meta})
	if err != nil {
		return err
	}
	if _, err := c.w.Write(append(line, '\n')); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	c.meta = &meta
	return nil
}

// Done reports whether the problem with this query key already completed
// in a previous run.
func (c *Checkpoint) Done(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done[key]
}

// Len returns the number of completed problems on record.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// Resumed returns the speeches recovered from previous runs, in file
// order. The pipeline seeds its store sink with them before solving.
func (c *Checkpoint) Resumed() []*engine.StoredSpeech {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*engine.StoredSpeech(nil), c.resumed...)
}

// Record appends one completed problem and flushes it to the OS, so a
// subsequent crash loses at most the record being written.
func (c *Checkpoint) Record(key string, sp *engine.StoredSpeech) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done[key] {
		return nil
	}
	rec := checkpointRecord{Key: key, Speech: sp.Persist(c.rel)}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if _, err := c.w.Write(append(line, '\n')); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	c.done[key] = true
	return nil
}

// Close releases the underlying file. Recorded state stays on disk for a
// later resume.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.w.Flush()
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	c.f = nil
	return err
}

// Remove closes the checkpoint and deletes its file — the natural end of
// a batch that completed, after which there is nothing to resume.
func (c *Checkpoint) Remove() error {
	if err := c.Close(); err != nil {
		os.Remove(c.path)
		return err
	}
	return os.Remove(c.path)
}
