// Package engine implements the end-to-end voice querying system of
// Section III (Figure 2): a Configuration describes the queries to
// support, the Problem Generator enumerates one speech summarization
// problem per query, the Speech Summarizer solves them in a
// pre-processing batch, and the run-time store maps incoming queries to
// the most specific pre-generated speech.
//
// It bookends the generate → evaluate → solve → serve flow: EachProblem
// is the generate stage (streaming one problem per supported query),
// Template.Render turns solved fact sets into speech text, and the
// immutable index-backed Store is the serve stage's lookup structure —
// answering by exact match or most-specific generalization in
// near-constant time, persisted as the binary snapshot artifact of
// internal/snapshot.
package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"cicero/internal/relation"
)

// PriorMode selects the prior P(r) used during summarization.
type PriorMode string

const (
	// PriorGlobalMean uses the average of the target column over the full
	// relation — what a user with no subset knowledge expects. This is
	// the default and matches the paper's deployment behaviour, where
	// answers lead with the general value before subset-specific facts.
	PriorGlobalMean PriorMode = "global-mean"
	// PriorSubsetMean uses the average within the queried data subset.
	PriorSubsetMean PriorMode = "subset-mean"
	// PriorZero uses a zero prior (the running example of the paper).
	PriorZero PriorMode = "zero"
)

// Config is the pre-processing configuration file of Figure 2: it
// references a table and specifies the queries to generate speeches for.
type Config struct {
	// Dataset names the relation being summarized (informational).
	Dataset string `json:"dataset"`
	// Targets lists the target columns; one query family is generated
	// per target. Empty means all target columns of the relation.
	Targets []string `json:"targets,omitempty"`
	// Dimensions lists the columns on which queries may place equality
	// predicates. Empty means all dimension columns.
	Dimensions []string `json:"dimensions,omitempty"`
	// FactDimensions lists the columns facts may restrict beyond the
	// query predicates. Empty means all dimension columns (not just the
	// query dimensions), so narrowing Dimensions to a single column still
	// yields informative facts about the other columns.
	FactDimensions []string `json:"fact_dimensions,omitempty"`
	// MaxQueryLen is the maximal number of equality predicates per query
	// (the paper's deployments use 2).
	MaxQueryLen int `json:"max_query_len"`
	// MaxFactDims is the maximal number of additional dimensions a fact
	// may restrict beyond the query predicates (the paper's default: 2).
	MaxFactDims int `json:"max_fact_dims"`
	// MaxFacts is the speech length m (the paper uses 3: "user retention
	// decreases sharply after three facts").
	MaxFacts int `json:"max_facts"`
	// Prior selects the prior expectation model.
	Prior PriorMode `json:"prior,omitempty"`
	// MinSubsetRows skips queries whose data subset is smaller; tiny
	// subsets need no summary (the full result fits in one sentence).
	MinSubsetRows int `json:"min_subset_rows,omitempty"`
}

// DefaultConfig returns the paper's default configuration for a relation:
// all targets, all dimensions, queries up to two predicates, facts with
// up to two extra dimensions, three facts per speech.
func DefaultConfig(rel *relation.Relation) Config {
	return Config{
		Dataset:     rel.Name(),
		MaxQueryLen: 2,
		MaxFactDims: 2,
		MaxFacts:    3,
		Prior:       PriorGlobalMean,
	}
}

// Validate resolves the configuration against a relation and applies
// defaults, returning an error for unknown columns or nonsensical
// bounds.
func (c *Config) Validate(rel *relation.Relation) error {
	if c.MaxQueryLen < 0 {
		return fmt.Errorf("config: max_query_len must be non-negative, got %d", c.MaxQueryLen)
	}
	if c.MaxFacts <= 0 {
		c.MaxFacts = 3
	}
	if c.MaxFactDims < 0 {
		return fmt.Errorf("config: max_fact_dims must be non-negative, got %d", c.MaxFactDims)
	}
	if c.Prior == "" {
		c.Prior = PriorGlobalMean
	}
	switch c.Prior {
	case PriorGlobalMean, PriorSubsetMean, PriorZero:
	default:
		return fmt.Errorf("config: unknown prior mode %q", c.Prior)
	}
	if len(c.Targets) == 0 {
		c.Targets = append([]string(nil), rel.Schema().Targets...)
	}
	for _, t := range c.Targets {
		if rel.Schema().TargetIndex(t) < 0 {
			return fmt.Errorf("config: relation %s has no target column %q", rel.Name(), t)
		}
	}
	if len(c.Dimensions) == 0 {
		c.Dimensions = append([]string(nil), rel.Schema().Dimensions...)
	}
	for _, d := range c.Dimensions {
		if rel.Schema().DimIndex(d) < 0 {
			return fmt.Errorf("config: relation %s has no dimension column %q", rel.Name(), d)
		}
	}
	if len(c.FactDimensions) == 0 {
		c.FactDimensions = append([]string(nil), rel.Schema().Dimensions...)
	}
	for _, d := range c.FactDimensions {
		if rel.Schema().DimIndex(d) < 0 {
			return fmt.Errorf("config: relation %s has no fact dimension column %q", rel.Name(), d)
		}
	}
	return nil
}

// LoadConfig reads a JSON configuration.
func LoadConfig(r io.Reader) (Config, error) {
	var c Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("decode config: %w", err)
	}
	return c, nil
}

// LoadConfigFile reads a JSON configuration from disk.
func LoadConfigFile(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, err
	}
	defer f.Close()
	return LoadConfig(f)
}
