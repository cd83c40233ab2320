package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"

	"cicero/internal/fact"
	"cicero/internal/relation"
)

// The name-resolved form of a speech: fact scopes are serialized with
// column and value names, not dictionary codes, so a speech survives
// re-ingestion of the data with different code assignment. It backs the
// pipeline's checkpoint files (one PersistedSpeech per completed
// problem), the upserts of a delta patch, and Save's JSON dump of a whole
// store — which is for reading by eye or with jq and has no loader: the
// artifact a daemon serves from is the binary snapshot of
// internal/snapshot.

// PersistedFact is the serialized form of one fact.
type PersistedFact struct {
	Columns []string `json:"columns,omitempty"`
	Values  []string `json:"values,omitempty"`
	Value   float64  `json:"value"`
}

// PersistedSpeech is the serialized form of one stored speech.
type PersistedSpeech struct {
	Query      Query           `json:"query"`
	Facts      []PersistedFact `json:"facts"`
	Utility    float64         `json:"utility"`
	PriorError float64         `json:"prior_error"`
	Text       string          `json:"text"`
}

// persistedStore is the layout of Save's JSON dump.
type persistedStore struct {
	Version  int               `json:"version"`
	Dataset  string            `json:"dataset"`
	Speeches []PersistedSpeech `json:"speeches"`
}

// storeVersion is bumped on incompatible format changes.
const storeVersion = 1

// Persist converts the speech into its serialized form, resolving scope
// codes to column and value names through the relation's dictionaries.
func (sp *StoredSpeech) Persist(rel *relation.Relation) PersistedSpeech {
	ps := PersistedSpeech{
		Query:      sp.Query.Canonical(),
		Utility:    sp.Utility,
		PriorError: sp.PriorError,
		Text:       sp.Text,
	}
	for _, f := range sp.Facts {
		pf := PersistedFact{Value: f.Value}
		for i, d := range f.Scope.Dims {
			pf.Columns = append(pf.Columns, rel.Schema().Dimensions[d])
			pf.Values = append(pf.Values, rel.Dim(d).Value(f.Scope.Codes[i]))
		}
		ps.Facts = append(ps.Facts, pf)
	}
	return ps
}

// Restore converts the serialized speech back, re-resolving scope names
// against the relation's current dictionaries. Facts whose columns or
// values no longer appear in the data are dropped from the speech (the
// speech text is kept verbatim). A fact whose values do not pair up
// with its columns, or that names a column twice, is malformed input
// and fails the restore.
func (ps PersistedSpeech) Restore(rel *relation.Relation) (*StoredSpeech, error) {
	sp := &StoredSpeech{
		Query:      ps.Query,
		Utility:    ps.Utility,
		PriorError: ps.PriorError,
		Text:       ps.Text,
	}
	for _, pf := range ps.Facts {
		if len(pf.Values) != len(pf.Columns) {
			return nil, fmt.Errorf("engine: persisted fact has %d columns and %d values", len(pf.Columns), len(pf.Values))
		}
		var dims []int
		var codes []int32
		for i, col := range pf.Columns {
			if slices.Contains(pf.Columns[:i], col) {
				return nil, fmt.Errorf("engine: persisted fact names column %q twice", col)
			}
			if d := rel.Schema().DimIndex(col); d >= 0 {
				if code, found := rel.Dim(d).Code(pf.Values[i]); found {
					dims = append(dims, d)
					codes = append(codes, code)
				}
			}
		}
		if len(dims) < len(pf.Columns) {
			continue // a column or value no longer in the data
		}
		sp.Facts = append(sp.Facts, fact.Fact{
			Scope: fact.NewScope(dims, codes),
			Value: pf.Value,
		})
	}
	return sp, nil
}

// Save dumps the store as JSON for inspection. rel resolves scope codes
// to names.
func (s *Store) Save(w io.Writer, rel *relation.Relation) error {
	out := persistedStore{Version: storeVersion, Dataset: rel.Name()}
	for _, sp := range s.Speeches() {
		out.Speeches = append(out.Speeches, sp.Persist(rel))
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// SaveFile dumps the store as JSON to a file path; see Save.
func (s *Store) SaveFile(path string, rel *relation.Relation) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.Save(f, rel)
}
