package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
)

// FromCSV reads a relation from CSV data with a header row. Columns listed
// in schema.Dimensions are read as strings, columns in schema.Targets are
// parsed as floats; other columns are ignored. Rows with unparsable target
// values are skipped and counted in the returned skip count.
func FromCSV(name string, r io.Reader, schema Schema) (*Relation, int, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, 0, fmt.Errorf("read CSV header: %w", err)
	}
	colIdx := make(map[string]int, len(header))
	for i, h := range header {
		colIdx[h] = i
	}
	dimIdx := make([]int, len(schema.Dimensions))
	for i, d := range schema.Dimensions {
		j, ok := colIdx[d]
		if !ok {
			return nil, 0, fmt.Errorf("CSV is missing dimension column %q", d)
		}
		dimIdx[i] = j
	}
	tgtIdx := make([]int, len(schema.Targets))
	for i, t := range schema.Targets {
		j, ok := colIdx[t]
		if !ok {
			return nil, 0, fmt.Errorf("CSV is missing target column %q", t)
		}
		tgtIdx[i] = j
	}

	b := NewBuilder(name, schema)
	dims := make([]string, len(dimIdx))
	targets := make([]float64, len(tgtIdx))
	skipped := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("read CSV row: %w", err)
		}
		ok := true
		for i, j := range tgtIdx {
			v, err := strconv.ParseFloat(rec[j], 64)
			if err != nil {
				ok = false
				break
			}
			targets[i] = v
		}
		if !ok {
			skipped++
			continue
		}
		for i, j := range dimIdx {
			dims[i] = rec[j]
		}
		if err := b.AddRow(dims, targets); err != nil {
			return nil, 0, err
		}
	}
	return b.Freeze(), skipped, nil
}

// FromCSVFile reads a relation from a CSV file on disk.
func FromCSVFile(name, path string, schema Schema) (*Relation, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return FromCSV(name, f, schema)
}
