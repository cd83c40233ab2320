// Package relation implements the in-memory columnar relational engine
// that serves as the storage and query substrate for speech summarization.
//
// The paper executes its algorithms as a series of SQL queries against
// Postgres. This package provides the equivalent logical operators over an
// in-memory, dictionary-encoded columnar representation: equality-predicate
// selection (σ), grouping and aggregation (Γ), projection (Π), and the
// fact-scope join (⋊⋉ with condition M: fact value is NULL or equals the
// row value in every dimension column).
//
// A Relation is immutable after Freeze; concurrent reads are safe.
//
// Grouping is one keyed kernel (groupby.go) behind GroupBy,
// GroupByTargets and Partition; one pass sums any number of target
// columns. It numbers value combinations as mixed-radix keys
// (KeySpace) and indexes flat count and sum arrays by key when the key
// space is small against the view, and sorts rows by their code tuples
// when it is not or when the key space overflows an int64; which of the
// two runs depends only on those two sizes and never shows in a result.
// The guarantees every caller may rely on, and the tests pin bit for
// bit: views hold their rows in ascending order; groups and parts come
// in ascending key order (codes compared from the last grouped column
// to the first); a group's sum of each target adds its rows' values in
// ascending row order starting from zero; part i of Partition holds the
// rows Select of the i-th group's combination returns, in that order.
//
// Every stage of the generate → evaluate → solve → serve flow stands
// on this substrate: the generate stage enumerates queries over its
// dimension dictionaries, evaluate and solve aggregate its views, and
// the serve stage's run-time shapes read group-by cells computed from
// it once per generation (engine.Aggregates).
package relation

import "fmt"

// Schema describes the columns of a relation: dimension columns carry
// categorical values used in predicates and fact scopes, target columns
// carry the numerical values being summarized.
type Schema struct {
	Dimensions []string
	Targets    []string
}

// DimIndex returns the index of the named dimension column, or -1.
func (s *Schema) DimIndex(name string) int {
	for i, d := range s.Dimensions {
		if d == name {
			return i
		}
	}
	return -1
}

// TargetIndex returns the index of the named target column, or -1.
func (s *Schema) TargetIndex(name string) int {
	for i, t := range s.Targets {
		if t == name {
			return i
		}
	}
	return -1
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() Schema {
	return Schema{
		Dimensions: append([]string(nil), s.Dimensions...),
		Targets:    append([]string(nil), s.Targets...),
	}
}

// DimColumn is a dictionary-encoded categorical column. Row values are
// stored as int32 codes into the dictionary, keeping fact-scope matching a
// tight integer comparison loop.
type DimColumn struct {
	Name string
	dict []string
	code map[string]int32
	data []int32
}

// Cardinality returns the number of distinct values in the column.
func (c *DimColumn) Cardinality() int { return len(c.dict) }

// Value returns the string value for a dictionary code.
func (c *DimColumn) Value(code int32) string {
	if code < 0 || int(code) >= len(c.dict) {
		return ""
	}
	return c.dict[code]
}

// Code returns the dictionary code for a string value and whether the
// value appears in the column.
func (c *DimColumn) Code(value string) (int32, bool) {
	code, ok := c.code[value]
	return code, ok
}

// Values returns the dictionary in code order. The returned slice is a
// copy and may be modified by the caller.
func (c *DimColumn) Values() []string {
	return append([]string(nil), c.dict...)
}

// CodeAt returns the dictionary code of the given row.
func (c *DimColumn) CodeAt(row int) int32 { return c.data[row] }

// TargetColumn is a numerical column holding the values to summarize.
type TargetColumn struct {
	Name string
	data []float64
}

// At returns the value of the given row.
func (c *TargetColumn) At(row int) float64 { return c.data[row] }

// Data returns the underlying value slice. Callers must not modify it.
func (c *TargetColumn) Data() []float64 { return c.data }

// Relation is a set of rows with dimension and target columns
// (Definition 1 of the paper). It is immutable once built.
type Relation struct {
	name    string
	schema  Schema
	dims    []*DimColumn
	targets []*TargetColumn
	rows    int
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation schema.
func (r *Relation) Schema() *Schema { return &r.schema }

// NumRows returns the number of rows.
func (r *Relation) NumRows() int { return r.rows }

// Dim returns the dimension column at index i.
func (r *Relation) Dim(i int) *DimColumn { return r.dims[i] }

// DimByName returns the named dimension column, or nil.
func (r *Relation) DimByName(name string) *DimColumn {
	if i := r.schema.DimIndex(name); i >= 0 {
		return r.dims[i]
	}
	return nil
}

// NumDims returns the number of dimension columns.
func (r *Relation) NumDims() int { return len(r.dims) }

// Target returns the target column at index i.
func (r *Relation) Target(i int) *TargetColumn { return r.targets[i] }

// NumTargets returns the number of target columns.
func (r *Relation) NumTargets() int { return len(r.targets) }

// SizeBytes estimates the in-memory footprint of the relation, mirroring
// the data-set size column of Table I.
func (r *Relation) SizeBytes() int {
	size := 0
	for _, d := range r.dims {
		size += 4 * len(d.data)
		for _, v := range d.dict {
			size += len(v)
		}
	}
	for _, t := range r.targets {
		size += 8 * len(t.data)
	}
	return size
}

// Builder accumulates rows and produces an immutable Relation.
type Builder struct {
	name    string
	schema  Schema
	dims    []*DimColumn
	targets []*TargetColumn
	rows    int
}

// NewBuilder creates a builder for a relation with the given schema.
func NewBuilder(name string, schema Schema) *Builder {
	b := &Builder{name: name, schema: schema.Clone()}
	for _, d := range schema.Dimensions {
		b.dims = append(b.dims, &DimColumn{Name: d, code: make(map[string]int32)})
	}
	for _, t := range schema.Targets {
		b.targets = append(b.targets, &TargetColumn{Name: t})
	}
	return b
}

// AddRow appends a row. dims must have one string per dimension column and
// targets one float per target column, in schema order.
func (b *Builder) AddRow(dims []string, targets []float64) error {
	if len(dims) != len(b.dims) {
		return fmt.Errorf("relation %s: row has %d dimension values, schema has %d", b.name, len(dims), len(b.dims))
	}
	if len(targets) != len(b.targets) {
		return fmt.Errorf("relation %s: row has %d target values, schema has %d", b.name, len(targets), len(b.targets))
	}
	for i, v := range dims {
		col := b.dims[i]
		code, ok := col.code[v]
		if !ok {
			code = int32(len(col.dict))
			col.dict = append(col.dict, v)
			col.code[v] = code
		}
		col.data = append(col.data, code)
	}
	for i, v := range targets {
		b.targets[i].data = append(b.targets[i].data, v)
	}
	b.rows++
	return nil
}

// MustAddRow is AddRow that panics on schema mismatch; convenient for
// generators whose row shape is statically correct.
func (b *Builder) MustAddRow(dims []string, targets []float64) {
	if err := b.AddRow(dims, targets); err != nil {
		panic(err)
	}
}

// Freeze finishes building and returns the immutable relation. The builder
// must not be used afterwards.
func (b *Builder) Freeze() *Relation {
	r := &Relation{
		name:    b.name,
		schema:  b.schema,
		dims:    b.dims,
		targets: b.targets,
		rows:    b.rows,
	}
	b.dims, b.targets = nil, nil
	return r
}

// Predicate is an equality predicate on a dimension column, identified by
// column index and dictionary code.
type Predicate struct {
	Dim  int
	Code int32
}

// PredicateByName resolves a (column name, value) pair against the
// relation's dictionaries. It reports an error for unknown columns; an
// unknown value yields a predicate on the first unassigned code, which
// matches no rows.
func (r *Relation) PredicateByName(column, value string) (Predicate, error) {
	di := r.schema.DimIndex(column)
	if di < 0 {
		return Predicate{}, fmt.Errorf("relation %s: no dimension column %q", r.name, column)
	}
	code, ok := r.dims[di].Code(value)
	if !ok {
		// A predicate on a value absent from the data selects no rows.
		return Predicate{Dim: di, Code: int32(len(r.dims[di].dict))}, nil
	}
	return Predicate{Dim: di, Code: code}, nil
}

// View is a subset of relation rows (the data subset a query refers to),
// held in ascending row order: FullView, Select and Partition all leave
// rows that way, and GroupBy's sums and Partition's parts depend on it.
type View struct {
	Rel  *Relation
	rows []int32
	full bool
}

// FullView returns a view over all rows of the relation.
func (r *Relation) FullView() *View {
	return &View{Rel: r, full: true}
}

// NumRows returns the number of rows in the view.
func (v *View) NumRows() int {
	if v.full {
		return v.Rel.rows
	}
	return len(v.rows)
}

// Row returns the relation row index of the i-th view row.
func (v *View) Row(i int) int32 {
	if v.full {
		return int32(i)
	}
	return v.rows[i]
}

// Select returns the sub-view of rows satisfying the conjunction of
// equality predicates (the relational σ operator).
func (v *View) Select(preds []Predicate) *View {
	if len(preds) == 0 {
		return v
	}
	out := &View{Rel: v.Rel}
	n := v.NumRows()
	for i := 0; i < n; i++ {
		row := v.Row(i)
		match := true
		for _, p := range preds {
			if v.Rel.dims[p.Dim].data[row] != p.Code {
				match = false
				break
			}
		}
		if match {
			out.rows = append(out.rows, row)
		}
	}
	return out
}

// TargetStats summarizes a target column over the view.
type TargetStats struct {
	Count int
	Sum   float64
	Min   float64
	Max   float64
}

// Mean returns the average, or 0 for an empty view.
func (s TargetStats) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Stats computes summary statistics for a target column over the view.
func (v *View) Stats(target int) TargetStats {
	data := v.Rel.targets[target].data
	n := v.NumRows()
	if n == 0 {
		return TargetStats{}
	}
	st := TargetStats{Count: n, Min: data[v.Row(0)], Max: data[v.Row(0)]}
	for i := 0; i < n; i++ {
		val := data[v.Row(i)]
		st.Sum += val
		if val < st.Min {
			st.Min = val
		}
		if val > st.Max {
			st.Max = val
		}
	}
	return st
}

// GroupKey identifies a group in a group-by over dimension columns: the
// dictionary codes of the grouped columns, in the order they were given.
type GroupKey struct {
	Codes []int32
}

// Group is one result group of a group-by aggregation.
type Group struct {
	Key   GroupKey
	Count int
	Sum   float64
}

// Mean returns the group average, or 0 for an empty group.
func (g Group) Mean() float64 {
	if g.Count == 0 {
		return 0
	}
	return g.Sum / float64(g.Count)
}
