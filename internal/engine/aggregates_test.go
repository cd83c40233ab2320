package engine

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"cicero/internal/dataset"
	"cicero/internal/relation"
)

// sameBits compares two answers field by field, float64s by their bit
// patterns, so a mean that moved by one ulp fails.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// shapeChecker runs one shape both ways and fails on any difference.
type shapeChecker struct {
	t   *testing.T
	rel *relation.Relation
	agg *Aggregates
	// checks counts the comparisons, failed those where both sides erred.
	checks, failed int
}

// same compares a cell answer with the scan's: error text, or the
// answer's fields bit for bit and its speech.
func (c *shapeChecker) same(what string, got, want any, gotErr, wantErr error, text func(any) string) {
	c.t.Helper()
	c.checks++
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		c.t.Fatalf("%s: cells error %v, scan error %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		c.failed++
		return
	}
	if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
		c.t.Fatalf("%s:\ncells %+v\nscan  %+v", what, got, want)
	}
	if g, w := text(got), text(want); g != w {
		c.t.Fatalf("%s: cells say %q, scan says %q", what, g, w)
	}
}

// constraints returns constraints on target ci over entity dimension di
// that qualify some, all and none of its values, and one on an unknown
// target.
func constraints(rel *relation.Relation, di, ci int) []Constraint {
	groups := rel.FullView().GroupBy([]int{di}, ci)
	if len(groups) == 0 {
		return nil
	}
	means := make([]float64, len(groups))
	for i, g := range groups {
		means[i] = g.Mean()
	}
	sort.Float64s(means)
	name := rel.Schema().Targets[ci]
	return []Constraint{
		{Target: name, Op: Over, Value: means[len(means)/2]},
		{Target: name, Op: AtLeast, Value: means[0]},
		{Target: name, Op: Over, Value: means[len(means)-1]},
		{Target: "no such target", Op: Under, Value: 1},
	}
}

// predLists returns predicate lists around grouped dimension g: none,
// one, two on distinct dimensions in either order, a duplicate, two
// conflicting, predicates on g itself, and a value the dictionary does
// not hold (as PredicateByName resolves it).
func predLists(rel *relation.Relation, g int) [][]relation.Predicate {
	nd := rel.NumDims()
	a, b := (g+1)%nd, (g+2)%nd
	p := func(d, i int) relation.Predicate {
		card := rel.Dim(d).Cardinality()
		return relation.Predicate{Dim: d, Code: int32(i % max(card, 1))}
	}
	unknown, err := rel.PredicateByName(rel.Schema().Dimensions[a], "no such value")
	if err != nil {
		panic(err)
	}
	return [][]relation.Predicate{
		nil,
		{p(a, 0)},
		{p(a, 1)},
		{p(a, 0), p(b, 1)},
		{p(b, 1), p(a, 0)},
		{p(a, 2), p(a, 2)},
		{p(a, 0), p(a, 1)},
		{p(g, 0)},
		{p(g, 1), p(a, 0)},
		{p(g, 0), p(g, 1)},
		{unknown},
	}
}

// checkGrouped runs the grouped shapes over every target with g as the
// grouped (or entity) dimension.
func (c *shapeChecker) checkGrouped(g int, lists [][]relation.Predicate, periods [][]string) {
	c.t.Helper()
	rel, agg := c.rel, c.agg
	dim := rel.Schema().Dimensions[g]
	for ti, target := range rel.Schema().Targets {
		cons := constraints(rel, g, (ti+1)%rel.NumTargets())
		for li, preds := range lists {
			for _, minRows := range []int{1, 10} {
				at := fmt.Sprintf("%s target %s dim %s preds %v minRows %d", rel.Name(), target, dim, preds, minRows)
				for _, kind := range []ExtremumKind{Max, Min} {
					speak := func(v any) string {
						switch a := v.(type) {
						case ExtremumAnswer:
							return a.Text(kind, target)
						default:
							return v.(TopKAnswer).Text(kind, target)
						}
					}
					got, gotErr := AnswerExtremum(agg, target, dim, preds, kind, minRows)
					want, wantErr := referenceExtremum(rel, target, dim, preds, kind, minRows)
					c.same("extremum "+at, got, want, gotErr, wantErr, speak)
					// k = 1 and 3 unconstrained, and k = 3 under each constraint.
					for ci := -2; ci < len(cons); ci++ {
						k, con := 3, (*Constraint)(nil)
						switch {
						case ci == -2:
							k = 1
						case ci >= 0:
							con = &cons[ci]
						}
						got, gotErr := AnswerTopK(agg, target, dim, preds, kind, k, minRows, con)
						want, wantErr := referenceTopK(rel, target, dim, preds, kind, k, minRows, con)
						c.same(fmt.Sprintf("topk k %d constraint %v %s", k, con, at), got, want, gotErr, wantErr, speak)
					}
				}
				for _, con := range cons {
					got, gotErr := AnswerConstrained(agg, target, dim, preds, con, minRows)
					want, wantErr := referenceConstrained(rel, target, dim, preds, con, minRows)
					c.same(fmt.Sprintf("constrained %v %s", con, at), got, want, gotErr, wantErr,
						func(v any) string { return v.(ConstrainedAnswer).Text(con) })
				}
				for _, window := range periods {
					got, gotErr := AnswerTrend(agg, target, dim, window, preds, minRows)
					want, wantErr := referenceTrend(rel, target, dim, window, preds, minRows)
					c.same(fmt.Sprintf("trend %v %s", window, at), got, want, gotErr, wantErr,
						func(v any) string { return v.(TrendAnswer).Text() })
				}
			}
			// Comparison has no grouped dimension or minimum: pair each
			// list with itself and with its neighbour.
			for _, other := range [][]relation.Predicate{preds, lists[(li+1)%len(lists)]} {
				got, gotErr := AnswerComparison(agg, target, preds, other)
				want, wantErr := referenceComparison(rel, target, preds, other)
				c.same(fmt.Sprintf("comparison %s target %s: %v vs %v", rel.Name(), target, preds, other), got, want, gotErr, wantErr,
					func(v any) string { return v.(ComparisonAnswer).Text(target, "A", "B") })
			}
		}
	}
}

// calendar returns the values of housing's month dimension in calendar
// order.
func calendar(rel *relation.Relation) []string {
	vals := rel.DimByName("month").Values()
	sort.Slice(vals, func(i, j int) bool {
		a, _ := time.Parse("January 2006", vals[i])
		b, _ := time.Parse("January 2006", vals[j])
		return a.Before(b)
	})
	return vals
}

// windows returns the period lists a trend over dimension g is asked
// for: every window of housing's months in calendar order, and for any
// other dimension its dictionary whole, its first two values and a
// single value.
func windows(rel *relation.Relation, g int) [][]string {
	if rel.Name() != "housing" || rel.Schema().Dimensions[g] != "month" {
		vals := rel.Dim(g).Values()
		return [][]string{vals, vals[:min(2, len(vals))], vals[:1]}
	}
	vals := calendar(rel)
	var out [][]string
	for from := range vals {
		for to := from + 1; to < len(vals); to++ {
			out = append(out, vals[from:to+1])
		}
	}
	return out
}

// randomRelation builds n rows over four dimensions of up to 3, 7, 40
// and 200 values and two targets, one of them integral so means tie.
func randomRelation(rng *rand.Rand, n int) *relation.Relation {
	b := relation.NewBuilder("random", relation.Schema{Dimensions: []string{"a", "b", "c", "d"}, Targets: []string{"v", "w"}})
	for i := 0; i < n; i++ {
		b.MustAddRow([]string{
			strconv.Itoa(rng.Intn(3)), strconv.Itoa(rng.Intn(7)),
			strconv.Itoa(rng.Intn(40)), strconv.Itoa(rng.Intn(200)),
		}, []float64{rng.NormFloat64() * 1e3, float64(rng.Intn(5))})
	}
	return b.Freeze()
}

// TestCellsMatchScan is the cells' oracle: on every built-in dataset and
// on random relations, each run-time shape answered from Aggregates
// equals the relation scan it replaced — every field, every float's
// bits and the speech — and the two fail with the same error.
func TestCellsMatchScan(t *testing.T) {
	var rels []*relation.Relation
	for _, name := range dataset.Names() {
		rels = append(rels, dataset.ByNameRows(name, 400, 1))
	}
	rng := rand.New(rand.NewSource(28))
	for _, n := range []int{0, 1, 300} {
		rels = append(rels, randomRelation(rng, n))
	}
	checks, failed := 0, 0
	for _, rel := range rels {
		c := &shapeChecker{t: t, rel: rel, agg: NewAggregates(rel)}
		for g := 0; g < rel.NumDims(); g++ {
			periods := [][]string{{"no such period", "nor this one"}}
			if rel.NumRows() > 0 {
				periods = windows(rel, g)
			}
			c.checkGrouped(g, predLists(rel, g), periods)
		}
		checks, failed = checks+c.checks, failed+c.failed
	}
	t.Logf("%d answers compared, %d of them errors", checks, failed)
}

// TestCellsMatchScanOverflowingKeySpace asks the shapes about a relation
// whose six dimensions of 2,048 values each make a key space of 2^66:
// the cells are found by comparing codes, never keys.
func TestCellsMatchScanOverflowingKeySpace(t *testing.T) {
	const n, nd = 2048, 6
	b := relation.NewBuilder("wide", relation.Schema{Dimensions: []string{"a", "b", "c", "d", "e", "f"}, Targets: []string{"v"}})
	rng := rand.New(rand.NewSource(3))
	perms := make([][]int, nd)
	for d := range perms {
		perms[d] = rng.Perm(n)
	}
	for i := 0; i < n; i++ {
		vals := make([]string, nd)
		for d := range vals {
			vals[d] = strconv.Itoa(perms[d][i])
		}
		b.MustAddRow(vals, []float64{rng.NormFloat64()})
	}
	rel := b.Freeze()
	var ks relation.KeySpace
	ks.Reset(rel, []int{0, 1, 2, 3, 4, 5})
	if _, ok := ks.Dense(n); ok {
		t.Fatal("a 2^66 key space reported dense")
	}
	c := &shapeChecker{t: t, rel: rel, agg: NewAggregates(rel)}
	const row = 17
	// The row's codes on every dimension but g, on all six, and on two.
	for g := 0; g < nd; g++ {
		var preds []relation.Predicate
		for d := 0; d < nd; d++ {
			if d != g {
				preds = append(preds, relation.Predicate{Dim: d, Code: rel.Dim(d).CodeAt(row)})
			}
		}
		own := relation.Predicate{Dim: g, Code: rel.Dim(g).CodeAt(row)}
		lists := [][]relation.Predicate{preds, append(preds[:len(preds):len(preds)], own), preds[:2]}
		c.checkGrouped(g, lists, [][]string{rel.Dim(g).Values()[:3]})
	}
	if sets, _ := c.agg.CellStats(); sets == 0 {
		t.Fatal("no cell set was built")
	}
}

// TestCellSetBuiltOnce: concurrent first askers of one fresh set share
// one pass, and CellStats counts exactly the distinct lists asked for.
func TestCellSetBuiltOnce(t *testing.T) {
	rel := dataset.Housing(2000, 1)
	agg := NewAggregates(rel)
	if sets, bytes := agg.CellStats(); sets != 0 || bytes != 0 {
		t.Fatalf("fresh aggregates report %d sets, %d bytes", sets, bytes)
	}
	twoBed, _ := rel.PredicateByName("bedrooms", "Two bedroom")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := AnswerExtremum(agg, "rent", "city", []relation.Predicate{twoBed}, Max, 1); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if sets, bytes := agg.CellStats(); sets != 1 || bytes == 0 {
		t.Fatalf("32 askers of one list built %d sets (%d bytes), want 1", sets, bytes)
	}
	// [city, bedrooms] again in another shape, then [city] and
	// [bedrooms]: two new lists.
	if _, err := AnswerTopK(agg, "rent", "city", []relation.Predicate{twoBed}, Min, 3, 1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := AnswerExtremum(agg, "rent", "city", nil, Max, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := AnswerComparison(agg, "rent", []relation.Predicate{twoBed}, nil); err != nil {
		t.Fatal(err)
	}
	// The comparison asked for [bedrooms] and for the empty list.
	if sets, _ := agg.CellStats(); sets != 4 {
		t.Fatalf("%d sets after four distinct lists", sets)
	}
	// Predicate order does not make a new list: both orders read
	// [city, bedrooms, month].
	jan, _ := rel.PredicateByName("month", "January 2024")
	for _, preds := range [][]relation.Predicate{{twoBed, jan}, {jan, twoBed}} {
		if _, err := AnswerExtremum(agg, "rent", "city", preds, Max, 1); err != nil {
			t.Fatal(err)
		}
	}
	if sets, _ := agg.CellStats(); sets != 5 {
		t.Fatalf("%d sets after one more list asked in two orders", sets)
	}
}

// scanShapes are the five run-time shapes on housing as dialog traffic
// asks them: two-bedroom rents by city, one city's rent by month, and
// two cities compared.
func scanShapes(tb testing.TB, rel *relation.Relation) map[string]func(*Aggregates) error {
	tb.Helper()
	pred := func(col, val string) []relation.Predicate {
		p, err := rel.PredicateByName(col, val)
		if err != nil {
			tb.Fatal(err)
		}
		return []relation.Predicate{p}
	}
	twoBed, austin, houston := pred("bedrooms", "Two bedroom"), pred("city", "Austin"), pred("city", "Houston")
	months := calendar(rel)
	cons := Constraint{Target: "population", Op: Over, Value: 500_000}
	return map[string]func(*Aggregates) error{
		"extremum": func(agg *Aggregates) error {
			_, err := AnswerExtremum(agg, "rent", "city", twoBed, Max, 10)
			return err
		},
		"topk": func(agg *Aggregates) error {
			_, err := AnswerTopK(agg, "rent", "city", twoBed, Max, 3, 10, nil)
			return err
		},
		"trend": func(agg *Aggregates) error {
			_, err := AnswerTrend(agg, "rent", "month", months, austin, 10)
			return err
		},
		"constrained": func(agg *Aggregates) error {
			_, err := AnswerConstrained(agg, "rent", "city", twoBed, cons, 10)
			return err
		},
		"comparison": func(agg *Aggregates) error {
			_, err := AnswerComparison(agg, "rent", austin, houston)
			return err
		},
	}
}

// BenchmarkScanShapes times each run-time shape on 60,000 housing rows:
// cold pays for building the cell sets it reads (what the first request
// of a generation costs), warm is every later request.
func BenchmarkScanShapes(b *testing.B) {
	rel := dataset.Housing(60000, 1)
	shapes := scanShapes(b, rel)
	for _, name := range []string{"extremum", "topk", "trend", "constrained", "comparison"} {
		shape := shapes[name]
		b.Run(name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := shape(NewAggregates(rel)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/warm", func(b *testing.B) {
			agg := NewAggregates(rel)
			if err := shape(agg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := shape(agg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestScanShapeAllocCeiling bounds what a warm extremum answer
// allocates: 4 objects when the cells landed (the entry list and the
// stable sort's bookkeeping), with headroom for the runtime's own
// variation, and nothing per row or per cell. The scan it replaced
// allocated 12 here, its groups among them.
func TestScanShapeAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	rel := dataset.Housing(6000, 1)
	extremum := scanShapes(t, rel)["extremum"]
	agg := NewAggregates(rel)
	if err := extremum(agg); err != nil {
		t.Fatal(err)
	}
	const ceiling = 6
	avg := testing.AllocsPerRun(200, func() { extremum(agg) })
	t.Logf("warm extremum: %.0f objects per answer (ceiling %d)", avg, ceiling)
	if avg > ceiling {
		t.Errorf("a warm extremum answer allocates %.0f objects, ceiling %d", avg, ceiling)
	}
}
