package relation_test

import (
	"fmt"
	"testing"

	"cicero/internal/dataset"
	"cicero/internal/relation"
)

// flightsViews returns one flights view per query length 0, 1 and 2: the
// full relation and the subsets of one and of two equality predicates,
// the three sizes of view a pre-processing batch groups.
func flightsViews() []*relation.View {
	rel := dataset.Flights(12000, 1)
	full := rel.FullView()
	one := full.Select([]relation.Predicate{{Dim: 0, Code: 0}})
	two := one.Select([]relation.Predicate{{Dim: 1, Code: 0}})
	return []*relation.View{full, one, two}
}

func BenchmarkGroupBy(b *testing.B) {
	views := flightsViews()
	for qlen, v := range views {
		b.Run(fmt.Sprintf("querylen=%d/rows=%d", qlen, v.NumRows()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v.GroupBy([]int{2, 3}, 0)
			}
		})
	}
}

// BenchmarkGroupByTargets is BenchmarkGroupBy's pass over both flights
// targets at once, what candidate-fact generation runs per fact group.
func BenchmarkGroupByTargets(b *testing.B) {
	views := flightsViews()
	for qlen, v := range views {
		b.Run(fmt.Sprintf("querylen=%d/rows=%d", qlen, v.NumRows()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v.GroupByTargets([]int{2, 3}, []int{0, 1})
			}
		})
	}
}

func BenchmarkPartition(b *testing.B) {
	views := flightsViews()
	for qlen, v := range views {
		b.Run(fmt.Sprintf("querylen=%d/rows=%d", qlen, v.NumRows()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v.Partition([]int{2, 3})
			}
		})
	}
}
