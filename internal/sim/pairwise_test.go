package sim

import (
	"fmt"
	"testing"

	"sos/internal/mobility"
)

// pairwiseContacts is the reference O(N²) sweep the grid index replaced.
// It applies the identical range predicate, so the two must find exactly
// the same contact set — the equivalence tests in grid_test.go hold the
// index to that.
func pairwiseContacts(positions []mobility.Point, active []bool, rangeM float64, fn func(i, j int32)) {
	for i := 0; i < len(positions); i++ {
		if active != nil && !active[i] {
			continue
		}
		for j := i + 1; j < len(positions); j++ {
			if active != nil && !active[j] {
				continue
			}
			if inContact(positions[i], positions[j], rangeM) {
				fn(int32(i), int32(j))
			}
		}
	}
}

// BenchmarkPairwiseContacts is the honest baseline for the grid sweep
// in the root BenchmarkSimContacts: the same fleets, every active pair
// distance-tested.
func BenchmarkPairwiseContacts(b *testing.B) {
	const samples = 32
	for _, nodes := range []int{100, 1_000, 5_000} {
		fleet := ContactBenchFleet(nodes, samples, 1)
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			// Count the active pairs per sample up front so the metric
			// matches the work actually done (inactive nodes are skipped
			// before the test).
			sampleChecks := make([]int, samples)
			for t := range sampleChecks {
				act := 0
				for _, a := range fleet.Active[t] {
					if a {
						act++
					}
				}
				sampleChecks[t] = act * (act - 1) / 2
			}
			pairs, checks := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := i % samples
				checks += sampleChecks[t]
				pairwiseContacts(fleet.Positions[t], fleet.Active[t], fleet.RangeM, func(_, _ int32) {
					pairs++
				})
			}
			b.ReportMetric(float64(pairs)/float64(b.N), "pairs/tick")
			b.ReportMetric(float64(checks)/float64(b.N), "checks/tick")
		})
	}
}
