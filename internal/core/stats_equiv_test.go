package core

// Telemetry equivalence for the hold-table build: the MineStats a
// CollectTracer gathers must satisfy the pass invariants on every
// backend and worker count, and the per-level candidate/prune/frequent
// numbers must be identical across backends — the counting strategy
// never changes which candidates exist or survive.

import (
	"fmt"
	"testing"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/timegran"
)

func TestHoldTableStatsInvariantsAcrossBackends(t *testing.T) {
	tbl := backendTestTable(t, 42)
	type run struct {
		label string
		stats *obs.MineStats
	}
	var runs []run
	for _, backend := range []apriori.Backend{apriori.BackendHashTree, apriori.BackendBitmap, apriori.BackendRoaring} {
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%v/workers=%d", backend, workers)
			collect := obs.NewCollectTracer()
			h, err := BuildHoldTableContext(bg, tbl, Config{
				Granularity:   timegran.Day,
				MinSupport:    0.05,
				MinConfidence: 0.5,
				MinFreq:       0.8,
				MaxK:          3,
				Backend:       backend,
				Workers:       workers,
				Tracer:        collect,
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			// Drive one task so the task span and rule counter appear.
			rules, err := MineValidPeriodsFromTableContext(bg, h, PeriodConfig{})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			st := collect.Stats()
			if len(st.Levels) == 0 {
				t.Fatalf("%s: no passes collected", label)
			}
			for _, l := range st.Levels {
				if l.Pruned+l.Counted != l.Generated {
					t.Errorf("%s: L%d pruned %d + counted %d != generated %d",
						label, l.Level, l.Pruned, l.Counted, l.Generated)
				}
				if l.Frequent > l.Counted {
					t.Errorf("%s: L%d frequent %d > counted %d", label, l.Level, l.Frequent, l.Counted)
				}
				if l.Level < len(h.ByK) && l.Frequent != len(h.ByK[l.Level]) {
					t.Errorf("%s: L%d stats say %d frequent, table has %d",
						label, l.Level, l.Frequent, len(h.ByK[l.Level]))
				}
			}
			if st.Backend != backend.String() {
				t.Errorf("%s: stats backend = %q", label, st.Backend)
			}
			if got := st.Counters[obs.MetricItemsetsFrequent]; got != int64(h.TotalItemsets()) {
				t.Errorf("%s: itemsets_frequent counter = %d, table has %d", label, got, h.TotalItemsets())
			}
			if got := st.Gauges[obs.MetricGranules]; got != float64(h.NGranules()) {
				t.Errorf("%s: granules gauge = %v, want %d", label, got, h.NGranules())
			}
			if got := st.Gauges[obs.MetricGranulesActive]; got != float64(h.NActive) {
				t.Errorf("%s: granules_active gauge = %v, want %d", label, got, h.NActive)
			}
			if got := st.Counters[obs.MetricRulesEmitted]; got != int64(len(rules)) {
				t.Errorf("%s: rules_emitted counter = %d, task emitted %d", label, got, len(rules))
			}
			if len(st.Tasks) < 2 {
				t.Errorf("%s: %d task spans, want build + periods", label, len(st.Tasks))
			}
			runs = append(runs, run{label: label, stats: st})
		}
	}
	// Candidate/prune/frequent counts are backend-independent.
	want := runs[0].stats
	for _, r := range runs[1:] {
		if len(r.stats.Levels) != len(want.Levels) {
			t.Fatalf("%s: %d passes, want %d", r.label, len(r.stats.Levels), len(want.Levels))
		}
		for i, l := range r.stats.Levels {
			w := want.Levels[i]
			if l.Level != w.Level || l.Generated != w.Generated ||
				l.Pruned != w.Pruned || l.Counted != w.Counted || l.Frequent != w.Frequent {
				t.Errorf("%s: L%d = {gen %d pruned %d counted %d freq %d}, want {gen %d pruned %d counted %d freq %d}",
					r.label, l.Level, l.Generated, l.Pruned, l.Counted, l.Frequent,
					w.Generated, w.Pruned, w.Counted, w.Frequent)
			}
		}
	}
}
