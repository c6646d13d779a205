package core

// Telemetry equivalence for the hold-table build: the pass:Lk spans a
// build's trace records must satisfy the pass invariants on every
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
		stats obs.Summary
	}
	var runs []run
	for _, backend := range []apriori.Backend{apriori.BackendBitmap, apriori.BackendRoaring} {
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%v/workers=%d", backend, workers)
			trace := obs.NewTrace("")
			h, err := BuildHoldTableContext(bg, tbl, Config{
				Granularity:   timegran.Day,
				MinSupport:    0.05,
				MinConfidence: 0.5,
				MinFreq:       0.8,
				MaxK:          3,
				Backend:       backend,
				Workers:       workers,
				Tracer:        trace,
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			// Drive one task so the task span and rule counter appear.
			rules, err := MineValidPeriodsFromTableContext(bg, h, PeriodConfig{})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			forest := trace.Tree()
			st := obs.Summarize(forest)
			if len(st.Passes) == 0 {
				t.Fatalf("%s: no passes traced", label)
			}
			for _, l := range st.Passes {
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
			if st.Itemsets != int64(h.TotalItemsets()) {
				t.Errorf("%s: itemsets_frequent counter = %d, table has %d", label, st.Itemsets, h.TotalItemsets())
			}
			build := obs.Find(forest, "core.BuildHoldTable")
			if build == nil || obs.Find(forest, obs.TaskSpan(obs.TaskPeriods)) == nil {
				t.Fatalf("%s: spans %+v, want build + periods", label, forest)
			}
			if got := build.Attrs[obs.MetricGranules]; got != fmt.Sprint(h.NGranules()) {
				t.Errorf("%s: granules gauge = %s, want %d", label, got, h.NGranules())
			}
			if got := build.Attrs[obs.MetricGranulesActive]; got != fmt.Sprint(h.NActive) {
				t.Errorf("%s: granules_active gauge = %s, want %d", label, got, h.NActive)
			}
			if st.Rules != int64(len(rules)) {
				t.Errorf("%s: rules_emitted counter = %d, task emitted %d", label, st.Rules, len(rules))
			}
			runs = append(runs, run{label: label, stats: st})
		}
	}
	// Candidate/prune/frequent counts are backend-independent.
	want := runs[0].stats
	for _, r := range runs[1:] {
		if len(r.stats.Passes) != len(want.Passes) {
			t.Fatalf("%s: %d passes, want %d", r.label, len(r.stats.Passes), len(want.Passes))
		}
		for i, l := range r.stats.Passes {
			w := want.Passes[i]
			if l.Level != w.Level || l.Generated != w.Generated ||
				l.Pruned != w.Pruned || l.Counted != w.Counted || l.Frequent != w.Frequent {
				t.Errorf("%s: L%d = {gen %d pruned %d counted %d freq %d}, want {gen %d pruned %d counted %d freq %d}",
					r.label, l.Level, l.Generated, l.Pruned, l.Counted, l.Frequent,
					w.Generated, w.Pruned, w.Counted, w.Frequent)
			}
		}
	}
}
