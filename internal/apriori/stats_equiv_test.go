package apriori_test

// Cross-backend telemetry equivalence: the pass:Lk spans a run's trace
// records must satisfy the pass invariants on every backend and worker
// count, and the per-level numbers must be identical across backends —
// the counting strategy may change how supports are computed, never
// how many candidates exist or survive.

import (
	"fmt"
	"testing"

	. "github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/obs"
)

// checkStatsInvariants asserts the structural invariants of one run's
// traced passes against its mining result.
func checkStatsInvariants(t *testing.T, label string, st obs.Summary, res *Frequent) {
	t.Helper()
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
		if l.Level < len(res.ByK) && l.Frequent != len(res.ByK[l.Level]) {
			t.Errorf("%s: L%d stats say %d frequent, result has %d",
				label, l.Level, l.Frequent, len(res.ByK[l.Level]))
		}
		if l.Counted > 0 && l.Rows != int64(res.N) {
			t.Errorf("%s: L%d rows = %d, want %d", label, l.Level, l.Rows, res.N)
		}
	}
	if st.Itemsets != int64(res.TotalItemsets()) {
		t.Errorf("%s: itemsets_frequent counter = %d, result has %d",
			label, st.Itemsets, res.TotalItemsets())
	}
}

func TestPassInvariantsAcrossBackends(t *testing.T) {
	src := questSource(t, 1500, 3)
	type run struct {
		label string
		stats obs.Summary
	}
	var runs []run
	for _, backend := range []Backend{BackendBitmap, BackendRoaring} {
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%v/workers=%d", backend, workers)
			trace := obs.NewTrace("")
			res, err := Mine(src, Config{
				MinSupport: 0.01, MaxK: 3,
				Backend: backend, Workers: workers, Tracer: trace,
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			st := obs.Summarize(trace.Tree())
			checkStatsInvariants(t, label, st, res)
			if st.Backend != backend.String() {
				t.Errorf("%s: stats backend = %q", label, st.Backend)
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
