package bench

import (
	"fmt"
	"runtime"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/gen"
	"github.com/tarm-project/tarm/internal/obs"
)

// Workers and Tracer are folded by Cfg into every experiment's mining
// config; cmd/tarmine sets them from its -workers and telemetry flags
// so the whole experiment suite can be re-run at any worker count, with
// or without tracing.
var (
	Workers int
	Tracer  obs.Tracer
)

// E11CountingBackends is the counting-backend ablation: flat Apriori
// over Quest-class data across transaction length (T), pattern length
// (I), database size (D) and minimum support, timing the vertical
// TID-bitmap backend against its compressed roaring variant, reporting
// heap allocations. The itemsets column is
// the cross-check: all backends must find exactly as many frequent
// itemsets.
func E11CountingBackends(seed int64) (Table, error) {
	type shape struct {
		t, i float64
		d    int
	}
	shapes := []shape{
		{t: 5, i: 2, d: 5_000},
		{t: 10, i: 4, d: 10_000},
		{t: 15, i: 6, d: 10_000},
	}
	supports := []float64{0.02, 0.01, 0.005}
	backends := []apriori.Backend{apriori.BackendBitmap, apriori.BackendRoaring}

	t := Table{
		ID:     "E11",
		Title:  "counting backend ablation (flat Apriori over Quest data)",
		Header: []string{"data", "minsup", "backend", "time ms", "allocs", "itemsets"},
	}
	for _, sh := range shapes {
		q, err := gen.NewQuest(gen.QuestConfig{AvgTxLen: sh.t, AvgPatLen: sh.i}, seed)
		if err != nil {
			return t, err
		}
		src := apriori.Transactions(q.Transactions(sh.d))
		label := fmt.Sprintf("T%.0f.I%.0f.D%d", sh.t, sh.i, sh.d)
		for _, s := range supports {
			for _, b := range backends {
				var f *apriori.Frequent
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				d, err := timed(func() error {
					var err error
					f, err = apriori.Mine(src, apriori.Config{MinSupport: s, MaxK: 3, Backend: b})
					return err
				})
				runtime.ReadMemStats(&m1)
				if err != nil {
					return t, fmt.Errorf("%s minsup=%g backend=%v: %w", label, s, b, err)
				}
				t.AddRow(label, fmt.Sprintf("%g", s), b.String(), ms(d.Seconds()*1000),
					fmt.Sprint(m1.Mallocs-m0.Mallocs), fmt.Sprint(f.TotalItemsets()))
			}
		}
	}
	return t, nil
}
