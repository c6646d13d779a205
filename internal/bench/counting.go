package bench

import (
	"fmt"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/gen"
	"github.com/tarm-project/tarm/internal/obs"
)

// E14DensitySweep is the compressed-bitmap ablation: the same flat
// Apriori workload swept across item density, timing the uncompressed
// vertical bitmap and the roaring-container backend side by side, with the time inside the counting passes and the
// backend auto resolved to — so the table shows whether compression
// pays anywhere and that auto follows the measurement.
func E14DensitySweep(seed int64) (Table, error) {
	type shape struct {
		label  string
		items  int
		txLen  float64
		d      int
		minsup float64
	}
	// AvgTxLen fixed at 10: density falls as the item universe grows.
	shapes := []shape{
		{label: "dense ~1/10", items: 100, txLen: 10, d: 8_000, minsup: 0.05},
		{label: "medium ~1/100", items: 1_000, txLen: 10, d: 10_000, minsup: 0.01},
		{label: "sparse ~1/500", items: 5_000, txLen: 10, d: 20_000, minsup: 0.002},
		{label: "very sparse ~1/2000", items: 20_000, txLen: 10, d: 20_000, minsup: 0.001},
	}
	backends := []apriori.Backend{apriori.BackendBitmap, apriori.BackendRoaring, apriori.BackendAuto}

	t := Table{
		ID:     "E14",
		Title:  "bitmap vs roaring across density",
		Header: []string{"data", "minsup", "backend", "time ms", "counting ms", "resolved", "itemsets"},
	}
	for _, sh := range shapes {
		q, err := gen.NewQuest(gen.QuestConfig{NItems: sh.items, AvgTxLen: sh.txLen}, seed)
		if err != nil {
			return t, err
		}
		src := apriori.Transactions(q.Transactions(sh.d))
		label := fmt.Sprintf("%s D%d", sh.label, sh.d)
		var wantSets int
		for bi, b := range backends {
			trace := obs.NewTrace("")
			var f *apriori.Frequent
			d, err := timed(func() error {
				var err error
				f, err = apriori.Mine(src, apriori.Config{
					MinSupport: sh.minsup, MaxK: 3, Backend: b, Tracer: trace,
				})
				return err
			})
			if err != nil {
				return t, fmt.Errorf("%s backend=%v: %w", label, b, err)
			}
			if bi == 0 {
				wantSets = f.TotalItemsets()
			} else if f.TotalItemsets() != wantSets {
				return t, fmt.Errorf("%s backend=%v: %d itemsets, want %d (backends disagree)",
					label, b, f.TotalItemsets(), wantSets)
			}
			st := obs.Summarize(trace.Tree())
			resolved := "-"
			if b == apriori.BackendAuto && st.Backend != "" {
				resolved = st.Backend
			}
			t.AddRow(label, fmt.Sprintf("%g", sh.minsup), b.String(),
				ms(d.Seconds()*1000), ms(float64(st.CountingNS)/1e6), resolved, fmt.Sprint(f.TotalItemsets()))
		}
	}
	t.Notes = append(t.Notes,
		"counting ms = time inside the counting passes only",
		"resolved = the backend the auto run counted on; itemsets must agree across backends")
	return t, nil
}
