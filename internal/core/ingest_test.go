package core

import (
	"math/rand"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// ingestEdgeTable is a 40-day table whose granules are all shorter than
// a 64-row word, so the flat index's granule blocks start and end
// inside words, and whose empty (inactive) days sit at the granule
// block edges apriori.Blocks cuts for 2, 3 and 8 workers (days 5, 10,
// 14, 15, 20, … 35). Pairs are planted over a small universe so the
// build reaches level 3.
func ingestEdgeTable(t *testing.T, seed int64) *tdb.TxTable {
	t.Helper()
	tbl, err := tdb.NewTxTable("edges")
	if err != nil {
		t.Fatal(err)
	}
	empty := map[int]bool{4: true, 5: true, 13: true, 14: true, 19: true, 20: true, 27: true, 28: true, 34: true, 35: true}
	r := rand.New(rand.NewSource(seed))
	base := time.Date(2023, 3, 1, 9, 0, 0, 0, time.UTC)
	for d := 0; d < 40; d++ {
		if empty[d] {
			continue
		}
		for i, nTx := 0, 3+r.Intn(40); i < nTx; i++ {
			var items []itemset.Item
			for x := 0; x < 9; x++ {
				if r.Float64() < 0.25 {
					items = append(items, itemset.Item(x))
				}
			}
			if d%3 == 0 && r.Float64() < 0.8 {
				items = append(items, 20, 21, 22)
			}
			if len(items) == 0 {
				items = append(items, itemset.Item(r.Intn(9)))
			}
			tbl.Append(base.AddDate(0, 0, d).Add(time.Duration(i)*time.Minute), itemset.New(items...))
		}
	}
	return tbl
}

// TestIngestShardedBuildEquivalent builds hold tables on the flat
// bitmap over short granules with inactive ones at the block edges, at
// workers 1, 2, 3 and 8 (more workers than some blocks have granules):
// every retained count vector and frequency word must equal the
// sequential build's.
func TestIngestShardedBuildEquivalent(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		tbl := ingestEdgeTable(t, seed)
		cfg := Config{Granularity: timegran.Day, MinSupport: 0.3, MinConfidence: 0.5, MinFreq: 0.5, Backend: apriori.BackendBitmap}
		seq := mustBuild(t, tbl, cfg)
		if len(seq.ByK) < 4 {
			t.Fatalf("seed %d: build stopped at level %d; the table should reach level 3", seed, len(seq.ByK)-1)
		}
		for _, workers := range []int{2, 3, 8} {
			cfg.Workers = workers
			if par := mustBuild(t, tbl, cfg); !holdTablesEqual(seq, par) {
				t.Errorf("seed %d/workers=%d: sharded-ingest build differs from the sequential one", seed, workers)
			}
		}
	}
}
