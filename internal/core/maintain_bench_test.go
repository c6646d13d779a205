package core

import (
	"testing"

	"github.com/tarm-project/tarm/internal/gen"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
	"time"
)

// BenchmarkMaintainOneGranule: warm hold table, one dirty day of 20
// appended tx, against the full rebuild baseline.
func BenchmarkMaintainOneGranule(b *testing.B) {
	cfg := gen.TemporalConfig{
		Quest:        gen.QuestConfig{NItems: 1000, NPatterns: 200, AvgTxLen: 10, AvgPatLen: 4},
		Start:        time.Date(1998, 1, 1, 0, 0, 0, 0, time.UTC),
		Granularity:  timegran.Day,
		NGranules:    364,
		TxPerGranule: 50,
	}
	tbl, err := gen.GenerateTemporal(cfg, 1998)
	if err != nil {
		b.Fatal(err)
	}
	hcfg := Config{Granularity: timegran.Day, MinSupport: 0.15, MinConfidence: 0.6, MinFreq: 0.9}
	h := mustBuild(b, tbl, hcfg)
	epoch := tbl.Epoch()
	at := cfg.Start.AddDate(0, 0, 100).Add(6 * time.Hour)
	for i := 0; i < 20; i++ {
		tbl.Append(at.Add(time.Duration(i)*time.Second), itemset.New(1, 2, itemset.Item(3+i)))
	}
	dirty, _, ok := tbl.DirtySince(timegran.Day, epoch)
	if !ok {
		b.Fatal("no dirty info")
	}
	b.Run("maintain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := h.MaintainContext(bg, tbl, dirty); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := BuildHoldTableContext(bg, tbl, hcfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	_ = tdb.Tx{}
}
