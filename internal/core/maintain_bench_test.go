package core

import (
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/gen"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// BenchmarkMaintainOneGranule: warm hold table, one dirty day of 20
// appended tx, against the full rebuild baseline (maintain, rebuild);
// then a year at 300 tx/day at support 0.05, maintained across the
// first transaction of a new day (open), its first 25 (sparse) and the
// whole day (day), against a cold build of the whole year (year-rebuild)
// in the same run. A granule of fewer than 1/support transactions has
// threshold 1, so open and sparse make every subset of their baskets
// rise and be recounted over all of history.
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
	maintain := func(name string, h *HoldTable, tbl *tdb.TxTable, epoch int64) {
		dirty, _, ok := tbl.DirtySince(timegran.Day, epoch)
		if !ok {
			b.Fatal("no dirty info")
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := h.MaintainContext(bg, tbl, dirty); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	maintain("maintain", h, tbl, epoch)
	rebuild := func(name string, tbl *tdb.TxTable, cfg Config) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildHoldTableContext(bg, tbl, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	rebuild("rebuild", tbl, hcfg)

	// One draw of 366 days split at day 365: the table holds the first
	// 365, and the last day arrives in three growing prefixes.
	cfg.NGranules, cfg.TxPerGranule = 366, 300
	year, err := gen.GenerateTemporal(cfg, 1998)
	if err != nil {
		b.Fatal(err)
	}
	split := cfg.Start.AddDate(0, 0, 365)
	tbl, err = tdb.NewTxTable("baskets")
	if err != nil {
		b.Fatal(err)
	}
	var base, last []tdb.Tx
	year.Each(func(tx tdb.Tx) bool {
		tx.Items = tx.Items.Clone()
		if tx.At.Before(split) {
			base = append(base, tx)
		} else {
			last = append(last, tx)
		}
		return true
	})
	tbl.AppendBatch(base)
	hcfg = Config{Granularity: timegran.Day, MinSupport: 0.05, MinConfidence: 0.6, MinFreq: 0.9, Workers: 2}
	h = mustBuild(b, tbl, hcfg)
	epoch = tbl.Epoch()
	appended := 0
	for _, arm := range []struct {
		name string
		txs  int
	}{{"open", 1}, {"sparse", 25}, {"day", len(last)}} {
		tbl.AppendBatch(last[appended:arm.txs])
		appended = arm.txs
		maintain(arm.name, h, tbl, epoch)
	}
	rebuild("year-rebuild", tbl, hcfg)
}
