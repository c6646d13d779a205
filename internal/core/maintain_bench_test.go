package core

import (
	"slices"
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
// rise and be recounted over all of history. next-days is the stream:
// one op appends the next day to the year and maintains the table the
// op before left, and every 10th day moves 5 % of its rows 3 to 10
// days back, as late arrivals, so an old granule is dirty too. Only
// Maintain is timed.
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
	// 365, and the last day arrives in three growing prefixes. The draw
	// runs nextDays days further (a prefix of a draw is the shorter
	// draw): those days follow the last one in the next-days arm.
	const nextDays = 100
	cfg.NGranules, cfg.TxPerGranule = 366+nextDays, 300
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
	days := make([][]tdb.Tx, 1+nextDays) // the last day, then the next ones
	year.Each(func(tx tdb.Tx) bool {
		tx.Items = tx.Items.Clone()
		if tx.At.Before(split) {
			base = append(base, tx)
		} else {
			d := int(tx.At.Sub(split) / (24 * time.Hour))
			days[d] = append(days[d], tx)
		}
		return true
	})
	last = days[0]
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
	b.Run("next-days", func(b *testing.B) {
		b.ReportAllocs()
		b.StopTimer()
		tbl, err := tdb.NewTxTable("baskets")
		if err != nil {
			b.Fatal(err)
		}
		tbl.AppendBatch(base)
		h := mustBuild(b, tbl, hcfg)
		for i := 0; i < b.N; i++ {
			// Past the draw, its days repeat, moved on by whole rounds.
			shift := 24 * time.Hour * time.Duration(len(days)*(i/len(days)))
			day := slices.Clone(days[i%len(days)])
			for j := range day {
				day[j].At = day[j].At.Add(shift)
				if (i+1)%10 == 0 && j < len(day)/20 {
					day[j].At = day[j].At.AddDate(0, 0, -(3 + j%8))
				}
			}
			epoch := tbl.Epoch()
			tbl.AppendBatch(day)
			dirty, _, ok := tbl.DirtySince(timegran.Day, epoch)
			if !ok {
				b.Fatal("no dirty info")
			}
			b.StartTimer()
			h, err = h.MaintainContext(bg, tbl, dirty)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	rebuild("year-rebuild", tbl, hcfg)
}
