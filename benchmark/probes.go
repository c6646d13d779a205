package main

import (
	"bytes"
	"context"
	"path/filepath"
	"time"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/core"
	"github.com/tarm-project/tarm/internal/minisql"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
	"github.com/tarm-project/tarm/internal/tml"
)

// The layer probes: harness stopwatches around direct calls into each
// layer's public functions, on an in-process replica of the inputs the
// server workloads run on (the same seed's year of history, the same
// next days as the stream). They say what one call into a layer costs;
// the journal spans say how often the server makes it. The probes run
// after the server phases, alone on the box.

// probe times fn, records it as a span and returns milliseconds.
func probe(e *env, name string, fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	e.rec.add("probe", "probe:"+name, 0, t0, d, nil)
	return float64(d) / 1e6, err
}

// probeN reports the median of n timings of fn.
func probeN(e *env, name string, n int, fn func(i int) error) (float64, error) {
	ms := make([]float64, n)
	for i := range ms {
		var err error
		if ms[i], err = probe(e, name, func() error { return fn(i) }); err != nil {
			return 0, err
		}
	}
	return median(ms), nil
}

// days and txPerDay size the replica; the benchmark passes the served
// store's, the unit tests something tiny.
func runProbes(e *env, m map[string]float64, days, txPerDay int) error {
	ctx := context.Background()
	ds, err := newDataset(e.seed)
	if err != nil {
		return err
	}
	history := ds.days(0, days, txPerDay)
	next := ds.days(days, 12, txPerDay)
	db, tbl, err := ds.memTable(history, true)
	if err != nil {
		return err
	}
	cfg := func(support float64) core.Config {
		return core.Config{Granularity: timegran.Day, MinSupport: support, MinConfidence: 0.6, MinFreq: 0.9}
	}

	// tdb, read side.
	if m["tdb.scan_ms"], err = probeN(e, "tdb.scan", 5, func(int) error {
		items := 0
		tbl.Each(func(tx tdb.Tx) bool { items += len(tx.Items); return true })
		return nil
	}); err != nil {
		return err
	}
	if m["tdb.count_stats_ms"], err = probe(e, "tdb.count_stats", func() error {
		tbl.CountStats() // first call: the full scan
		return nil
	}); err != nil {
		return err
	}

	// core: build, re-threshold, probe.
	var h03, h05 *core.HoldTable
	if m["core.build_hold_s03_ms"], err = probe(e, "core.build_hold_s03", func() (err error) {
		h03, err = core.BuildHoldTableContext(ctx, tbl, cfg(0.03))
		return err
	}); err != nil {
		return err
	}
	if m["core.build_hold_s05_ms"], err = probeN(e, "core.build_hold_s05", 3, func(int) (err error) {
		h05, err = core.BuildHoldTableContext(ctx, tbl, cfg(0.05))
		return err
	}); err != nil {
		return err
	}
	m["core.hold_cells"] = float64(h03.TotalItemsets() * h03.NGranules())
	m["core.hold_mem_mb"] = float64(h03.MemBytes()) / (1 << 20)
	var h04 *core.HoldTable
	if m["core.rethreshold_ms"], err = probeN(e, "core.rethreshold", 5, func(int) (err error) {
		h04, err = h03.Rethreshold(cfg(0.04))
		return err
	}); err != nil {
		return err
	}
	cache := core.NewHoldCache(core.DefaultCacheBytes)
	if _, err := cache.GetContext(ctx, tbl, cfg(0.05)); err != nil {
		return err
	}
	const probes = 2000
	ms, err := probe(e, "core.cache_probe", func() error {
		for i := 0; i < probes; i++ {
			cache.Probe(tbl, cfg(0.06))
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["core.cache_probe_us"] = ms * 1000 / probes

	// core: the four task miners over the 0.04 table.
	summer, err := timegran.ParsePattern("month in (jun..aug)")
	if err != nil {
		return err
	}
	miners := []struct {
		name string
		fn   func() error
	}{
		{"core.mine_periods", func() error {
			_, err := core.MineValidPeriodsFromTableContext(ctx, h04, core.PeriodConfig{})
			return err
		}},
		{"core.mine_cycles", func() error {
			_, err := core.MineCyclesFromTableContext(ctx, h04, core.CycleConfig{})
			return err
		}},
		{"core.mine_calendars", func() error {
			_, err := core.MineCalendarPeriodicitiesFromTableContext(ctx, h04, core.CycleConfig{})
			return err
		}},
		{"core.mine_during", func() error {
			_, err := core.MineDuringFromTableContext(ctx, h04, summer)
			return err
		}},
	}
	for _, mn := range miners {
		if m[mn.name+"_ms"], err = probeN(e, mn.name, 3, func(int) error { return mn.fn() }); err != nil {
			return err
		}
	}
	if m["apriori.mine_rules_ms"], err = probe(e, "apriori.mine_rules", func() error {
		_, _, err := apriori.MineRulesContext(ctx, tbl.All(),
			apriori.Config{MinSupport: 0.02}, apriori.RuleConfig{MinConfidence: 0.6})
		return err
	}); err != nil {
		return err
	}

	// tml and minisql: parse, render, diff.
	stmtText := temporalStatement("PERIODS", 0.04)
	const parses = 2000
	if ms, err = probe(e, "tml.parse", func() error {
		for i := 0; i < parses; i++ {
			if _, err := tml.Parse(stmtText); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	m["tml.parse_us"] = ms * 1000 / parses
	ex := tml.NewExecutor(db)
	res, err := ex.Exec(stmtText)
	if err != nil {
		return err
	}
	if ms, err = probeN(e, "minisql.format", 5, func(int) error {
		var b bytes.Buffer
		minisql.Format(&b, res)
		return nil
	}); err != nil {
		return err
	}
	m["minisql.format_us"] = ms * 1000

	// The stream side: a standing statement stepping over the next days,
	// the hold table maintained beside it.
	standingStmt, err := tml.Parse(streamStatement("PERIODS", true))
	if err != nil {
		return err
	}
	standing, err := tml.NewStanding(ex, standingStmt)
	if err != nil {
		return err
	}
	if _, err := standing.Step(ctx); err != nil { // registration snapshot
		return err
	}
	before, err := ex.Exec(streamStatement("PERIODS", false))
	if err != nil {
		return err
	}
	prev := tml.KeyRows(before.Cols, tml.DisplayCells(before))
	var stepMS, maintainMS, dirtyUS, diffUS []float64
	maintained := h05
	for i, day := range next[:8] {
		since := tbl.Epoch()
		tbl.AppendBatch(toTxs(db.Dict(), day))
		var dirty []timegran.Granule
		ms, _ := probe(e, "tdb.dirty_since", func() error {
			dirty, _, _ = tbl.DirtySince(timegran.Day, since)
			return nil
		})
		dirtyUS = append(dirtyUS, ms*1000)
		if ms, err = probe(e, "core.maintain", func() (err error) {
			maintained, err = maintained.MaintainContext(ctx, tbl, dirty)
			return err
		}); err != nil {
			return err
		}
		maintainMS = append(maintainMS, ms)
		if i == 0 {
			continue // the first step also closes the history's last day
		}
		if ms, err = probe(e, "tml.standing_step", func() error {
			_, err := standing.Step(ctx)
			return err
		}); err != nil {
			return err
		}
		stepMS = append(stepMS, ms)
		after, err := ex.Exec(streamStatement("PERIODS", false))
		if err != nil {
			return err
		}
		cur := tml.KeyRows(after.Cols, tml.DisplayCells(after))
		ms, _ = probe(e, "tml.diff_rows", func() error { tml.DiffRows(prev, cur); return nil })
		diffUS = append(diffUS, ms*1000)
		prev = cur
	}
	m["tdb.dirty_since_us"] = median(dirtyUS)
	m["core.maintain_ms"] = median(maintainMS)
	m["tml.standing_step_ms"] = median(stepMS)
	m["tml.diff_rows_us"] = median(diffUS)

	if _, err := cache.GetContext(ctx, tbl, cfg(0.05)); err != nil { // bring the entry up to date
		return err
	}
	var lateMS, preMS []float64
	for _, day := range next[8:] {
		tbl.AppendBatch(toTxs(db.Dict(), day))
		if ms, err = probe(e, "core.premaintain", func() error {
			_, err := cache.Premaintain(ctx, tbl, nil)
			return err
		}); err != nil {
			return err
		}
		preMS = append(preMS, ms)
		// Keep the hand-maintained table current without timing it.
		if maintained, err = maintained.ExtendContext(ctx, tbl); err != nil {
			return err
		}
	}
	m["core.premaintain_ms"] = median(preMS)
	// A late batch dirties closed granules as well as the open one.
	for i := 0; i < 4; i++ {
		since := tbl.Epoch()
		tbl.AppendBatch(toTxs(db.Dict(), ds.day(days+len(next)+i, txPerDay, lateShare)))
		dirty, _, _ := tbl.DirtySince(timegran.Day, since)
		if ms, err = probe(e, "core.maintain_late", func() (err error) {
			maintained, err = maintained.MaintainContext(ctx, tbl, dirty)
			return err
		}); err != nil {
			return err
		}
		lateMS = append(lateMS, ms)
	}
	m["core.maintain_late_ms"] = median(lateMS)

	// tdb, write side: recovery, durable appends (fsync always),
	// checkpoint — on a store prepared exactly like the served one.
	dir := filepath.Join(e.tmp, "probe-db")
	if _, err := ds.prepareStore(dir, history); err != nil {
		return err
	}
	reg := obs.NewRegistry()
	var pdb *tdb.DB
	if m["tdb.recover_ms"], err = probe(e, "tdb.recover", func() (err error) {
		pdb, err = tdb.OpenDurable(dir, tdb.Durability{Fsync: tdb.FsyncAlways, Registry: reg})
		return err
	}); err != nil {
		return err
	}
	defer pdb.Kill()
	rec := pdb.Recovery()
	m["tdb.recover_replayed_tx"] = float64(rec.AppendedTx)
	m["tdb.recover_tx_per_s"] = float64(rec.AppendedTx) / rec.Wall.Seconds()
	ptbl, _ := pdb.TxTable(tableName)
	var stream []basket
	for _, day := range next {
		stream = append(stream, day...)
	}
	const batches = 16
	bytes0 := reg.Counter(tdb.MetricWALBytes).Value()
	syncs0 := reg.Counter(tdb.MetricWALFsyncs).Value()
	if ms, err = probeN(e, "tdb.append_batch", batches, func(i int) error {
		_, _, err := ptbl.AppendBatchDurable(toTxs(pdb.Dict(), stream[i*ingestBatch:(i+1)*ingestBatch]))
		return err
	}); err != nil {
		return err
	}
	m["tdb.append_batch_us"] = ms * 1000
	m["tdb.wal_bytes_per_tx"] = float64(reg.Counter(tdb.MetricWALBytes).Value()-bytes0) / (batches * ingestBatch)
	m["tdb.wal_fsyncs_per_batch"] = float64(reg.Counter(tdb.MetricWALFsyncs).Value()-syncs0) / batches
	var cp tdb.CheckpointStats
	if m["tdb.checkpoint_ms"], err = probe(e, "tdb.checkpoint", func() (err error) {
		cp, err = pdb.Checkpoint()
		return err
	}); err != nil {
		return err
	}
	m["tdb.checkpoint_segments_written"] = float64(cp.SegmentsWritten)
	m["tdb.checkpoint_segments_skipped"] = float64(cp.SegmentsSkipped)
	return nil
}
