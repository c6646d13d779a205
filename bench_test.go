package tarm

// One benchmark per experiment of EXPERIMENTS.md (E1–E10), so
// `go test -bench=.` regenerates a timing point for every table and
// figure, plus micro-benchmarks of the counting substrates. The full
// parameter sweeps (whole tables, recovery scores) come from
// `go run ./cmd/tarmine -experiment all`, which shares the harness in
// internal/bench.

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/bench"
	"github.com/tarm-project/tarm/internal/core"
	"github.com/tarm-project/tarm/internal/gen"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/minisql"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
	"github.com/tarm-project/tarm/internal/tml"
)

// benchDataset caches the standard dataset across benchmarks.
var benchDataset *tdb.TxTable

func dataset(b *testing.B) *tdb.TxTable {
	b.Helper()
	if benchDataset == nil {
		tbl, _, err := bench.StandardDataset(bench.StandardConfig{TxPerDay: 50, Seed: 1998})
		if err != nil {
			b.Fatal(err)
		}
		benchDataset = tbl
	}
	return benchDataset
}

// BenchmarkE1MissedRules times each miner of the E1 comparison on the
// standard dataset (364 days × 50 tx/day).
func BenchmarkE1MissedRules(b *testing.B) {
	tbl := dataset(b)
	cfg := bench.Cfg()
	b.Run("traditional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MineTraditional(tbl, cfg.MinSupport, cfg.MinConfidence, cfg.MaxK); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("taskI-periods", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MineValidPeriods(tbl, cfg, core.PeriodConfig{MinLen: 7}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("taskII-cycles", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MineCycles(tbl, cfg, core.CycleConfig{MaxLen: 10, MinReps: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("taskII-calendars", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MineCalendarPeriodicities(tbl, cfg, core.CycleConfig{MinReps: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("taskIII-during", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := MineDuringExpr(tbl, cfg, "month in (jun..aug)"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE2SupportSweep times Task I across the minimum-support axis.
func BenchmarkE2SupportSweep(b *testing.B) {
	tbl := dataset(b)
	for _, s := range []float64{0.25, 0.15, 0.10, 0.05} {
		b.Run(fmt.Sprintf("minsup=%.2f", s), func(b *testing.B) {
			cfg := bench.Cfg()
			cfg.MinSupport = s
			for i := 0; i < b.N; i++ {
				if _, err := MineValidPeriods(tbl, cfg, core.PeriodConfig{MinLen: 7}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3ScaleUp times Task I as the database grows (the linear
// scale-up figure): longer history at fixed daily volume.
func BenchmarkE3ScaleUp(b *testing.B) {
	for _, days := range []int{91, 182, 364} {
		tbl, _, err := bench.StandardDataset(bench.StandardConfig{TxPerDay: 100, Days: days, Seed: 1998})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("tx=%d", tbl.Len()), func(b *testing.B) {
			cfg := bench.Cfg()
			for i := 0; i < b.N; i++ {
				if _, err := MineValidPeriods(tbl, cfg, core.PeriodConfig{MinLen: 7}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4TransactionSize times Task I as the mean basket grows.
func BenchmarkE4TransactionSize(b *testing.B) {
	for _, sz := range []float64{5, 10, 15} {
		tbl, _, err := bench.StandardDataset(bench.StandardConfig{TxPerDay: 50, AvgTxLen: sz, Seed: 1998})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("T=%.0f", sz), func(b *testing.B) {
			cfg := bench.Cfg()
			for i := 0; i < b.N; i++ {
				if _, err := MineValidPeriods(tbl, cfg, core.PeriodConfig{MinLen: 7}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5ValidPeriodRecovery times the full Task I recovery
// experiment (dataset generation excluded would hide nothing: the
// mining dominates, but we still keep generation out of the loop).
func BenchmarkE5ValidPeriodRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.E5ValidPeriodRecovery(50, 1998); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6CycleRecovery times Task II across the MaxLen axis.
func BenchmarkE6CycleRecovery(b *testing.B) {
	tbl := dataset(b)
	cfg := bench.Cfg()
	cfg.MinFreq = 0.9
	for _, maxLen := range []int{7, 14, 31} {
		b.Run(fmt.Sprintf("maxlen=%d", maxLen), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := MineCycles(tbl, cfg, core.CycleConfig{MaxLen: maxLen, MinReps: 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7CycleAblation is the sequential vs interleaved pair: same
// results, different counting work.
func BenchmarkE7CycleAblation(b *testing.B) {
	tbl := dataset(b)
	cfg := bench.Cfg()
	cfg.MinFreq = 1
	ccfg := core.CycleConfig{MaxLen: 14, MinReps: 4}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.MineItemsetCyclesSequential(tbl, cfg, ccfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("interleaved", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.MineItemsetCyclesInterleaved(tbl, cfg, ccfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE8CalendarSelectivity times Task III across feature widths.
func BenchmarkE8CalendarSelectivity(b *testing.B) {
	tbl := dataset(b)
	cfg := bench.Cfg()
	for _, expr := range []string{"always", "month in (1..6)", "weekday in (sat, sun)", "month in (1)"} {
		p, err := timegran.ParsePattern(expr)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(expr, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := MineDuring(tbl, cfg, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9TML times each TML statement form end to end (parse, plan,
// mine, render) through the IQMS session.
func BenchmarkE9TML(b *testing.B) {
	src := dataset(b)
	db := tdb.NewMemDB()
	dst, err := db.CreateTxTable("baskets")
	if err != nil {
		b.Fatal(err)
	}
	src.Each(func(tx tdb.Tx) bool {
		dst.Append(tx.At, tx.Items)
		return true
	})
	session := tml.NewSession(db)
	stmts := map[string]string{
		"sql-groupby":    `SELECT item, COUNT(*) AS n FROM baskets GROUP BY item ORDER BY n DESC LIMIT 5`,
		"mine-rules":     `MINE RULES FROM baskets THRESHOLD SUPPORT 0.15 CONFIDENCE 0.6 MAX SIZE 3`,
		"mine-during":    `MINE RULES FROM baskets DURING 'month in (jun..aug)' THRESHOLD SUPPORT 0.15 CONFIDENCE 0.6 FREQUENCY 0.8 MAX SIZE 3`,
		"mine-periods":   `MINE PERIODS FROM baskets THRESHOLD SUPPORT 0.15 CONFIDENCE 0.6 FREQUENCY 0.8 MIN LENGTH 7 MAX SIZE 3`,
		"mine-cycles":    `MINE CYCLES FROM baskets THRESHOLD SUPPORT 0.15 CONFIDENCE 0.6 FREQUENCY 0.9 MAX LENGTH 10 MIN REPS 4 MAX SIZE 3`,
		"mine-calendars": `MINE CALENDARS FROM baskets THRESHOLD SUPPORT 0.15 CONFIDENCE 0.6 FREQUENCY 0.8 MIN REPS 4 MAX SIZE 3`,
	}
	for name, stmt := range stmts {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := session.Exec(stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE10FrequencySweep times Task II across the frequency
// threshold axis.
func BenchmarkE10FrequencySweep(b *testing.B) {
	tbl := dataset(b)
	for _, mf := range []float64{1.0, 0.9, 0.7} {
		b.Run(fmt.Sprintf("minfreq=%.1f", mf), func(b *testing.B) {
			cfg := bench.Cfg()
			cfg.MinFreq = mf
			for i := 0; i < b.N; i++ {
				if _, err := MineCycles(tbl, cfg, core.CycleConfig{MaxLen: 10, MinReps: 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Substrate micro-benchmarks.

// BenchmarkCountingBackend is the backend ablation on the paper's
// T10.I4 workload class: 10k Quest transactions mined to k=3 at 1%
// support on the vertical-bitmap and roaring counters.
func BenchmarkCountingBackend(b *testing.B) {
	q, err := gen.NewQuest(gen.QuestConfig{}, 1998)
	if err != nil {
		b.Fatal(err)
	}
	src := apriori.Transactions(q.Transactions(10000))
	for _, bk := range []apriori.Backend{apriori.BackendBitmap, apriori.BackendRoaring} {
		b.Run(bk.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := apriori.Mine(src, apriori.Config{
					MinSupport: 0.01, MaxK: 3, Backend: bk,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// countingCoreDataset builds a synthetic table of n transactions over
// nItems items, each item present in ~density of the transactions,
// plus the level-2 candidates over all items — the raw workload of the
// counting core, decoupled from the Apriori driver.
func countingCoreDataset(n, nItems int, density float64) (apriori.Transactions, []itemset.Set) {
	// Deterministic LCG so the benchmark needs no seeding ceremony.
	state := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 11
	}
	threshold := uint64(density * (1 << 53))
	txs := make(apriori.Transactions, n)
	for i := range txs {
		var items []itemset.Item
		for x := 0; x < nItems; x++ {
			if next()&((1<<53)-1) < threshold {
				items = append(items, itemset.Item(x))
			}
		}
		txs[i] = itemset.New(items...)
	}
	var cands []itemset.Set
	for a := 0; a < nItems; a++ {
		for c := a + 1; c < nItems; c++ {
			cands = append(cands, itemset.New(itemset.Item(a), itemset.Item(c)))
		}
	}
	return txs, cands
}

// BenchmarkCountingCore pits the uncompressed bitmap against the
// roaring-container index on the isolated counting kernel (index built
// once, candidates counted per iteration), at a density where the flat
// bitmap's density-blind AND over the full universe is mostly zeros
// (sparse, 1/512) and at one where it is well used (dense, 1/8).
// Both count through the seam over the whole table as one slice, which
// roaring serves by its batched container-major path; roaring-scalar
// counts through EachIntersection one candidate at a time.
func BenchmarkCountingCore(b *testing.B) {
	shapes := []struct {
		name    string
		n       int
		items   int
		density float64
	}{
		{"sparse-1/512", 1 << 18, 48, 1.0 / 512},
		{"dense-1/8", 1 << 17, 48, 1.0 / 8},
	}
	for _, sh := range shapes {
		txs, cands := countingCoreDataset(sh.n, sh.items, sh.density)
		// Each variant counts through a seam counter whose index was built
		// (by a first Count) before any timing starts.
		variants := []struct {
			name    string
			counter *apriori.SliceCounter
		}{
			{"bitmap", apriori.NewSliceCounter(apriori.BackendBitmap, []apriori.Source{txs}, nil, 0)},
			{"roaring", apriori.NewSliceCounter(apriori.BackendRoaring, []apriori.Source{txs}, nil, 0)},
			{"roaring-parallel4", apriori.NewSliceCounter(apriori.BackendRoaring, []apriori.Source{txs}, nil, 4)},
		}
		for _, v := range variants {
			if _, err := v.counter.Count(context.Background(), cands[:1]); err != nil {
				b.Fatal(err)
			}
		}
		for _, v := range variants {
			b.Run(sh.name+"/"+v.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := v.counter.Count(context.Background(), cands); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(sh.name+"/roaring-scalar", func(b *testing.B) {
			rix := apriori.NewRoaringIndex(txs, nil)
			counts := make([]int, len(cands))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rix.EachIntersection(cands, func(j int, acc *apriori.RoaringAcc) {
					counts[j] = acc.Card()
				})
			}
		})
	}
}

// BenchmarkHoldTableBuild times the shared per-granule counting pass by
// itself: on the standard dataset at the experiments' thresholds, and
// cold at the shape the end-to-end benchmark mines — a year at 300
// tx/day (Quest 1000 items / 200 patterns / |T| 10 / |I| 4), unbounded
// k, supports 0.03 / 0.05 / 0.08 — so `go test -bench HoldTableBuild`
// shows a change to the build without the harness (EXPERIMENTS.md,
// E11b, keeps the before/after).
func BenchmarkHoldTableBuild(b *testing.B) {
	run := func(b *testing.B, tbl *tdb.TxTable, cfg core.Config) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildHoldTableContext(context.Background(), tbl, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("standard", func(b *testing.B) { run(b, dataset(b), bench.Cfg()) })
	var year *tdb.TxTable
	// Day granularity at the supports of cold_mine (0.04, 0.06) and
	// around them, then week and month, whose granules have many more
	// locally frequent items: both sides of the level-2 route crossover.
	arms := []struct {
		name string
		gran timegran.Granularity
		supp float64
	}{
		{"year300", timegran.Day, 0.03}, {"year300", timegran.Day, 0.04}, {"year300", timegran.Day, 0.05},
		{"year300", timegran.Day, 0.06}, {"year300", timegran.Day, 0.08},
		{"year300/week", timegran.Week, 0.03}, {"year300/week", timegran.Week, 0.05},
		{"year300/month", timegran.Month, 0.03}, {"year300/month", timegran.Month, 0.05},
	}
	for _, arm := range arms {
		b.Run(fmt.Sprintf("%s/support=%g", arm.name, arm.supp), func(b *testing.B) {
			if year == nil {
				year = yearTable(b)
			}
			cfg := bench.Cfg()
			cfg.Granularity, cfg.MinSupport, cfg.MinFreq, cfg.MaxK = arm.gran, arm.supp, 0.9, 0
			b.ResetTimer()
			run(b, year, cfg)
		})
	}
	// Two weeks at 300 tx/day by the hour: ≈ 12 transactions a granule,
	// so every granule's threshold at 0.05 is one transaction and every
	// subset of a basket is frequent where it occurs. Only the build
	// scoped to a periods statement (floor 2) finishes; an unscoped arm
	// ran past a minute, and CI's one-iteration smoke runs every arm.
	b.Run("hour/periods", func(b *testing.B) {
		tbl, _, err := bench.StandardDataset(bench.StandardConfig{TxPerDay: 300, Days: 14, Seed: 1998})
		if err != nil {
			b.Fatal(err)
		}
		cfg := bench.Cfg()
		cfg.Granularity, cfg.MinSupport, cfg.MinFreq, cfg.MaxK = timegran.Hour, 0.05, 0.9, 0
		cfg.Scope = core.PeriodsScope(core.PeriodConfig{})
		b.ResetTimer()
		run(b, tbl, cfg)
	})
}

// yearTable is the shape the end-to-end benchmark mines: a year at 300
// tx/day of Quest data.
func yearTable(tb testing.TB) *tdb.TxTable {
	tb.Helper()
	tbl, _, err := bench.StandardDataset(bench.StandardConfig{TxPerDay: 300, Days: 365, Seed: 1998})
	if err != nil {
		tb.Fatal(err)
	}
	return tbl
}

// txTableBytesPerTx loads a Quest table of shape sc and returns what a
// stored transaction costs in live heap and on disk. The heap cost is
// HeapAlloc after a collection, around reading the table back from its
// segment files, over the row count. A table read back has no append
// history. The append change log is left out because it is a fixed
// cost, at most 64 Ki timestamps however many transactions the table
// holds, not a cost per transaction. The disk cost is the bytes of the
// segment directory the table was saved to — segments and manifest —
// over the row count.
func txTableBytesPerTx(tb testing.TB, sc bench.StandardConfig) (heap, disk float64) {
	tb.Helper()
	tbl, _, err := bench.StandardDataset(sc)
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	if _, err := tdb.SaveTxTableSegmented(tbl, dir); err != nil {
		tb.Fatal(err)
	}
	var size int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	for _, ent := range ents {
		info, err := ent.Info()
		if err != nil {
			tb.Fatal(err)
		}
		size += info.Size()
	}
	disk = float64(size) / float64(tbl.Len())
	tbl = nil
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tbl, err = tdb.LoadTxTableSegmented(dir)
	if err != nil {
		tb.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap = float64(after.HeapAlloc-before.HeapAlloc) / float64(tbl.Len())
	runtime.KeepAlive(tbl)
	return heap, disk
}

// txTableShapes are the shapes the bytes per transaction are measured
// at: the year table (≈ 10⁵ transactions of ≈ 9.5 items) and four weeks
// at 10⁴ tx/day (≈ 2.8·10⁵ of ≈ 9.3).
var txTableShapes = []struct {
	name string
	sc   bench.StandardConfig
}{
	{"year300", bench.StandardConfig{TxPerDay: 300, Days: 365, Seed: 1998}},
	{"day10k28", bench.StandardConfig{TxPerDay: 10000, Days: 28, Seed: 1998}},
}

// BenchmarkTxTableBytes reports what a stored transaction costs: B/tx
// of live heap, and disk-B/tx of segment files.
func BenchmarkTxTableBytes(b *testing.B) {
	for _, shape := range txTableShapes {
		b.Run(shape.name, func(b *testing.B) {
			var heap, disk float64
			for i := 0; i < b.N; i++ {
				heap, disk = txTableBytesPerTx(b, shape.sc)
			}
			b.ReportMetric(heap, "B/tx")
			b.ReportMetric(disk, "disk-B/tx")
		})
	}
}

// TestTxTableBytesPerTx keeps the row layout from quietly fattening: the
// table is most of a serving process's heap, so a stored transaction of
// the year table must stay within 40 B (DESIGN §tdb has the arithmetic).
func TestTxTableBytesPerTx(t *testing.T) {
	if heap, _ := txTableBytesPerTx(t, txTableShapes[0].sc); heap > 40 {
		t.Errorf("a stored transaction costs %.1f B of heap, want ≤ 40", heap)
	}
}

// TestTxTableDiskBytesPerTx keeps the segment coding from quietly
// fattening: a stored transaction of the year table must take at most
// 21 B of segment files. It takes 20.8: its generator appends each
// day's baskets out of time order, so the IDs of rows in time order
// cost 1.6 B of delta where time-ordered input costs 1 (DESIGN §tdb
// has the arithmetic; the fixed-width coding took ≈ 58).
func TestTxTableDiskBytesPerTx(t *testing.T) {
	if _, disk := txTableBytesPerTx(t, txTableShapes[0].sc); disk > 21 {
		t.Errorf("a stored transaction takes %.1f B on disk, want ≤ 21", disk)
	}
}

// BenchmarkTaskMiners times what a warm statement does after its cache
// probe: the year table's hold table is built once at support 0.03 and
// re-thresholded to 0.04 (the rethreshold sub-benchmark), then each
// task operator runs over the 0.04 table. The @view arms run each
// operator over what a cache holding the 0.03 table serves a 0.04
// statement: a threshold view of it, read in place with no
// re-threshold. allocs/op against the table's rule candidates shows
// what a candidate costs: nothing unless it emits. periods@0.03 is Task
// I over the 0.03 build itself, the largest answer a warm session asks
// for, and format renders that answer through minisql.Format as the
// seven PERIODS columns.
func BenchmarkTaskMiners(b *testing.B) {
	ctx := context.Background()
	tbl := yearTable(b)
	cfg := bench.Cfg()
	cfg.MinSupport, cfg.MinFreq, cfg.MaxK = 0.03, 0.9, 0
	cache := core.NewHoldCache(core.DefaultCacheBytes)
	h03, err := cache.GetContext(ctx, tbl, cfg)
	if err != nil {
		b.Fatal(err)
	}
	cfg.MinSupport = 0.04
	h, err := h03.Rethreshold(cfg)
	if err != nil {
		b.Fatal(err)
	}
	view, err := cache.GetContext(ctx, tbl, cfg)
	if err != nil {
		b.Fatal(err)
	}
	summer, err := timegran.ParsePattern("month in (jun..aug)")
	if err != nil {
		b.Fatal(err)
	}
	candidates := 0
	h.EachRuleCandidate(1, nil, func(core.RuleCandidate) bool { candidates++; return true })
	periods03, err := core.MineValidPeriodsFromTableContext(ctx, h03, core.PeriodConfig{})
	if err != nil {
		b.Fatal(err)
	}
	answer := &minisql.Result{Cols: []string{"antecedent", "consequent", "support", "confidence", "from", "to", "frequency"}}
	for _, r := range periods03 {
		answer.Rows = append(answer.Rows, tdb.Row{
			tdb.Str(r.Rule.Antecedent.String()), tdb.Str(r.Rule.Consequent.String()),
			tdb.Float(r.Rule.Support), tdb.Float(r.Rule.Confidence),
			tdb.Str(timegran.FormatGranule(r.Interval.Lo, r.Granularity)),
			tdb.Str(timegran.FormatGranule(r.Interval.Hi, r.Granularity)),
			tdb.Float(r.Freq),
		})
	}
	b.Logf("periods@0.03: %d rules", len(periods03))
	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"periods@0.03", func() error {
			_, err := core.MineValidPeriodsFromTableContext(ctx, h03, core.PeriodConfig{})
			return err
		}},
		{"format", func() error {
			minisql.Format(io.Discard, answer)
			return nil
		}},
		{"periods", func() error {
			_, err := core.MineValidPeriodsFromTableContext(ctx, h, core.PeriodConfig{})
			return err
		}},
		{"cycles", func() error {
			_, err := core.MineCyclesFromTableContext(ctx, h, core.CycleConfig{})
			return err
		}},
		{"calendars", func() error {
			_, err := core.MineCalendarPeriodicitiesFromTableContext(ctx, h, core.CycleConfig{})
			return err
		}},
		{"during", func() error {
			_, err := core.MineDuringFromTableContext(ctx, h, summer)
			return err
		}},
		{"rethreshold", func() error {
			_, err := h03.Rethreshold(cfg)
			return err
		}},
		{"periods@view", func() error {
			_, err := core.MineValidPeriodsFromTableContext(ctx, view, core.PeriodConfig{})
			return err
		}},
		{"cycles@view", func() error {
			_, err := core.MineCyclesFromTableContext(ctx, view, core.CycleConfig{})
			return err
		}},
		{"calendars@view", func() error {
			_, err := core.MineCalendarPeriodicitiesFromTableContext(ctx, view, core.CycleConfig{})
			return err
		}},
		{"during@view", func() error {
			_, err := core.MineDuringFromTableContext(ctx, view, summer)
			return err
		}},
	} {
		b.Run(op.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := op.run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(candidates), "candidates")
		})
	}
}

// BenchmarkHoldTableWorkers is the parallel-counting ablation on the
// cold_mine shape (a year at 300 tx/day, MinFreq 0.9, unbounded k): the
// same cold build at support 0.04 and 0.08 with 1, 2 and 4 workers.
// Level 1, the pair prefilter and the flat-bitmap ingest shard over
// granule blocks, the bitmap levels over candidate chunks; EXPERIMENTS.md
// (the parallel-counting ablation) keeps the curve.
func BenchmarkHoldTableWorkers(b *testing.B) {
	tbl := yearTable(b)
	for _, support := range []float64{0.04, 0.08} {
		for _, w := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("support=%g/workers=%d", support, w), func(b *testing.B) {
				b.ReportAllocs()
				cfg := bench.Cfg()
				cfg.MinSupport, cfg.MinFreq, cfg.MaxK, cfg.Workers = support, 0.9, 0, w
				for i := 0; i < b.N; i++ {
					if _, err := core.BuildHoldTableContext(context.Background(), tbl, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMineTraditional times the whole-table statement (MINE RULES
// without DURING, confidence 0.5) over the cold_mine table on the flat
// bitmap backend: at support 0.02 more than MaxVerticalItems items are
// frequent and level 2 is decided on the pair triangle; at 0.04 and
// 0.06 fewer are, and the join is counted on the index. The l1 metric
// is the number of frequent items.
func BenchmarkMineTraditional(b *testing.B) {
	tbl := yearTable(b)
	for _, support := range []float64{0.02, 0.04, 0.06} {
		ref, err := apriori.Mine(tbl.All(), apriori.Config{MinSupport: support, MaxK: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("support=%g/workers=%d", support, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := core.MineTraditionalContext(context.Background(), tbl, core.Config{MinSupport: support, MinConfidence: 0.5, Backend: apriori.BackendBitmap, Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(ref.ByK[1])), "l1")
			})
		}
	}
}

// BenchmarkExtendVsRebuild is the incremental-maintenance ablation:
// one new day arrives on a year of history — top up the hold table vs
// recount everything.
func BenchmarkExtendVsRebuild(b *testing.B) {
	tbl, _, err := bench.StandardDataset(bench.StandardConfig{TxPerDay: 50, Seed: 1998})
	if err != nil {
		b.Fatal(err)
	}
	cfg := bench.Cfg()
	h, err := core.BuildHoldTableContext(context.Background(), tbl, cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Append one day past the span.
	span, _ := tbl.Span(timegran.Day)
	day := timegran.Start(span.Hi+1, timegran.Day)
	for i := 0; i < 50; i++ {
		tbl.Append(day.Add(time.Duration(i)*time.Minute), itemset.New(itemset.Item(i%30), itemset.Item(30+i%30)))
	}
	b.Run("extend", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := h.ExtendContext(context.Background(), tbl); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.BuildHoldTableContext(context.Background(), tbl, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPatternParse times the calendar-algebra parser.
func BenchmarkPatternParse(b *testing.B) {
	const expr = "month in (jun..aug) and (weekday in (sat, sun) or every 7 offset 2) and not (between 1998-01-01 and 1998-02-01)"
	for i := 0; i < b.N; i++ {
		if _, err := timegran.ParsePattern(expr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkItemsetOps times the kernel set operations.
func BenchmarkItemsetOps(b *testing.B) {
	a := itemset.New(1, 5, 9, 13, 22, 40, 41, 57)
	c := itemset.New(5, 9, 22, 57, 58)
	tx := itemset.New(1, 2, 5, 7, 9, 13, 20, 22, 33, 40, 41, 50, 57, 58, 60)
	b.Run("ContainsAll", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tx.ContainsAll(a)
		}
	})
	b.Run("Union", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = a.Union(c)
		}
	})
	b.Run("Key", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = a.Key()
		}
	})
}
