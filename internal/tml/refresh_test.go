package tml_test

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/bench"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
	"github.com/tarm-project/tarm/internal/tml"
)

// The standing-refresh stream: bench.StandardDataset's baskets, the
// first days loaded at once and the rest appended in one of two shapes.
// BenchmarkStandingRefresh times it; the laws below replay it.
const (
	// shapeDay appends each whole day as one batch, as the stream_cycle
	// benchmark workload does.
	shapeDay = "day"
	// shapeTrickle appends trickleBatch baskets at a time, as
	// tgen -stream posts them; a day holds a Poisson number of baskets,
	// so batches straddle day ends and a close arrives with the first
	// baskets of the next day.
	shapeTrickle = "trickle"
	trickleBatch = 50
	// lateAfter is the streamed day before whose baskets a stream's late
	// batch lands: the held-back baskets of the first streamed day, by
	// then closed lateAfter-1 closes earlier.
	lateAfter = 4
)

// refreshStream is one shape of the stream: the loaded history and
// the batches appended after it, in order.
type refreshStream struct {
	history []tdb.Tx
	batches [][]tdb.Tx
}

// streamTxs returns bench.StandardDataset's baskets at txPerDay over
// days, in time order.
func streamTxs(tb testing.TB, txPerDay, days int) []tdb.Tx {
	tb.Helper()
	src, _, err := bench.StandardDataset(bench.StandardConfig{TxPerDay: txPerDay, Days: days})
	if err != nil {
		tb.Fatal(err)
	}
	var txs []tdb.Tx
	src.Each(func(tx tdb.Tx) bool {
		tx.Items = tx.Items.Clone()
		txs = append(txs, tx)
		return true
	})
	slices.SortStableFunc(txs, func(a, b tdb.Tx) int { return a.At.Compare(b.At) })
	return txs
}

// newRefreshStream cuts txs (in time order) into the days before
// loaded, which the table starts with, and the batches of shape that
// follow. With late, every third basket of the first streamed day is
// held back and appended as one batch before the first batch reaching
// streamed day lateAfter, into a day closed by then.
func newRefreshStream(txs []tdb.Tx, loaded int, shape string, late bool) *refreshStream {
	day0 := timegran.GranuleOf(txs[0].At, timegran.Day)
	dayOf := func(tx tdb.Tx) int { return int(timegran.GranuleOf(tx.At, timegran.Day) - day0) }
	s := &refreshStream{}
	var streamed, held []tdb.Tx
	for i, tx := range txs {
		switch d := dayOf(tx); {
		case d < loaded:
			s.history = append(s.history, tx)
		case late && d == loaded && i%3 == 0:
			held = append(held, tx)
		default:
			streamed = append(streamed, tx)
		}
	}
	switch shape {
	case shapeDay:
		for lo := 0; lo < len(streamed); {
			hi := lo + 1
			for hi < len(streamed) && dayOf(streamed[hi]) == dayOf(streamed[lo]) {
				hi++
			}
			s.batches = append(s.batches, streamed[lo:hi])
			lo = hi
		}
	case shapeTrickle:
		for lo := 0; lo < len(streamed); lo += trickleBatch {
			s.batches = append(s.batches, streamed[lo:min(lo+trickleBatch, len(streamed))])
		}
	default:
		panic("unknown stream shape " + shape)
	}
	if len(held) > 0 {
		at := slices.IndexFunc(s.batches, func(b []tdb.Tx) bool {
			return dayOf(b[len(b)-1]) >= loaded+lateAfter
		})
		s.batches = slices.Insert(s.batches, at, held)
	}
	return s
}

// open returns a fresh table holding the stream's history.
func (s *refreshStream) open(tb testing.TB) (*tdb.DB, *tdb.TxTable) {
	tb.Helper()
	db := tdb.NewMemDB()
	tbl, err := db.CreateTxTable("baskets")
	if err != nil {
		tb.Fatal(err)
	}
	tbl.AppendBatch(s.history)
	return db, tbl
}

// replay appends the batches to tbl in order and calls visit after each
// with whether it closed a day: whether its newest basket lies in a
// later day than every basket before it.
func (s *refreshStream) replay(tbl *tdb.TxTable, visit func(closed bool)) {
	for _, b := range s.batches {
		before, _ := tbl.MaxAt()
		tbl.AppendBatch(b)
		after, _ := tbl.MaxAt()
		visit(timegran.GranuleOf(after, timegran.Day) > timegran.GranuleOf(before, timegran.Day))
	}
}

// refreshStatement is a standing statement over the stream's table.
func refreshStatement(task string) string {
	return "MINE " + task + " FROM baskets AT GRANULARITY day THRESHOLD SUPPORT 0.05 CONFIDENCE 0.6 FREQUENCY 0.9"
}

// subscribe registers SUBSCRIBE text on e and steps its registration
// snapshot into fold, when fold is not nil.
func subscribe(tb testing.TB, e *tml.Executor, text string, fold *tml.RuleSet) *tml.Standing {
	tb.Helper()
	stmt, err := tml.Parse("SUBSCRIBE " + text)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := tml.NewStanding(e, stmt)
	if err != nil {
		tb.Fatal(err)
	}
	upd, err := st.Step(context.Background())
	if err != nil || upd == nil || !upd.Initial {
		tb.Fatalf("%s: registration snapshot %+v, %v", text, upd, err)
	}
	if fold != nil {
		if err := fold.Apply(upd.Deltas); err != nil {
			tb.Fatal(err)
		}
	}
	return st
}

// lastStatement is the span tree of e's latest statement over table.
func lastStatement(e *tml.Executor, table string) *obs.SpanNode {
	forest := e.Last(table).Tree()
	for i := len(forest) - 1; i >= 0; i-- {
		if forest[i].Name == obs.SpanStatement {
			return forest[i]
		}
	}
	return nil
}

// BenchmarkStandingRefresh is the stream path in process: the year at
// 300 tx/day, its last refreshDays days streamed in each shape, and at
// each close a PERIODS and a CYCLES standing statement stepped on
// one executor (one shared cache, as tarmd's subscriptions share it).
// One op replays the whole stream on a fresh table; the setup (the
// table and the registration snapshots) is untimed. Per close, summed
// over both statements, it reports: premaintain-ms, the cache's
// pre-maintenance, called first, as Step would; step-ms, the two
// Steps; mine-ms, their op:mine spans (Executor.Last); stmt-ms, their
// whole statements (plan, journal); so step-ms − stmt-ms is what a
// refresh spends outside its statement: the diff and the deltas'
// rendering. rows is the rules the two results hold and deltas what
// they emit.
func BenchmarkStandingRefresh(b *testing.B) {
	const (
		days     = 364
		txPerDay = 300
		// refreshDays keeps the trickle arm within a few seconds at
		// -benchtime=1x. Further in, a close that arrives with only a few
		// baskets of the next day can cost seconds (EXPERIMENTS.md, E11t).
		refreshDays = 10
	)
	txs := streamTxs(b, txPerDay, days)
	ctx := context.Background()
	tasks := []string{"PERIODS", "CYCLES"}
	for _, shape := range []string{shapeDay, shapeTrickle} {
		s := newRefreshStream(txs, days-refreshDays, shape, false)
		b.Run(shape, func(b *testing.B) {
			var pre, step, mine, stmt time.Duration
			closes, rows, deltas := 0, 0, 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db, tbl := s.open(b)
				e := tml.NewExecutor(db)
				var standing []*tml.Standing
				for _, task := range tasks {
					standing = append(standing, subscribe(b, e, refreshStatement(task), nil))
				}
				b.StartTimer()
				s.replay(tbl, func(closed bool) {
					if !closed {
						return
					}
					closes++
					t0 := time.Now()
					if _, err := e.Cache.Premaintain(ctx, tbl, nil); err != nil {
						b.Fatal(err)
					}
					pre += time.Since(t0)
					for _, st := range standing {
						t0 := time.Now()
						upd, err := st.Step(ctx)
						step += time.Since(t0)
						if err != nil || upd == nil {
							b.Fatalf("%s: a close refreshed nothing: %v", st.Stmt(), err)
						}
						rows += upd.Rules
						deltas += len(upd.Deltas)
						run := lastStatement(e, "baskets")
						stmt += time.Duration(run.WallMS * float64(time.Millisecond))
						for _, op := range obs.Summarize([]*obs.SpanNode{run}).Ops {
							if strings.HasPrefix(op.Op, "op:mine:") {
								mine += time.Duration(op.WallMS * float64(time.Millisecond))
							}
						}
					}
				})
			}
			perClose := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(closes) }
			b.ReportMetric(perClose(pre), "premaintain-ms")
			b.ReportMetric(perClose(step), "step-ms")
			b.ReportMetric(perClose(mine), "mine-ms")
			b.ReportMetric(perClose(stmt), "stmt-ms")
			b.ReportMetric(float64(rows)/float64(closes), "rows")
			b.ReportMetric(float64(deltas)/float64(closes), "deltas")
		})
	}
}

// The laws replay a shorter stream than the benchmark, late batch
// included, so that they fit the race detector.
const (
	lawDays     = 120
	lawLoaded   = 100
	lawTxPerDay = 100
)

// TestStandingTrickleFoldLaw is the fold law on both shapes: at every
// close, and after the late batch, folding every delta a standing
// statement has emitted (RuleSet.Apply) gives exactly the rows a
// from-scratch MINE returns, keyed with KeyRows.
func TestStandingTrickleFoldLaw(t *testing.T) {
	txs := streamTxs(t, lawTxPerDay, lawDays)
	ctx := context.Background()
	for _, shape := range []string{shapeDay, shapeTrickle} {
		t.Run(shape, func(t *testing.T) {
			s := newRefreshStream(txs, lawLoaded, shape, true)
			db, tbl := s.open(t)
			e := tml.NewExecutor(db)
			tasks := []string{"PERIODS", "CYCLES"}
			folds := make([]*tml.RuleSet, len(tasks))
			standing := make([]*tml.Standing, len(tasks))
			for i, task := range tasks {
				folds[i] = &tml.RuleSet{}
				standing[i] = subscribe(t, e, refreshStatement(task), folds[i])
			}
			refreshes := 0
			s.replay(tbl, func(closed bool) {
				// One fresh executor per check: its cache builds once for
				// both statements.
				scratch := tml.NewExecutor(db)
				for i, st := range standing {
					upd, err := st.Step(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if closed && upd == nil {
						t.Fatalf("%s: a close refreshed nothing", tasks[i])
					}
					if upd == nil {
						continue
					}
					refreshes++
					if err := folds[i].Apply(upd.Deltas); err != nil {
						t.Fatalf("%s at %s: %v", tasks[i], upd.ClosedLabel, err)
					}
					res, err := scratch.Exec(refreshStatement(tasks[i]))
					if err != nil {
						t.Fatal(err)
					}
					want := tml.KeyRows(res.Cols, tml.DisplayCells(res))
					if !reflect.DeepEqual(folds[i].Rows, want) {
						t.Fatalf("%s at %s: the fold holds %d rows, a from-scratch MINE %d",
							tasks[i], upd.ClosedLabel, len(folds[i].Rows), len(want))
					}
				}
			})
			if refreshes < 2*(lawDays-lawLoaded-1) {
				t.Fatalf("%d refreshes over %d streamed days: the stream did not close its days", refreshes, lawDays-lawLoaded)
			}
		})
	}
}

// TestStandingTypedDiffMatchesDisplayDiff holds the typed diff to the
// display-string diff it replaced: at every Step, over day-shaped and
// trickle appends with a late batch into a closed day, the update's
// JSON is byte-identical to one whose deltas are
// DiffRows(KeyRows(DisplayCells(prev)), KeyRows(DisplayCells(cur))) over
// the statement's full results, with the same Rules and Cols. Every
// task runs with and without LIMIT, and the RULES targets with PRUNE
// too; no result may hold two rows with one identity key.
func TestStandingTypedDiffMatchesDisplayDiff(t *testing.T) {
	const (
		temporal = " FROM baskets AT GRANULARITY day THRESHOLD SUPPORT 0.05 CONFIDENCE 0.5 FREQUENCY 0.8"
		during   = " DURING 'weekday in (sat, sun)'"
	)
	var texts []string
	for _, text := range []string{
		"MINE PERIODS" + temporal,
		"MINE CYCLES" + temporal,
		"MINE CALENDARS" + temporal,
		"MINE RULES" + temporal + during,
		"MINE RULES FROM baskets THRESHOLD SUPPORT 0.02 CONFIDENCE 0.5",
	} {
		texts = append(texts, text, text+" LIMIT 7")
	}
	texts = append(texts,
		"MINE RULES FROM baskets THRESHOLD SUPPORT 0.02 CONFIDENCE 0.5 PRUNE LIFT 1.5",
		"MINE RULES"+temporal+during+" PRUNE IMPROVEMENT 0.01")

	txs := streamTxs(t, lawTxPerDay, lawDays)
	ctx := context.Background()
	kinds := map[string]int{}
	for _, shape := range []string{shapeDay, shapeTrickle} {
		t.Run(shape, func(t *testing.T) {
			s := newRefreshStream(txs, lawLoaded, shape, true)
			db, tbl := s.open(t)
			e := tml.NewExecutor(db)
			standing := make([]*tml.Standing, len(texts))
			prev := make([]map[string][]string, len(texts))
			for i, text := range texts {
				stmt, err := tml.Parse("SUBSCRIBE " + text)
				if err != nil {
					t.Fatal(err)
				}
				if standing[i], err = tml.NewStanding(e, stmt); err != nil {
					t.Fatal(err)
				}
			}
			check := func() {
				for i, st := range standing {
					upd, err := st.Step(ctx)
					if err != nil {
						t.Fatalf("%s: %v", texts[i], err)
					}
					if upd == nil {
						continue
					}
					// The full result the refresh diffed: the statement again,
					// served from the entry the refresh left current.
					res, err := e.Exec(texts[i])
					if err != nil {
						t.Fatal(err)
					}
					cells := tml.DisplayCells(res)
					identities := map[string]bool{}
					for _, row := range cells {
						id := identity(res.Cols, row)
						if identities[id] {
							t.Fatalf("%s: two rows with identity %q", texts[i], id)
						}
						identities[id] = true
					}
					cur := tml.KeyRows(res.Cols, cells)
					want := *upd
					want.Rules, want.Cols, want.Deltas = len(res.Rows), res.Cols, tml.DiffRows(prev[i], cur)
					got, _ := json.Marshal(upd)
					wantJSON, _ := json.Marshal(want)
					if string(got) != string(wantJSON) {
						t.Fatalf("%s at %s: the typed diff emits\n%s\nthe display diff\n%s", texts[i], upd.ClosedLabel, got, wantJSON)
					}
					for _, d := range upd.Deltas {
						kinds[d.Kind]++
					}
					prev[i] = cur
				}
			}
			check() // the registration snapshots
			s.replay(tbl, func(bool) { check() })
		})
	}
	t.Logf("deltas by kind: %v", kinds)
	for _, k := range []string{tml.DeltaAdded, tml.DeltaRemoved, tml.DeltaChanged} {
		if kinds[k] == 0 {
			t.Errorf("no %s delta in the whole stream: the oracle compared too little", k)
		}
	}
}

// identity joins a display row's non-measure cells: the rule identity
// a delta key names.
func identity(cols, row []string) string {
	var parts []string
	for i, c := range cols {
		switch c {
		case "support", "confidence", "frequency":
		default:
			parts = append(parts, row[i])
		}
	}
	return fmt.Sprint(parts)
}
