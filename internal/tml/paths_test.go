package tml_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/bench"
	"github.com/tarm-project/tarm/internal/core"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
	"github.com/tarm-project/tarm/internal/tml"
)

// TestServedPathsAgree is the third self-consistency law: however a
// statement is served, its answer is the same. Each statement runs on
// a year of data five ways — cold with no cache, as a cache hit, as a
// threshold view of a table primed at a lower support, on an entry
// delta-maintained across appends, and as the fold of a standing
// subscription's updates stepped across the same appends — and all
// five return identical rows. Each path's cache outcome is checked
// with Probe before it runs, so a path that silently fell back to a
// build would fail rather than pass vacuously.
func TestServedPathsAgree(t *testing.T) {
	const (
		days      = 364
		loaded    = 300 // days in the table before the appends
		chunkDays = 32  // days per append step
		lateDay   = 320 // the closed day the late batch lands in
	)
	src, _, err := bench.StandardDataset(bench.StandardConfig{TxPerDay: 100, Days: days})
	if err != nil {
		t.Fatal(err)
	}
	year0 := time.Date(1998, 1, 1, 0, 0, 0, 0, time.UTC)
	dayOf := func(tx tdb.Tx) int { return int(tx.At.Sub(year0) / (24 * time.Hour)) }
	// The first loaded days, then chunks of the rest in time order, then
	// the held-back second half of lateDay as the late batch: the final
	// table holds exactly the dataset.
	var first, late []tdb.Tx
	chunks := make([][]tdb.Tx, (days-loaded+chunkDays-1)/chunkDays)
	lateSeen := 0
	src.Each(func(tx tdb.Tx) bool {
		tx.Items = tx.Items.Clone()
		switch d := dayOf(tx); {
		case d < loaded:
			first = append(first, tx)
		case d == lateDay && lateSeen >= 50:
			late = append(late, tx)
		default:
			if d == lateDay {
				lateSeen++
			}
			c := (d - loaded) / chunkDays
			chunks[c] = append(chunks[c], tx)
		}
		return true
	})
	if len(late) == 0 {
		t.Fatal("no late batch: the delta paths would not see a closed day change")
	}

	db := tdb.NewMemDB()
	tbl, err := db.CreateTxTable("baskets")
	if err != nil {
		t.Fatal(err)
	}
	tbl.AppendBatch(first)

	const thresholds = " FROM baskets AT GRANULARITY day THRESHOLD SUPPORT %s CONFIDENCE 0.5 FREQUENCY 0.9"
	names := []string{"PERIODS", "CYCLES", "CALENDARS", "DURING"}
	text := func(name, support string) string {
		if name == "DURING" {
			return "MINE RULES" + fmt.Sprintf(thresholds, support) + " DURING 'month in (jun..aug)'"
		}
		return "MINE " + name + fmt.Sprintf(thresholds, support)
	}
	cfg := func(support float64) core.Config {
		return core.Config{Granularity: timegran.Day, MinSupport: support, MinConfidence: 0.5, MinFreq: 0.9}
	}
	ctx := context.Background()
	// served runs text on e after checking that e's cache would serve it
	// as want.
	served := func(e *tml.Executor, want, text string) ([]string, [][]string) {
		t.Helper()
		if got := e.Cache.Probe(tbl, cfg(0.05)); got != want {
			t.Fatalf("%s: cache would serve %q, want %q", text, got, want)
		}
		res, err := e.ExecContext(ctx, text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		return res.Cols, tml.DisplayCells(res)
	}

	// Before the appends: one executor per statement primed for the
	// delta path, and one standing subscription per statement on an
	// executor of its own, so no path's cache is warmed by another's.
	deltaExec := map[string]*tml.Executor{}
	folds := map[string]*tml.RuleSet{}
	standing := map[string]*tml.Standing{}
	standExec := map[string]*tml.Executor{}
	for _, name := range names {
		e := tml.NewExecutor(db)
		served(e, "build", text(name, "0.05"))
		deltaExec[name] = e

		se := tml.NewExecutor(db)
		stmt, err := tml.Parse("SUBSCRIBE " + text(name, "0.05"))
		if err != nil {
			t.Fatal(err)
		}
		st, err := tml.NewStanding(se, stmt)
		if err != nil {
			t.Fatal(err)
		}
		standing[name], standExec[name], folds[name] = st, se, &tml.RuleSet{}
	}
	step := func(want string) {
		t.Helper()
		for _, name := range names {
			if got := standExec[name].Cache.Probe(tbl, cfg(0.05)); got != want {
				t.Fatalf("standing %s: cache would serve %q, want %q", name, got, want)
			}
			upd, err := standing[name].Step(ctx)
			if err != nil {
				t.Fatalf("standing %s: %v", name, err)
			}
			if upd == nil {
				t.Fatalf("standing %s: no update after its table advanced", name)
			}
			if err := folds[name].Apply(upd.Deltas); err != nil {
				t.Fatalf("standing %s: %v", name, err)
			}
		}
	}
	step("build") // the registration snapshots
	for _, c := range chunks {
		tbl.AppendBatch(c)
		step("delta")
	}
	tbl.AppendBatch(late)
	step("delta")

	for _, name := range names {
		stmt := text(name, "0.05")
		cold := tml.NewExecutor(db)
		cold.Cache = nil
		cols, want := served(cold, "build", stmt)
		if len(want) == 0 {
			t.Fatalf("%s found no rules: the law would hold vacuously", stmt)
		}

		hit := tml.NewExecutor(db)
		served(hit, "build", stmt)
		_, hitRows := served(hit, "hit", stmt)

		view := tml.NewExecutor(db)
		served(view, "build", text(name, "0.04"))
		_, viewRows := served(view, "rethreshold", stmt)

		_, deltaRows := served(deltaExec[name], "delta", stmt)

		for path, got := range map[string][][]string{"hit": hitRows, "view": viewRows, "delta": deltaRows} {
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: the %s path returns %d rows that differ from the cold path's %d", stmt, path, len(got), len(want))
			}
		}
		if got := folds[name].Rows; !reflect.DeepEqual(got, tml.KeyRows(cols, want)) {
			t.Errorf("%s: the standing fold holds %d rows that differ from the cold path's %d", stmt, len(got), len(want))
		}
		t.Logf("%s: %d rows on all five paths", name, len(want))
	}
}

// TestHoldSpanMatchesExplain: a statement's hold acquisition is
// decided once, so what EXPLAIN prints is what a run does. Over core's
// TestHoldCacheProbeMatchesServe grid — no entry, a fresh one, one
// stale after a small append, one after an append of most of the rows
// and a stale one with delta maintenance off, against statements at
// the entry's thresholds, at a higher support, at a shallower MAX SIZE
// and at a lower support — the run's hold span has the operator and
// cache= of the EXPLAIN line printed just before it, the journal's
// outcome (obs.Summarize) agrees, and both are the grid's word.
func TestHoldSpanMatchesExplain(t *testing.T) {
	txs := streamTxs(t, 50, 30)
	last := txs[len(txs)-1].At
	small := func(tbl *tdb.TxTable) { tbl.Append(last, txs[0].Items) }
	majority := func(tbl *tdb.TxTable) {
		for _, tx := range txs {
			tbl.Append(last, tx.Items)
		}
		tbl.Append(last, txs[0].Items)
	}
	stmt := func(support string, maxSize int) string {
		return fmt.Sprintf("MINE PERIODS FROM baskets AT GRANULARITY day THRESHOLD SUPPORT %s CONFIDENCE 0.5 FREQUENCY 0.8 MAX SIZE %d", support, maxSize)
	}
	base := stmt("0.1", 3)
	stmts := []string{base, stmt("0.2", 3), stmt("0.1", 2), stmt("0.06", 3)}
	states := []struct {
		name     string
		primed   bool // base has run before the write
		deltaOff bool
		write    func(*tdb.TxTable)
		want     []string // the cache word of each of stmts
	}{
		{"empty", false, false, nil, []string{"cold", "cold", "cold", "cold"}},
		{"fresh", true, false, nil, []string{"hit", "rethreshold", "rethreshold", "cold"}},
		{"stale", true, false, small, []string{"delta", "delta", "delta", "cold"}},
		{"stale majority", true, false, majority, []string{"cold", "cold", "cold", "cold"}},
		{"stale delta off", true, true, small, []string{"cold", "cold", "cold", "cold"}},
	}
	for _, st := range states {
		for i, text := range stmts {
			label := fmt.Sprintf("%s entry, %s", st.name, text)
			db := tdb.NewMemDB()
			tbl, err := db.CreateTxTable("baskets")
			if err != nil {
				t.Fatal(err)
			}
			tbl.AppendBatch(txs)
			e := tml.NewExecutor(db)
			if st.deltaOff {
				e.Cache.DisableDelta()
			}
			if st.primed {
				if _, err := e.Exec(base); err != nil {
					t.Fatal(err)
				}
			}
			if st.write != nil {
				st.write(tbl)
			}
			res, err := e.Exec("EXPLAIN " + text)
			if err != nil {
				t.Fatal(err)
			}
			var line string
			for _, row := range res.Rows {
				if v := row[1].AsString(); row[0].AsString() == "plan" && strings.Contains(v, "-hold (") {
					line = v
				}
			}
			if _, err := e.Exec(text); err != nil {
				t.Fatal(err)
			}
			run := lastStatement(e, "baskets")
			var hold *obs.SpanNode
			for _, op := range run.Children {
				if op.Name == "op:build-hold" || op.Name == "op:cached-hold" {
					hold = op
				}
			}
			if hold == nil {
				t.Fatalf("%s: no hold span", label)
			}
			word := hold.Attrs["cache"]
			want := fmt.Sprintf("%s (cache=%s,", strings.TrimPrefix(hold.Name, "op:"), word)
			if !strings.Contains(line, want) {
				t.Fatalf("%s: EXPLAIN printed %q, the run's span is %s", label, line, want)
			}
			if word != st.want[i] {
				t.Fatalf("%s: served as %q, want %q", label, word, st.want[i])
			}
			if got := obs.Summarize([]*obs.SpanNode{run}).Cache; got != word {
				t.Fatalf("%s: the journal's outcome is %q, the hold span's %q", label, got, word)
			}
		}
	}
}
