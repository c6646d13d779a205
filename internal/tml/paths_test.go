package tml_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/bench"
	"github.com/tarm-project/tarm/internal/core"
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
