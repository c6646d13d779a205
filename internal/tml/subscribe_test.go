package tml

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

func TestParseSubscribe(t *testing.T) {
	stmt, err := Parse(`SUBSCRIBE MINE PERIODS FROM baskets AT GRANULARITY day THRESHOLD SUPPORT 0.4 CONFIDENCE 0.6`)
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.Subscribe || stmt.Target != TargetPeriods {
		t.Fatalf("parsed %+v", stmt)
	}
	// Canonical rendering keeps the prefix and round-trips.
	s1 := stmt.String()
	if want := "SUBSCRIBE MINE PERIODS FROM baskets"; len(s1) < len(want) || s1[:len(want)] != want {
		t.Fatalf("String() = %q", s1)
	}
	stmt2, err := Parse(s1)
	if err != nil {
		t.Fatal(err)
	}
	if s2 := stmt2.String(); s2 != s1 {
		t.Fatalf("round trip %q != %q", s2, s1)
	}
	// HISTORY cannot subscribe.
	if _, err := Parse(`SUBSCRIBE MINE HISTORY FROM b RULE 'a => c' THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7`); err == nil {
		t.Fatal("SUBSCRIBE MINE HISTORY accepted")
	}
	// Routing predicates.
	if !IsMineStatement("SUBSCRIBE MINE RULES FROM b THRESHOLD SUPPORT .1 CONFIDENCE .5") {
		t.Error("SUBSCRIBE MINE not detected as TML")
	}
	if !IsSubscribeStatement("  subscribe   mine rules from b threshold support .1 confidence .5") {
		t.Error("IsSubscribeStatement false on a subscribe form")
	}
	if IsSubscribeStatement("MINE RULES FROM b THRESHOLD SUPPORT .1 CONFIDENCE .5") {
		t.Error("IsSubscribeStatement true on a plain MINE")
	}
	if IsMineStatement("SUBSCRIBE weather_updates") {
		t.Error("SUBSCRIBE without MINE routed to TML")
	}
}

func TestSessionRejectsSubscribe(t *testing.T) {
	db := fixtureDB(t)
	sess := NewSession(db)
	if _, err := sess.Exec(`SUBSCRIBE MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7`); err == nil {
		t.Fatal("session executed a SUBSCRIBE statement one-shot")
	}
	// EXPLAIN of the continuous form works and marks it.
	res, err := sess.Exec(`EXPLAIN SUBSCRIBE MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range res.Rows {
		if row[0].AsString() == "continuous" {
			found = true
		}
	}
	if !found {
		t.Fatal("EXPLAIN SUBSCRIBE lacks the continuous property row")
	}
}

func TestDiffFold(t *testing.T) {
	cols := []string{"antecedent", "consequent", "support", "confidence"}
	row := func(a, c, s, cf string) []string { return []string{a, c, s, cf} }
	prev := KeyRows(cols, [][]string{
		row("{a}", "{b}", "0.5", "0.8"),
		row("{c}", "{d}", "0.4", "0.7"),
		row("{e}", "{f}", "0.3", "0.6"),
	})
	cur := KeyRows(cols, [][]string{
		row("{a}", "{b}", "0.6", "0.9"), // measures moved: changed
		row("{e}", "{f}", "0.3", "0.6"), // unchanged: no delta
		row("{g}", "{h}", "0.2", "0.5"), // new: added
	})
	ds := DiffRows(prev, cur)
	kinds := make([]string, len(ds))
	for i, d := range ds {
		kinds[i] = d.Kind
	}
	// Deterministic order: removed, changed, added.
	if !reflect.DeepEqual(kinds, []string{DeltaRemoved, DeltaChanged, DeltaAdded}) {
		t.Fatalf("delta kinds = %v", kinds)
	}
	// Folding prev through the deltas reproduces cur exactly.
	fold := &RuleSet{Cols: cols, Rows: map[string][]string{}}
	for k, v := range prev {
		fold.Rows[k] = v
	}
	if err := fold.Apply(ds); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fold.Rows, cur) {
		t.Fatalf("fold = %v, want %v", fold.Rows, cur)
	}
	// Equal states diff to nothing.
	if ds := DiffRows(cur, cur); len(ds) != 0 {
		t.Fatalf("self-diff = %v", ds)
	}
	// Strict folding: a gap in the stream is an error, not silence.
	bad := &RuleSet{}
	if err := bad.Apply([]RuleDelta{{Kind: DeltaRemoved, Key: "nope"}}); err == nil {
		t.Fatal("Apply removed an unknown key without error")
	}
	if err := bad.Apply([]RuleDelta{{Kind: DeltaChanged, Key: "nope"}}); err == nil {
		t.Fatal("Apply changed an unknown key without error")
	}
}

// streamFixture is an incrementally grown variant of the 28-day
// fixture: streamDay appends one day's baskets, shifting the item mix
// across days so rule sets genuinely change (appear, disappear, move
// support) as granules close.
func streamFixture(t *testing.T) (*tdb.DB, *tdb.TxTable, func(day int)) {
	t.Helper()
	db := tdb.NewMemDB()
	tbl, err := db.CreateTxTable("baskets")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC) // a Monday
	appendDay := func(day int) {
		at := start.AddDate(0, 0, day)
		weekend := day%7 == 5 || day%7 == 6
		seasonal := day >= 2 && day <= 4
		for i := 0; i < 10; i++ {
			basket := []string{"bread"}
			if i < 8 {
				basket = append(basket, "milk")
			}
			if seasonal && i < 7 {
				basket = append(basket, "bbq", "charcoal")
			}
			if weekend && i < 9 {
				basket = append(basket, "choc", "wine")
			}
			if day >= 5 && i < 6 {
				basket = append(basket, "tea")
			}
			tbl.Append(at.Add(time.Duration(10+i)*time.Minute), db.Dict().InternAll(basket...))
		}
	}
	return db, tbl, appendDay
}

// TestStandingStep: the refresh triggers, one by one. Registration
// emits the full snapshot; open-granule appends emit nothing; a close
// refreshes; late data into a closed granule refreshes.
func TestStandingStep(t *testing.T) {
	db, tbl, appendDay := streamFixture(t)
	for d := 0; d < 3; d++ {
		appendDay(d)
	}
	ex := NewExecutor(db)
	stmt, err := Parse(`SUBSCRIBE MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.6`)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStanding(ex, stmt)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	upd, err := st.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if upd == nil || !upd.Initial || upd.Rules == 0 || len(upd.Deltas) != upd.Rules {
		t.Fatalf("registration snapshot = %+v", upd)
	}
	for _, d := range upd.Deltas {
		if d.Kind != DeltaAdded {
			t.Fatalf("snapshot delta kind %q", d.Kind)
		}
	}
	// Nothing changed: no update.
	if upd, err := st.Step(ctx); err != nil || upd != nil {
		t.Fatalf("idle Step = %+v, %v", upd, err)
	}
	// Append more rows into the newest (open) granule: still no update.
	appendDay(2)
	if upd, err := st.Step(ctx); err != nil || upd != nil {
		t.Fatalf("open-granule Step = %+v, %v", upd, err)
	}
	// A new day's data closes day 2: refresh fires and reports it.
	appendDay(3)
	upd, err = st.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if upd == nil || upd.Initial {
		t.Fatalf("close Step = %+v", upd)
	}
	wantClosed := timegran.GranuleOf(time.Date(2024, 1, 3, 0, 0, 0, 0, time.UTC), timegran.Day)
	if upd.ClosedThrough != wantClosed {
		t.Fatalf("ClosedThrough = %d, want %d", upd.ClosedThrough, wantClosed)
	}
	// Late data into a closed granule (no new close) still refreshes.
	tbl.Append(time.Date(2024, 1, 1, 8, 0, 0, 0, time.UTC), db.Dict().InternAll("bread", "milk"))
	upd, err = st.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if upd == nil {
		t.Fatal("late closed-granule append did not refresh")
	}
}

// TestStandingCloseState walks a standing statement's close detection
// through Step: the first Step takes the baseline, appends inside the
// open granule refresh nothing, a jump closes every skipped granule in
// one update, a late append never moves the closed granule back, and a
// clock exactly on a boundary closes the granule before it.
func TestStandingCloseState(t *testing.T) {
	db := tdb.NewMemDB()
	tbl, err := db.CreateTxTable("baskets")
	if err != nil {
		t.Fatal(err)
	}
	stmt, err := Parse(`SUBSCRIBE MINE RULES FROM baskets AT GRANULARITY day THRESHOLD SUPPORT 0.5 CONFIDENCE 0.6`)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStanding(NewExecutor(db), stmt)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if upd, err := st.Step(ctx); upd != nil || err != nil {
		t.Fatalf("Step over an empty table = %+v, %v", upd, err)
	}
	at := func(day, hh int) time.Time { return time.Date(2024, 1, day, hh, 0, 0, 0, time.UTC) }
	step := func(clock time.Time) *SubUpdate {
		t.Helper()
		tbl.Append(clock, db.Dict().InternAll("bread", "milk"))
		upd, err := st.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return upd
	}
	closedThrough := func(upd *SubUpdate, want timegran.Granule) {
		t.Helper()
		if upd == nil {
			t.Fatalf("no update, want one closed through %d", want)
		}
		if upd.ClosedThrough != want || upd.ClosedLabel != timegran.FormatGranule(want, timegran.Day) {
			t.Fatalf("closed through %d (%s), want %d", upd.ClosedThrough, upd.ClosedLabel, want)
		}
	}
	// Baseline: the first Step's update is closed through the day before
	// the clock, whatever the clock.
	base := timegran.GranuleOf(at(4, 0), timegran.Day)
	upd := step(at(5, 10))
	closedThrough(upd, base)
	if !upd.Initial {
		t.Fatal("the baseline update is not the registration snapshot")
	}
	// The clock moves within the open granule: no update.
	if upd := step(at(5, 23)); upd != nil {
		t.Fatalf("same-granule append emitted %+v", upd)
	}
	// The clock jumps three days: one update closes all three.
	closedThrough(step(at(8, 1)), base+3)
	// A late append lands in a closed granule: it refreshes, and the
	// closed granule stays where it was.
	closedThrough(step(at(2, 0)), base+3)
	// A clock exactly on a boundary closes the granule before it.
	closedThrough(step(at(9, 0)), base+4)
}

// TestStandingOracle is the in-process streaming differential oracle:
// an appending workload closes granules round by round while concurrent
// writers race the refreshes; at every close point the folded delta
// stream must equal a from-scratch MINE of the same statement on a
// cold executor, bit for bit, on every counting backend.
func TestStandingOracle(t *testing.T) {
	backends := []apriori.Backend{apriori.BackendNaive, apriori.BackendBitmap, apriori.BackendRoaring}
	for _, be := range backends {
		be := be
		t.Run(be.String(), func(t *testing.T) {
			t.Parallel()
			runStandingOracle(t, be)
		})
	}
}

func runStandingOracle(t *testing.T, be apriori.Backend) {
	db, tbl, appendDay := streamFixture(t)
	appendDay(0)
	ex := NewExecutor(db)
	ex.Backend = be
	src := `SUBSCRIBE MINE PERIODS FROM baskets AT GRANULARITY day THRESHOLD SUPPORT 0.45 CONFIDENCE 0.6 FREQUENCY 0.9`
	stmt, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStanding(ex, stmt)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fold := &RuleSet{}
	apply := func(upd *SubUpdate) {
		if upd == nil {
			return
		}
		fold.Cols = upd.Cols
		if err := fold.Apply(upd.Deltas); err != nil {
			t.Errorf("fold: %v", err)
		}
	}
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	for day := 1; day <= 8; day++ {
		// Concurrent writers: several goroutines blast appends into the
		// open granule (and one out-of-order writer into a closed one)
		// while a stepper goroutine races refreshes against them.
		stop := make(chan struct{})
		var stepper sync.WaitGroup
		stepper.Add(1)
		go func() {
			defer stepper.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				upd, err := st.Step(ctx)
				if err != nil {
					t.Errorf("racing Step: %v", err)
					return
				}
				apply(upd)
			}
		}()
		var writers sync.WaitGroup
		for w := 0; w < 3; w++ {
			w := w
			writers.Add(1)
			go func() {
				defer writers.Done()
				at := start.AddDate(0, 0, day-1).Add(time.Duration(120+w) * time.Minute)
				items := db.Dict().InternAll("bread", "milk")
				if w == 2 && day > 2 {
					// Out-of-order: late data into a closed granule.
					at = start.AddDate(0, 0, day-2).Add(90 * time.Minute)
					items = db.Dict().InternAll("bread", "tea")
				}
				for i := 0; i < 5; i++ {
					tbl.Append(at.Add(time.Duration(i)*time.Second), items)
				}
			}()
		}
		writers.Wait()
		close(stop)
		stepper.Wait()
		// Advance the stream clock into the next day: the previous day
		// closes. The quiesced Step refreshes at the settled epoch.
		appendDay(day)
		upd, err := st.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		apply(upd)
		if upd == nil {
			t.Fatalf("day %d: close did not refresh", day)
		}
		// Oracle: fold(emitted deltas) == cold MINE on a fresh executor.
		cold := NewExecutor(db)
		cold.Backend = be
		coldStmt := *stmt
		coldStmt.Subscribe = false
		res, err := cold.ExecStmtContext(context.Background(), &coldStmt)
		if err != nil {
			t.Fatal(err)
		}
		want := (&RuleSet{Cols: res.Cols, Rows: KeyRows(res.Cols, DisplayCells(res))}).Sorted()
		got := fold.Sorted()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("day %d: folded stream differs from cold mine\nfolded: %v\ncold:   %v", day, got, want)
		}
	}
}

// TestStandingOracleAcrossStatements folds three different standing
// statements (rules, cycles, calendars) over the same growing table.
func TestStandingOracleAcrossStatements(t *testing.T) {
	srcs := []string{
		`SUBSCRIBE MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.6`,
		`SUBSCRIBE MINE CYCLES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.6 MAX LENGTH 7 MIN REPS 2`,
		`SUBSCRIBE MINE CALENDARS FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.6 MIN REPS 2`,
	}
	db, _, appendDay := streamFixture(t)
	appendDay(0)
	ex := NewExecutor(db)
	ctx := context.Background()
	type sub struct {
		st   *Standing
		fold *RuleSet
		stmt *MineStmt
	}
	var subs []sub
	for _, src := range srcs {
		stmt, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewStanding(ex, stmt)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub{st: st, fold: &RuleSet{}, stmt: stmt})
	}
	for day := 1; day <= 9; day++ {
		appendDay(day)
		for i, s := range subs {
			upd, err := s.st.Step(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if upd != nil {
				if err := s.fold.Apply(upd.Deltas); err != nil {
					t.Fatalf("sub %d fold: %v", i, err)
				}
			}
			cold := NewExecutor(db)
			coldStmt := *s.stmt
			coldStmt.Subscribe = false
			res, err := cold.ExecStmtContext(context.Background(), &coldStmt)
			if err != nil {
				t.Fatal(err)
			}
			want := (&RuleSet{Rows: KeyRows(res.Cols, DisplayCells(res))}).Sorted()
			if got := s.fold.Sorted(); !reflect.DeepEqual(got, want) {
				t.Fatalf("day %d sub %d (%s): fold differs from cold mine\nfolded: %v\ncold:   %v",
					day, i, s.stmt.Target, got, want)
			}
		}
	}
}

// TestStandingJournal: refreshes run through the shared executor, so
// they land in the journal as SUBSCRIBE-spelled statements.
func TestStandingJournal(t *testing.T) {
	db, _, appendDay := streamFixture(t)
	appendDay(0)
	ex := NewExecutor(db)
	ex.Journal = obs.NewJournal(obs.JournalConfig{})
	stmt, err := Parse(`SUBSCRIBE MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.6`)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStanding(ex, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	recs := ex.Journal.Recent(10)
	if len(recs) == 0 {
		t.Fatal("refresh left no journal record")
	}
	found := false
	for _, r := range recs {
		if r.Statement == stmt.String() {
			found = true
		}
	}
	if !found {
		t.Fatalf("no journal record for %q: %+v", stmt.String(), recs)
	}
}
