package tml

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/gen"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// execTraced runs stmt under a fresh request-scoped trace and returns
// the executor, the trace and the parsed statement.
func execTraced(t *testing.T, db *tdb.DB, input string) (*Executor, *obs.Trace, *MineStmt) {
	t.Helper()
	ex := NewExecutor(db)
	stmt, err := Parse(input)
	if err != nil {
		t.Fatal(err)
	}
	trace := obs.NewTrace("")
	ctx := obs.ContextWithTrace(context.Background(), trace)
	if _, err := ex.ExecStmtContext(ctx, stmt); err != nil {
		t.Fatalf("%s: %v", input, err)
	}
	return ex, trace, stmt
}

// TestTraceSpanTreeShape: a traced statement leaves a statement root
// whose children are the plan operators in execution order, with the
// hold-table build and its counting passes nested inside the hold
// operator — the end-to-end claim of the tracing layer.
func TestTraceSpanTreeShape(t *testing.T) {
	db := fixtureDB(t)
	_, trace, _ := execTraced(t, db,
		"MINE CYCLES FROM baskets AT GRANULARITY day THRESHOLD SUPPORT 0.3 CONFIDENCE 0.6 FREQUENCY 0.8 MAX LENGTH 14 MIN REPS 2")

	forest := trace.Tree()
	if len(forest) != 1 {
		t.Fatalf("%d roots, want 1 statement root", len(forest))
	}
	root := forest[0]
	if root.Name != obs.SpanStatement {
		t.Fatalf("root = %q, want %q", root.Name, obs.SpanStatement)
	}
	for k, want := range map[string]string{"task": "cycles", "table": "baskets"} {
		if got := root.Attrs[k]; got != want {
			t.Errorf("root attr %s = %q, want %q", k, got, want)
		}
	}
	var ops []string
	for _, c := range root.Children {
		ops = append(ops, c.Name)
	}
	want := []string{"op:scan", "op:build-hold", "op:mine:cycles", "op:render"}
	if fmt.Sprint(ops) != fmt.Sprint(want) {
		t.Fatalf("operator spans = %v, want %v", ops, want)
	}
	hold := root.Children[1]
	if hold.Attrs["cache"] != "cold" {
		t.Errorf("hold attrs = %v, want cache=cold from plan detail enrichment", hold.Attrs)
	}
	build := obs.Find([]*obs.SpanNode{hold}, "core.BuildHoldTable")
	if build == nil {
		t.Fatal("no core.BuildHoldTable span under op:build-hold")
	}
	if obs.Find(build.Children, "pass:L1") == nil || obs.Find(build.Children, "pass:L2") == nil {
		t.Fatalf("build children = %+v, want pass:L1 and pass:L2", build.Children)
	}
	mine := root.Children[2]
	if obs.Find([]*obs.SpanNode{mine}, "task:cycles") == nil {
		t.Fatal("no task:cycles span under op:mine:cycles")
	}
}

// TestTraceMatchesExplainObserved is the acceptance criterion: the
// operator spans of the trace must carry exactly the wall times the
// EXPLAIN observed section reports for the same statement — both are
// the plan executor's single caller-timed measurement, rendered with
// the same %.1fms format.
func TestTraceMatchesExplainObserved(t *testing.T) {
	db := fixtureDB(t)
	ex, trace, stmt := execTraced(t, db,
		"MINE PERIODS FROM baskets AT GRANULARITY day THRESHOLD SUPPORT 0.3 CONFIDENCE 0.6 FREQUENCY 0.8 MIN LENGTH 3")

	res, err := ex.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	observed := map[string]string{} // "op:scan" -> "0.0ms"
	for _, row := range res.Rows {
		k, v := row[0].Display(), row[1].Display()
		if strings.HasPrefix(k, "observed: op:") {
			observed[strings.TrimPrefix(k, "observed: ")] = v
		}
	}
	if len(observed) == 0 {
		t.Fatal("EXPLAIN reported no observed operator rows")
	}
	forest := trace.Tree()
	for op, wantMS := range observed {
		span := obs.Find(forest, op)
		if span == nil {
			t.Errorf("operator %s in EXPLAIN but not in trace", op)
			continue
		}
		if got := fmt.Sprintf("%.1fms", span.WallMS); got != wantMS {
			t.Errorf("%s: trace %s, EXPLAIN %s — must match exactly", op, got, wantMS)
		}
	}
	// And the other direction: every op span of the trace is observed.
	root := forest[0]
	for _, c := range root.Children {
		if strings.HasPrefix(c.Name, "op:") {
			if _, ok := observed[c.Name]; !ok {
				t.Errorf("trace span %s missing from EXPLAIN observed section", c.Name)
			}
		}
	}
}

// TestAutoJournalsBitmapAcrossSupports: on the end-to-end benchmark's
// table shape scaled down (a year of days, Quest 1000 items, 200 tx/day
// for its 300–1000) a cold auto statement counts on bitmap at supports
// on both sides of 0.03–0.04, where the retired cost model flipped auto
// to roaring and ran 2–3× slower than the backend it passed over.
func TestAutoJournalsBitmapAcrossSupports(t *testing.T) {
	src, err := gen.GenerateTemporal(gen.TemporalConfig{
		Quest:        gen.QuestConfig{NItems: 1000, NPatterns: 200, AvgTxLen: 10, AvgPatLen: 4},
		Start:        time.Date(1998, 1, 1, 0, 0, 0, 0, time.UTC),
		Granularity:  timegran.Day,
		NGranules:    365,
		TxPerGranule: 200,
	}, 1998)
	if err != nil {
		t.Fatal(err)
	}
	db := tdb.NewMemDB()
	tbl, err := db.CreateTxTable("baskets")
	if err != nil {
		t.Fatal(err)
	}
	src.Each(func(tx tdb.Tx) bool {
		tbl.Append(tx.At, tx.Items)
		return true
	})
	for _, support := range []string{"0.03", "0.05"} {
		ex := NewExecutor(db) // a fresh cache: both builds are cold
		ex.Journal = obs.NewJournal(obs.JournalConfig{})
		ctx := obs.ContextWithTrace(context.Background(), obs.NewTrace("s"+support))
		stmt := "MINE PERIODS FROM baskets AT GRANULARITY day THRESHOLD SUPPORT " + support + " CONFIDENCE 0.6 FREQUENCY 0.9"
		if _, err := ex.ExecContext(ctx, stmt); err != nil {
			t.Fatal(err)
		}
		rec, _ := ex.Journal.Get("s" + support)
		if rec == nil || rec.Cache != "cold" || rec.Backend != "bitmap" {
			t.Errorf("support %s: journal record %+v, want a cold build on bitmap", support, rec)
		}
	}
}

// TestExecutorJournal: with a journal installed, a statement leaves a
// complete record — cache outcome transitions cold → hit on repeat,
// backends, operator wall times, row and rule counts, span tree.
func TestExecutorJournal(t *testing.T) {
	db := fixtureDB(t)
	ex := NewExecutor(db)
	ex.Journal = obs.NewJournal(obs.JournalConfig{})
	input := "MINE CYCLES FROM baskets AT GRANULARITY day THRESHOLD SUPPORT 0.3 CONFIDENCE 0.6 FREQUENCY 0.8 MAX LENGTH 14 MIN REPS 2"
	stmt, err := Parse(input)
	if err != nil {
		t.Fatal(err)
	}
	run := func(id string) *obs.QueryRecord {
		ctx := obs.ContextWithTrace(context.Background(), obs.NewTrace(id))
		res, err := ex.ExecStmtContext(ctx, stmt)
		if err != nil {
			t.Fatal(err)
		}
		rec, _ := ex.Journal.Get(id)
		if rec == nil {
			t.Fatalf("no journal record for %s", id)
		}
		if rec.Rows != len(res.Rows) {
			t.Errorf("record rows = %d, result rows = %d", rec.Rows, len(res.Rows))
		}
		return rec
	}

	cold := run("run-cold")
	if cold.Cache != "cold" {
		t.Errorf("first run cache = %q, want cold", cold.Cache)
	}
	if cold.Task != "cycles" || !strings.Contains(cold.Statement, "MINE CYCLES") {
		t.Errorf("record statement/task = %q/%q", cold.Statement, cold.Task)
	}
	if cold.Backend != "bitmap" {
		t.Errorf("backend = %q, want bitmap (auto over 280 rows)", cold.Backend)
	}
	line, err := json.Marshal(cold)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	for k := range keys {
		if strings.HasPrefix(k, "predicted") {
			t.Errorf("journal record has key %q: the journal holds observations only", k)
		}
	}
	if cold.Itemsets <= 0 {
		t.Errorf("itemsets = %d, want > 0", cold.Itemsets)
	}
	var opNames []string
	for _, o := range cold.Ops {
		opNames = append(opNames, o.Op)
	}
	if want := "[op:scan op:build-hold op:mine:cycles op:render]"; fmt.Sprint(opNames) != want {
		t.Errorf("ops = %v, want %s", opNames, want)
	}
	if len(cold.Spans) == 0 {
		t.Error("record has no span tree")
	}

	warm := run("run-warm")
	if warm.Cache != "hit" {
		t.Errorf("second run cache = %q, want hit", warm.Cache)
	}
	if warm.CountingMS != 0 {
		t.Errorf("cache-served counting = %v ms, want 0", warm.CountingMS)
	}

	// A parse-level failure still completes the journal entry.
	bad := &MineStmt{Target: TargetHistory, Table: "baskets", RuleSpec: "nope", Support: 0.3, Confidence: 0.6, Granularity: stmt.Granularity, Limit: NoLimit}
	ctx := obs.ContextWithTrace(context.Background(), obs.NewTrace("run-bad"))
	if _, err := ex.ExecStmtContext(ctx, bad); err == nil {
		t.Fatal("bad rule spec succeeded")
	}
	rec, _ := ex.Journal.Get("run-bad")
	if rec == nil || rec.Error == "" {
		t.Fatalf("failed statement record = %+v, want an error entry", rec)
	}
	if len(ex.Journal.InFlight()) != 0 {
		t.Fatal("statements left in flight")
	}
}

// TestUntracedStatementUnchanged: without a trace in the context and
// without a journal, the executor records the statement under a trace
// of its own — one statement root, counted once — and Last serves it.
func TestUntracedStatementUnchanged(t *testing.T) {
	db := fixtureDB(t)
	ex := NewExecutor(db)
	stmt, err := Parse("MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.6")
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.ExecStmtContext(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rules")
	}
	tr := ex.Last("baskets")
	if forest := tr.Tree(); len(forest) != 1 || forest[0].Name != obs.SpanStatement ||
		forest[0].Attrs[obs.MetricStatements] != "1" || tr.ID() == "" {
		t.Fatalf("Last trace %q = %+v, want one statement root counted once", tr.ID(), forest)
	}
}
