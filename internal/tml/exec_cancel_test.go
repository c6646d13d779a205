package tml

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/tarm-project/tarm/internal/minisql"
	"github.com/tarm-project/tarm/internal/obs"
)

// cancelTracer fires a context cancel after the build's n-th counting
// pass, cancelling a statement deterministically mid-build.
type cancelTracer struct {
	cancel context.CancelFunc
	after  int
	seen   int
}

func (t *cancelTracer) Enabled() bool         { return true }
func (t *cancelTracer) StartTask(string)      {}
func (t *cancelTracer) EndTask()              {}
func (t *cancelTracer) StartPass(int)         {}
func (t *cancelTracer) Counter(string, int64) {}
func (t *cancelTracer) Gauge(string, float64) {}
func (t *cancelTracer) EndPass(obs.PassStats) {
	t.seen++
	if t.seen == t.after {
		t.cancel()
	}
}

// The five MINE statement forms, one per mining task.
var cancelStmts = map[string]string{
	"rules":     `MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7`,
	"during":    `MINE RULES FROM baskets DURING 'weekday in (sat, sun)' THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7`,
	"periods":   `MINE PERIODS FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7 FREQUENCY 1.0`,
	"cycles":    `MINE CYCLES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7`,
	"calendars": `MINE CALENDARS FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7`,
	"history":   `MINE HISTORY FROM baskets RULE 'bread => milk' THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7`,
}

// TestExecCancelledStatements: an already-cancelled context makes every
// statement form return context.Canceled without a result.
func TestExecCancelledStatements(t *testing.T) {
	db := fixtureDB(t)
	ex := NewExecutor(db)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, stmt := range cancelStmts {
		res, err := ex.ExecContext(ctx, stmt)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if res != nil {
			t.Errorf("%s: got a result from a cancelled statement", name)
		}
	}
}

// TestExecCancelMidBuild: a statement cancelled while its hold table is
// building (after the first counting pass) returns context.Canceled
// from every task driver.
func TestExecCancelMidBuild(t *testing.T) {
	for name, stmt := range cancelStmts {
		t.Run(name, func(t *testing.T) {
			db := fixtureDB(t)
			ex := NewExecutor(db)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ex.Tracer = &cancelTracer{cancel: cancel, after: 1}
			_, err := ex.ExecContext(ctx, stmt)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}

// TestSessionExecContextCancelled: cancellation reaches MINE statements
// through the session router too.
func TestSessionExecContextCancelled(t *testing.T) {
	db := fixtureDB(t)
	s := NewSession(db)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ExecContext(ctx, cancelStmts["periods"]); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// SQL statements are instantaneous and uncancellable by design.
	if _, err := s.Exec(`SELECT COUNT(*) FROM baskets`); err != nil {
		t.Fatalf("session SQL after cancelled MINE: %v", err)
	}
}

// TestLimitZero: LIMIT 0 parses and returns an empty, well-formed
// result — the columns survive, the rows don't.
func TestLimitZero(t *testing.T) {
	stmt, err := Parse(`MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7 LIMIT 0`)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Limit != 0 {
		t.Fatalf("Limit = %d, want 0", stmt.Limit)
	}
	db := fixtureDB(t)
	ex := NewExecutor(db)
	res, err := ex.ExecStmtContext(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("LIMIT 0 returned %d rows", len(res.Rows))
	}
	if len(res.Cols) != 4 {
		t.Fatalf("LIMIT 0 lost the columns: %v", res.Cols)
	}
}

// TestLimitNegativeClamps: a hand-built statement with a negative
// non-sentinel limit (the parser rejects these, but ExecStmtContext accepts
// arbitrary MineStmt values) clamps to zero instead of panicking.
func TestLimitNegativeClamps(t *testing.T) {
	stmt, err := Parse(`MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7`)
	if err != nil {
		t.Fatal(err)
	}
	stmt.Limit = -5
	db := fixtureDB(t)
	ex := NewExecutor(db)
	res, err := ex.ExecStmtContext(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("negative limit returned %d rows, want 0", len(res.Rows))
	}
}

func TestParseRejectsNegativeLimit(t *testing.T) {
	if _, err := Parse(`MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7 LIMIT -1`); err == nil {
		t.Fatal("parser accepted a negative LIMIT")
	}
}

// planLines extracts the "plan" rows of an EXPLAIN result in order.
func planLines(t *testing.T, ex *Executor, stmtSrc string) []string {
	t.Helper()
	stmt, err := Parse(stmtSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, row := range res.Rows {
		if row[0].AsString() == "plan" {
			lines = append(lines, row[1].AsString())
		}
	}
	return lines
}

// TestExplainPlanColdThenCached: on a fresh executor EXPLAIN shows a
// cold build-hold; after the statement runs once, the same EXPLAIN
// shows the hold table coming from cache.
func TestExplainPlanColdThenCached(t *testing.T) {
	db := fixtureDB(t)
	ex := NewExecutor(db)
	const stmt = `MINE PERIODS FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7 FREQUENCY 1.0 LIMIT 10`

	cold := planLines(t, ex, stmt)
	joined := strings.Join(cold, "\n")
	for _, want := range []string{"limit (n=10)", "render (", "mine:periods", "build-hold (cache=cold", "scan (table=baskets"} {
		if !strings.Contains(joined, want) {
			t.Errorf("cold plan missing %q:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, "cached-hold") {
		t.Errorf("cold plan claims a cache hit:\n%s", joined)
	}

	if _, err := ex.Exec(stmt); err != nil {
		t.Fatal(err)
	}
	warm := strings.Join(planLines(t, ex, stmt), "\n")
	if !strings.Contains(warm, "cached-hold (cache=hit") {
		t.Errorf("warm plan not served from cache:\n%s", warm)
	}
	if strings.Contains(warm, "build-hold") {
		t.Errorf("warm plan still cold:\n%s", warm)
	}
}

// TestExplainPlanRethreshold: a statement at higher support than the
// resident build is served by monotone re-thresholding, and the plan
// says so.
func TestExplainPlanRethreshold(t *testing.T) {
	db := fixtureDB(t)
	ex := NewExecutor(db)
	if _, err := ex.Exec(`MINE PERIODS FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7 FREQUENCY 1.0`); err != nil {
		t.Fatal(err)
	}
	warm := strings.Join(planLines(t, ex,
		`MINE PERIODS FROM baskets THRESHOLD SUPPORT 0.6 CONFIDENCE 0.7 FREQUENCY 1.0`), "\n")
	if !strings.Contains(warm, "cached-hold (cache=rethreshold") {
		t.Errorf("plan does not show the re-threshold path:\n%s", warm)
	}
}

// TestExplainPlanTraditional: traditional rules mine the table
// directly — no hold operator in the plan.
func TestExplainPlanTraditional(t *testing.T) {
	db := fixtureDB(t)
	ex := NewExecutor(db)
	lines := planLines(t, ex, `MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7`)
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"mine:traditional", "scan (table=baskets"} {
		if !strings.Contains(joined, want) {
			t.Errorf("plan missing %q:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, "hold") {
		t.Errorf("traditional plan should not build a hold table:\n%s", joined)
	}
}

// TestExplainPlanDuringPrune: PRUNE adds a prune operator between the
// mine and render stages.
func TestExplainPlanDuringPrune(t *testing.T) {
	db := fixtureDB(t)
	ex := NewExecutor(db)
	lines := planLines(t, ex,
		`MINE RULES FROM baskets DURING 'weekday in (sat, sun)' THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7 PRUNE LIFT 1.1`)
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"mine:during", "prune (", "lift=1.1"} {
		if !strings.Contains(joined, want) {
			t.Errorf("plan missing %q:\n%s", want, joined)
		}
	}
}

// TestExecMatchesExplainPlan: the op spans observed during execution
// are exactly the operators the plan printed — EXPLAIN and execution
// come from one plan object.
func TestExecMatchesExplainPlan(t *testing.T) {
	db := fixtureDB(t)
	ex := NewExecutor(db)
	const stmt = `MINE PERIODS FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7 FREQUENCY 1.0 LIMIT 10`
	// Capture the plan before running: executing warms the cache, which
	// would legitimately change the hold operator of a later EXPLAIN.
	lines := planLines(t, ex, stmt)
	if _, err := ex.Exec(stmt); err != nil {
		t.Fatal(err)
	}
	tr := ex.Last("baskets")
	if tr == nil {
		t.Fatal("no trace recorded")
	}
	var ops []string
	for _, o := range obs.Summarize(tr.Tree()).Ops {
		ops = append(ops, strings.TrimPrefix(o.Op, "op:"))
	}
	if len(ops) != len(lines) {
		t.Fatalf("executed %d operators %v but the plan has %d lines:\n%s",
			len(ops), ops, len(lines), strings.Join(lines, "\n"))
	}
	// The plan prints root first; execution runs leaf first.
	for i, line := range lines {
		op := ops[len(ops)-1-i]
		if !strings.Contains(line, op) {
			t.Errorf("plan line %q does not match executed operator %q", line, op)
		}
	}
}

// explainRows re-parses an EXPLAIN result into key → value lines.
func explainRows(t *testing.T, ex *Executor, stmtSrc string) map[string][]string {
	t.Helper()
	stmt, err := Parse(stmtSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Explain(stmt)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]string{}
	for _, row := range res.Rows {
		k := row[0].AsString()
		out[k] = append(out[k], row[1].AsString())
	}
	return out
}

// TestExplainCountingCost: a MINE plan names the configured backend and
// predicts nothing — auto is a rule resolved where counting starts, so
// there is no second opinion to print — and once the statement has run
// EXPLAIN reports the backend that counted, the observed counting cost,
// and how the level-2 decision routed and how many vectors it counted,
// including the explicit zeros of a cache-served run.
func TestExplainCountingCost(t *testing.T) {
	db := fixtureDB(t)
	ex := NewExecutor(db)
	const stmt = `MINE PERIODS FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7 FREQUENCY 1.0 LIMIT 10`

	plan := strings.Join(planLines(t, ex, stmt), "\n")
	if !strings.Contains(plan, "backend=auto") {
		t.Errorf("cold plan does not name the configured backend:\n%s", plan)
	}
	if strings.Contains(plan, "predicted") {
		t.Errorf("cold plan carries a prediction:\n%s", plan)
	}

	if _, err := ex.Exec(stmt); err != nil {
		t.Fatal(err)
	}
	rows := explainRows(t, ex, stmt)
	for k := range rows {
		if strings.Contains(k, "predicted") {
			t.Errorf("EXPLAIN row %q: nothing is predicted", k)
		}
	}
	if v := rows["observed: backend"]; len(v) != 1 || v[0] != "bitmap" {
		t.Errorf("observed backend line = %q, want bitmap (280 rows, auto)", v)
	}
	if v := rows["observed: counting cost (observed)"]; len(v) != 1 || !strings.HasSuffix(v[0], "ms") {
		t.Errorf("observed counting cost line = %q", v)
	}
	// The fixture's days have a handful of locally frequent items each,
	// so the flat bitmap decides every day's pairs on the index.
	if v := rows["observed: level-2 granules"]; len(v) != 1 || !strings.HasSuffix(v[0], " vertical, 0 horizontal") || strings.HasPrefix(v[0], "0 ") {
		t.Errorf("observed level-2 granules line = %q, want every active day vertical", v)
	}
	if v := rows["observed: count vectors"]; len(v) != 1 || v[0] == "0" {
		t.Errorf("observed count vectors line = %q, want the survivors' vectors", v)
	}

	// A second run is served from the hold-table cache and does no
	// counting; the observed line must still appear, reporting 0.
	if _, err := ex.Exec(stmt); err != nil {
		t.Fatal(err)
	}
	rows = explainRows(t, ex, stmt)
	if v := rows["observed: counting cost (observed)"]; len(v) != 1 || v[0] != "0.0ms" {
		t.Errorf("cache-served observed counting cost = %q, want 0.0ms", v)
	}
	if v := rows["observed: count vectors"]; len(v) != 1 || v[0] != "0" {
		t.Errorf("cache-served observed count vectors = %q, want 0", v)
	}
}

// TestExplainPlanLimitBeforeRender: LIMIT sits between mine (or prune)
// and render, so it cuts typed rules and only the rows that leave are
// rendered.
func TestExplainPlanLimitBeforeRender(t *testing.T) {
	db := fixtureDB(t)
	ex := NewExecutor(db)
	for stmt, order := range map[string][]string{
		`MINE PERIODS FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7 LIMIT 3`:                      {"render", "limit", "mine:periods", "build-hold", "scan"},
		`MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7 PRUNE LIFT 1.1 LIMIT 3`:         {"render", "limit", "prune", "mine:traditional", "scan"},
		`MINE HISTORY FROM baskets RULE 'bread => milk' THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7 LIMIT 0`: {"render", "limit", "mine:history", "build-hold", "scan"},
		`MINE CYCLES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7`:                               {"render", "mine:cycles", "build-hold", "scan"},
	} {
		lines := planLines(t, ex, stmt)
		if len(lines) != len(order) {
			t.Fatalf("%s: plan has %d operators, want %v:\n%s", stmt, len(lines), order, strings.Join(lines, "\n"))
		}
		for i, op := range order {
			if !strings.Contains(lines[i], op) {
				t.Errorf("%s: plan line %d %q, want operator %q", stmt, i, lines[i], op)
			}
		}
	}
}

// TestLimitIsAPrefixOfTheAnswer: a LIMIT n answer is the first n rows of
// the unlimited one, byte for byte in the text table — with and without
// PRUNE, at LIMIT 0, past the end, and through a SUBSCRIBE snapshot.
func TestLimitIsAPrefixOfTheAnswer(t *testing.T) {
	db := fixtureDB(t)
	ex := NewExecutor(db)
	text := func(res *minisql.Result) string {
		var b strings.Builder
		minisql.Format(&b, res)
		return b.String()
	}
	for _, base := range []string{
		`MINE RULES FROM baskets THRESHOLD SUPPORT 0.3 CONFIDENCE 0.5`,
		`MINE RULES FROM baskets THRESHOLD SUPPORT 0.2 CONFIDENCE 0.5 PRUNE LIFT 1.01`,
		`MINE RULES FROM baskets DURING 'weekday in (sat, sun)' THRESHOLD SUPPORT 0.3 CONFIDENCE 0.5 PRUNE LIFT 1.01`,
		`MINE PERIODS FROM baskets THRESHOLD SUPPORT 0.3 CONFIDENCE 0.5 FREQUENCY 0.8`,
		`MINE CALENDARS FROM baskets THRESHOLD SUPPORT 0.3 CONFIDENCE 0.5 FREQUENCY 0.9`,
		`MINE HISTORY FROM baskets RULE 'bread => milk' THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7`,
	} {
		full, err := ex.Exec(base)
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Rows) < 2 {
			t.Fatalf("%s: %d rows; the fixture should give a prefix to cut", base, len(full.Rows))
		}
		for _, n := range []int{0, 1, len(full.Rows) - 1, len(full.Rows) + 5} {
			stmt := fmt.Sprintf("%s LIMIT %d", base, n)
			got, err := ex.Exec(stmt)
			if err != nil {
				t.Fatal(err)
			}
			want := &minisql.Result{Cols: full.Cols, Rows: full.Rows[:min(n, len(full.Rows))]}
			if text(got) != text(want) {
				t.Errorf("%s:\n%s\nwant\n%s", stmt, text(got), text(want))
			}
		}
	}

	stmt, err := Parse(`SUBSCRIBE MINE PERIODS FROM baskets THRESHOLD SUPPORT 0.3 CONFIDENCE 0.5 FREQUENCY 0.8 LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStanding(ex, stmt)
	if err != nil {
		t.Fatal(err)
	}
	upd, err := st.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	full, err := ex.Exec(`MINE PERIODS FROM baskets THRESHOLD SUPPORT 0.3 CONFIDENCE 0.5 FREQUENCY 0.8`)
	if err != nil {
		t.Fatal(err)
	}
	var fold RuleSet
	if err := fold.Apply(upd.Deltas); err != nil {
		t.Fatal(err)
	}
	want := (&RuleSet{Rows: KeyRows(full.Cols, DisplayCells(&minisql.Result{Cols: full.Cols, Rows: full.Rows[:2]}))}).Sorted()
	if got := fold.Sorted(); !reflect.DeepEqual(got, want) {
		t.Errorf("SUBSCRIBE … LIMIT 2 snapshot = %v, want %v", got, want)
	}
}
