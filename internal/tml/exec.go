package tml

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/core"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/minisql"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/plan"
	"github.com/tarm-project/tarm/internal/prune"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// Executor runs MINE statements against a database. Results are
// rendered as minisql.Result tables so the IQMS front end treats query
// and mining output uniformly.
//
// A statement executes in two steps: buildPlan compiles it into an
// operator chain (internal/plan), and plan.Execute runs the chain
// under the caller's context. EXPLAIN renders the same plan object.
type Executor struct {
	db *tdb.DB

	// Backend and Workers are applied to the mining config of every
	// statement. The CLI front ends set Workers from their -workers
	// flag and leave Backend at auto, so each build picks its own;
	// tests and ablations pin one. Zero values mean auto selection and
	// sequential counting.
	Backend apriori.Backend
	Workers int
	// Tracer, when set, receives the telemetry of every statement in
	// addition to the statement's trace (which EXPLAIN, Last and the
	// journal read). The CLI front ends install a RegistryTracer or
	// ProgressTracer here.
	Tracer obs.Tracer
	// Cache holds the HoldTables of recent statements; the four
	// temporal task drivers (periods, cycles, calendars, during) and
	// rule history share it, so an interactive session pays the
	// counting scan once per (table, granularity) and serves follow-up
	// statements at equal-or-higher support from memory. Nil disables
	// caching (every statement rebuilds). NewExecutor installs a
	// default-sized cache; front ends resize it from their -cache flag.
	Cache *core.HoldCache
	// Journal, when set, records every statement: in-flight while it
	// runs, then as a completed record (cache outcome, backends, costs,
	// per-operator wall times, counts, error) in the bounded ring. The
	// tarmd server installs one; nil disables journalling.
	Journal *obs.Journal

	mu   sync.Mutex
	last map[string]*obs.Trace // per table, most recent run
}

// NewExecutor wraps a database. The hold-table cache starts at the
// default budget; set Cache (possibly to nil) to resize or disable.
func NewExecutor(db *tdb.DB) *Executor {
	return &Executor{db: db, Cache: core.NewHoldCache(core.DefaultCacheBytes)}
}

// Exec parses and runs one TML statement.
func (e *Executor) Exec(input string) (*minisql.Result, error) {
	return e.ExecContext(context.Background(), input)
}

// ExecContext parses and runs one TML statement under a context, as
// Route does.
func (e *Executor) ExecContext(ctx context.Context, input string) (*minisql.Result, error) {
	res, _, err := e.Route(ctx, input)
	return res, err
}

// ExecStmtContext runs a parsed MINE statement under a context. The
// context reaches every layer — the hold-table build (including the
// parallel sharded and bitmap paths), cache singleflight waits and the
// task drivers — which observe it at granule-block and pass
// boundaries, so a cancelled statement returns ctx.Err() promptly
// without per-transaction overhead.
func (e *Executor) ExecStmtContext(ctx context.Context, stmt *MineStmt) (*minisql.Result, error) {
	out, err := e.run(ctx, stmt, planStatement)
	if err != nil {
		return nil, err
	}
	return out.(*minisql.Result), nil
}

// run executes stmt's plan built for mode and returns what its render
// operator returned: a *minisql.Result for a statement, a *typedRows
// for a standing refresh. Either way the statement is traced and
// journalled alike.
func (e *Executor) run(ctx context.Context, stmt *MineStmt, mode planMode) (any, error) {
	tbl, err := e.txTable(stmt.Table)
	if err != nil {
		return nil, err
	}
	// The statement's one recorder is its trace: the request's when the
	// context carries one, else a fresh one put into the context so
	// plan.Execute still copies operator details onto its spans. The
	// journal record, Last (EXPLAIN's observed rows) and -stats all read
	// it; the configured Tracer (metrics, progress) rides along on the
	// same event stream, with zero extra plumbing through the miners.
	trace := obs.TraceFromContext(ctx)
	if trace == nil {
		trace = obs.NewTrace("")
		ctx = obs.ContextWithTrace(ctx, trace)
	}
	fl := e.Journal.Begin(trace, stmt.String(), taskKey(stmt))
	tr := obs.Multi(trace, e.Tracer)
	tr.StartTask(obs.SpanStatement)
	trace.SetAttr("statement", stmt.String())
	trace.SetAttr("task", taskKey(stmt))
	trace.SetAttr("table", stmt.Table)
	tr.Counter(obs.MetricStatements, 1)
	cfg := e.config(stmt)
	cfg.Tracer = tr
	root, err := e.buildPlan(tbl, stmt, cfg, mode)
	var out any
	if err == nil {
		out, err = plan.Execute(ctx, root, tr)
	}
	tr.EndTask()
	if err != nil {
		fl.End(obs.QueryOutcome{Err: err})
		return nil, err
	}
	rows := 0
	switch out := out.(type) {
	case *minisql.Result:
		rows = len(out.Rows)
	case refreshRows:
		rows = out.size()
	}
	e.mu.Lock()
	if e.last == nil {
		e.last = make(map[string]*obs.Trace)
	}
	e.last[stmt.Table] = trace
	e.mu.Unlock()
	fl.End(obs.QueryOutcome{Rows: rows})
	return out, nil
}

// config is the mining config a statement runs under, tracer aside:
// execution adds the statement's tracer, and EXPLAIN plans with it as
// it stands, so the plan it shows is the one a run builds.
func (e *Executor) config(stmt *MineStmt) core.Config {
	return core.Config{
		Granularity:   stmt.Granularity,
		MinSupport:    stmt.Support,
		MinConfidence: stmt.Confidence,
		MinFreq:       stmt.defaultFrequency(),
		MaxK:          stmt.MaxSize,
		Backend:       e.Backend,
		Workers:       e.Workers,
	}
}

// txTable resolves the transaction table a MINE statement names; EXPLAIN
// and execution share it, so both refuse a relational table alike.
func (e *Executor) txTable(name string) (*tdb.TxTable, error) {
	if tbl, ok := e.db.TxTable(name); ok {
		return tbl, nil
	}
	if _, isRel := e.db.Table(name); isRel {
		return nil, fmt.Errorf("tml: %q is a relational table; MINE needs a transaction table", name)
	}
	return nil, fmt.Errorf("tml: no transaction table named %q", name)
}

// Last returns the trace of the most recent successful statement over
// table, or nil if none has run.
func (e *Executor) Last(table string) *obs.Trace {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.last[table]
}

// lastRun returns the span of the most recent successful statement over
// table. A front end's trace may hold several statement roots (iqms
// steps its standing statements under the statement that advanced the
// clock), so it takes the last one over table.
func (e *Executor) lastRun(table string) *obs.SpanNode {
	forest := e.Last(table).Tree()
	for i := len(forest) - 1; i >= 0; i-- {
		if n := forest[i]; n.Name == obs.SpanStatement && n.Attrs["table"] == table {
			return n
		}
	}
	return nil
}

// parseRuleSpec resolves "a, b => c" against the dictionary.
func (e *Executor) parseRuleSpec(spec string) (ante, cons itemset.Set, err error) {
	parts := strings.Split(spec, "=>")
	if len(parts) != 2 {
		return nil, nil, fmt.Errorf("tml: rule %q must have exactly one '=>'", spec)
	}
	side := func(s string) (itemset.Set, error) {
		var items []itemset.Item
		for _, name := range strings.Split(s, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			id, ok := e.db.Dict().Lookup(name)
			if !ok {
				return nil, fmt.Errorf("tml: unknown item %q", name)
			}
			items = append(items, id)
		}
		if len(items) == 0 {
			return nil, fmt.Errorf("tml: rule side %q has no items", s)
		}
		return itemset.New(items...), nil
	}
	if ante, err = side(parts[0]); err != nil {
		return nil, nil, err
	}
	if cons, err = side(parts[1]); err != nil {
		return nil, nil, err
	}
	if ante.Intersect(cons).Len() != 0 {
		return nil, nil, fmt.Errorf("tml: rule %q has overlapping sides", spec)
	}
	return ante, cons, nil
}

// names renders an itemset through the shared dictionary.
func (e *Executor) names(s itemset.Set) string { return e.db.Dict().Names(s) }

// limited truncates typed results to the statement's LIMIT before
// they are rendered. LIMIT 0 is a legal contract returning zero rows;
// a negative limit (possible only on a hand-built MineStmt — the parser
// rejects them) clamps to zero rather than panicking on a negative
// slice bound. The caller handles NoLimit by not limiting at all.
func limited[R any](rs []R, limit int) []R {
	return rs[:min(len(rs), max(limit, 0))]
}

// ruleCells renders a rule's four leading columns followed by extra.
func ruleCells(e *Executor, r apriori.Rule, extra ...tdb.Value) []tdb.Value {
	row := make([]tdb.Value, 0, 4+len(extra))
	row = append(row,
		tdb.Str(e.names(r.Antecedent)),
		tdb.Str(e.names(r.Consequent)),
		tdb.Float(r.Support),
		tdb.Float(r.Confidence),
	)
	return append(row, extra...)
}

// pruneOptions builds the filter options of a statement; n is the
// transaction population behind the rules' support fractions.
func pruneOptions(stmt *MineStmt, n int) (prune.Options, bool) {
	if stmt.PruneLift == 0 && stmt.PruneImprovement == 0 && stmt.PrunePValue == 0 {
		return prune.Options{}, false
	}
	return prune.Options{
		MinLift:        stmt.PruneLift,
		MinImprovement: stmt.PruneImprovement,
		MaxPValue:      stmt.PrunePValue,
		N:              n,
	}, true
}

// Explain describes what a MINE statement would do without running it:
// the canonical statement, the data span it would scan, the effective
// thresholds, and the operator plan the statement compiles to — built
// by the same buildPlan that ExecStmtContext executes, so the "plan"
// rows are the execution, including whether the hold table would come
// from cache ("cached-hold", hit or rethreshold) or a cold build
// ("build-hold"). The IQMS session surfaces it as EXPLAIN MINE.
func (e *Executor) Explain(stmt *MineStmt) (*minisql.Result, error) {
	tbl, err := e.txTable(stmt.Table)
	if err != nil {
		return nil, err
	}
	res := &minisql.Result{Cols: []string{"property", "value"}}
	add := func(k, v string) {
		res.Rows = append(res.Rows, []tdb.Value{tdb.Str(k), tdb.Str(v)})
	}
	add("statement", stmt.String())
	add("task", taskTitle(stmt))
	if stmt.Subscribe {
		add("continuous", "standing statement; re-runs at each granule close emitting rule deltas")
	}
	add("table", stmt.Table)
	// One reading serves every table row below, so they agree with each
	// other under concurrent appends.
	view, ok := tbl.Granules(stmt.Granularity)
	txs, active := 0, 0
	for _, c := range view.Counts {
		txs += c
		if c >= 1 {
			active++
		}
	}
	add("transactions", fmt.Sprint(txs))
	add("granularity", stmt.Granularity.String())
	if ok {
		span := view.Span
		add("span", timegran.FormatGranule(span.Lo, stmt.Granularity)+".."+timegran.FormatGranule(span.Hi, stmt.Granularity))
		add("granules", fmt.Sprint(span.Len()))
		add("active granules", fmt.Sprint(active))
		if stmt.During != nil {
			covered := timegran.Granules(stmt.During, stmt.Granularity, span).Count()
			add("feature granules", fmt.Sprint(covered))
		}
	} else {
		add("span", "(empty table)")
	}
	add("min support (per granule)", fmt.Sprintf("%g", stmt.Support))
	add("min confidence", fmt.Sprintf("%g", stmt.Confidence))
	add("min frequency", fmt.Sprintf("%g", stmt.defaultFrequency()))
	if root, err := e.buildPlan(tbl, stmt, e.config(stmt), planExplain); err != nil {
		add("plan", "(unavailable: "+err.Error()+")")
	} else {
		for _, line := range plan.Explain(root) {
			add("plan", line)
		}
	}
	// When a statement has already run over this table, append what that
	// run actually did, read off its span tree: per-pass counts, resolved
	// backend, operator walls, counting time, rules, wall time.
	if run := e.lastRun(stmt.Table); run != nil {
		sum := obs.Summarize([]*obs.SpanNode{run})
		add("observed: statement", run.Attrs["statement"])
		if sum.Backend != "" {
			add("observed: backend", sum.Backend)
		}
		for _, p := range sum.Passes {
			add(fmt.Sprintf("observed: pass L%d", p.Level),
				fmt.Sprintf("%d candidates (%d pruned, %d counted) → %d frequent",
					p.Generated, p.Pruned, p.Counted, p.Frequent))
		}
		for _, o := range sum.Ops {
			add("observed: "+o.Op, fmt.Sprintf("%.1fms", o.WallMS))
		}
		add("observed: counting cost (observed)", fmt.Sprintf("%.1fms", float64(sum.CountingNS)/1e6))
		add("observed: level-2 granules", fmt.Sprintf("%d vertical, %d horizontal", sum.PairVertical, sum.PairHorizontal))
		add("observed: count vectors", fmt.Sprint(sum.CountVectors))
		if sum.Floor > 0 {
			add("observed: rule candidates", fmt.Sprintf("%d formed, %d itemsets skipped below floor %d",
				sum.RuleCandidates, sum.BelowFloor, sum.Floor))
		}
		add("observed: rules emitted", fmt.Sprint(sum.Rules))
		add("observed: wall time", fmt.Sprintf("%.1fms", run.WallMS))
	}
	return res, nil
}

// Session is the IQMS front end: one entry point that routes MINE
// statements to the TML executor and everything else to the SQL
// engine, over one shared database — the query-then-mine loop of the
// paper's Figure 1.
type Session struct {
	DB  *tdb.DB
	SQL *minisql.Engine
	TML *Executor
}

// NewSession builds a session over db.
func NewSession(db *tdb.DB) *Session {
	return &Session{DB: db, SQL: minisql.NewEngine(db), TML: NewExecutor(db)}
}

// Exec runs one statement of either language. EXPLAIN MINE ... shows
// the mining plan without executing it.
func (s *Session) Exec(input string) (*minisql.Result, error) {
	return s.ExecContext(context.Background(), input)
}

// ExecContext is Exec under a context. MINE statements observe
// cancellation throughout; SQL statements and EXPLAIN are effectively
// instantaneous and run to completion. Text that is not TML goes to
// the SQL engine.
func (s *Session) ExecContext(ctx context.Context, input string) (*minisql.Result, error) {
	res, _, err := s.TML.Route(ctx, input)
	if errors.Is(err, ErrNotTML) {
		return s.SQL.Exec(input)
	}
	return res, err
}

// ErrNotTML is Route's answer to text that is not TML. What else it may
// be is the front end's call: the IQMS session hands it to SQL, tarmd
// refuses it.
var ErrNotTML = errors.New("tml: not a MINE statement")

// ErrStanding is Route's refusal of SUBSCRIBE MINE: a standing
// statement is registered with a front end, not run once.
var ErrStanding = errors.New("tml: SUBSCRIBE registers a standing statement; use \\subscribe in iqms or POST /v1/subscriptions on tarmd")

// Route is the one router of TML text: EXPLAIN [SUBSCRIBE] MINE is
// planned and described, SUBSCRIBE MINE is refused (ErrStanding), MINE
// runs under ctx, and anything else is ErrNotTML. It also returns the
// statement's task key ("traditional", "during", "periods", "cycles",
// "calendars", "history"), the label tarmd's per-task latency metrics
// use; it is empty when the text did not parse.
func (e *Executor) Route(ctx context.Context, input string) (res *minisql.Result, task string, err error) {
	explain := false
	if rest, ok := stripExplain(input); ok {
		input, explain = rest, true
	} else if !IsMineStatement(input) {
		return nil, "", ErrNotTML
	}
	stmt, err := Parse(input)
	if err != nil {
		return nil, "", err
	}
	switch {
	case explain:
		res, err = e.Explain(stmt)
	case stmt.Subscribe:
		return nil, "", ErrStanding
	default:
		res, err = e.ExecStmtContext(ctx, stmt)
	}
	return res, taskKey(stmt), err
}

// stripExplain detects "EXPLAIN MINE ..." (and the continuous form
// "EXPLAIN SUBSCRIBE MINE ...") and returns the statement part.
func stripExplain(input string) (string, bool) {
	fields := strings.Fields(input)
	if len(fields) < 2 || !strings.EqualFold(fields[0], "explain") {
		return "", false
	}
	ok := strings.EqualFold(fields[1], "mine") ||
		(len(fields) >= 3 && strings.EqualFold(fields[1], "subscribe") && strings.EqualFold(fields[2], "mine"))
	if !ok {
		return "", false
	}
	return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(input), fields[0])), true
}
