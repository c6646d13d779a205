package tml

import (
	"context"
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
	// statement; the CLI front ends set them from their -backend and
	// -workers flags. Zero values mean auto selection and sequential
	// counting.
	Backend apriori.Backend
	Workers int
	// Tracer, when set, receives the telemetry of every statement in
	// addition to the executor's own per-statement collector (whose
	// stats EXPLAIN and Last surface). The CLI front ends install a
	// RegistryTracer or ProgressTracer here.
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

	mu        sync.Mutex
	lastStats map[string]*obs.MineStats // per table, most recent run
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

// ExecContext parses and runs one TML statement under a context.
func (e *Executor) ExecContext(ctx context.Context, input string) (*minisql.Result, error) {
	stmt, err := Parse(input)
	if err != nil {
		return nil, err
	}
	return e.ExecStmtContext(ctx, stmt)
}

// ExecStmtContext runs a parsed MINE statement under a context. The
// context reaches every layer — the hold-table build (including the
// parallel sharded and bitmap paths), cache singleflight waits and the
// task drivers — which observe it at granule-block and pass
// boundaries, so a cancelled statement returns ctx.Err() promptly
// without per-transaction overhead.
func (e *Executor) ExecStmtContext(ctx context.Context, stmt *MineStmt) (*minisql.Result, error) {
	tbl, ok := e.db.TxTable(stmt.Table)
	if !ok {
		if _, isRel := e.db.Table(stmt.Table); isRel {
			return nil, fmt.Errorf("tml: %q is a relational table; MINE needs a transaction table", stmt.Table)
		}
		return nil, fmt.Errorf("tml: no transaction table named %q", stmt.Table)
	}
	// Every statement is collected so EXPLAIN can show observed stats;
	// the request-scoped trace (when the context carries one) and the
	// configured Tracer (metrics, progress) ride along on the same
	// event stream, so the span tree is built with zero extra plumbing
	// through the miners.
	trace := obs.TraceFromContext(ctx)
	fl := e.Journal.Begin(trace, stmt.String(), taskKey(stmt))
	collect := obs.NewCollectTracer()
	tr := obs.Multi(collect, trace, e.Tracer)
	tr.StartTask(obs.SpanStatement)
	trace.SetAttr("statement", stmt.String())
	trace.SetAttr("task", taskKey(stmt))
	trace.SetAttr("table", stmt.Table)
	tr.Counter(obs.MetricStatements, 1)
	cfg := core.Config{
		Granularity:   stmt.Granularity,
		MinSupport:    stmt.Support,
		MinConfidence: stmt.Confidence,
		MinFreq:       stmt.defaultFrequency(),
		MaxK:          stmt.MaxSize,
		Backend:       e.Backend,
		Workers:       e.Workers,
		Tracer:        tr,
	}
	root, err := e.buildPlan(tbl, stmt, cfg)
	if err != nil {
		tr.EndTask()
		fl.End(obs.QueryOutcome{Err: err})
		return nil, err
	}
	out, ops, err := plan.Execute(ctx, root, tr)
	tr.EndTask()
	if err != nil {
		fl.End(queryOutcome(root, collect.Stats(), ops, nil, err))
		return nil, err
	}
	res := out.(*minisql.Result)
	st := collect.Stats()
	st.Statement = stmt.String()
	if _, ok := st.Gauges[obs.MetricCountingObservedNS]; !ok {
		// A cache-served hold table runs no counting; report that
		// explicitly so EXPLAIN always carries the observed-cost line.
		if st.Gauges == nil {
			st.Gauges = make(map[string]float64)
		}
		st.Gauges[obs.MetricCountingObservedNS] = 0
	}
	e.mu.Lock()
	if e.lastStats == nil {
		e.lastStats = make(map[string]*obs.MineStats)
	}
	e.lastStats[stmt.Table] = st
	e.mu.Unlock()
	fl.End(queryOutcome(root, st, ops, res, nil))
	return res, nil
}

// queryOutcome folds a finished statement's telemetry into the shape
// the journal records: the executor is the one place that holds the
// plan, the collected stats and the per-operator timings together.
func queryOutcome(root *plan.Node, st *obs.MineStats, ops []plan.OpStat, res *minisql.Result, err error) obs.QueryOutcome {
	out := obs.QueryOutcome{Err: err}
	if st != nil {
		out.Backend = st.Backend
		out.Rules = st.Counters[obs.MetricRulesEmitted]
		out.Itemsets = st.Counters[obs.MetricItemsetsFrequent]
		if v, ok := st.Gauges[obs.MetricCountingObservedNS]; ok {
			out.CountingMS = v / 1e6
		}
		out.Cache = cacheOutcome(st, root)
	}
	for _, s := range ops {
		out.Ops = append(out.Ops, obs.OpWall{Op: obs.OpSpan(s.Op), WallMS: float64(s.Duration) / 1e6})
	}
	if res != nil {
		out.Rows = len(res.Rows)
	}
	return out
}

// cacheOutcome derives how the statement's hold table was served from
// the per-statement cache counters: "cold" (a build ran — also the
// cache-disabled path), "delta" (a stale entry was refreshed by delta
// maintenance instead of a rebuild), "dedup" (waited on a concurrent
// identical build), "rethreshold" or "hit". Statements without a hold
// operator (the traditional task) report "".
func cacheOutcome(st *obs.MineStats, root *plan.Node) string {
	hasHold := false
	for _, n := range plan.Chain(root) {
		if n.Op == plan.OpBuildHold || n.Op == plan.OpCachedHold {
			hasHold = true
		}
	}
	if !hasHold {
		return ""
	}
	switch c := st.Counters; {
	case c[obs.MetricCacheDeltas] > 0:
		return "delta"
	case c[obs.MetricCacheMisses] > 0:
		return "cold"
	case c[obs.MetricCacheDedups] > 0:
		return "dedup"
	case c[obs.MetricCacheRethresholds] > 0:
		return "rethreshold"
	case c[obs.MetricCacheHits] > 0:
		return "hit"
	default:
		return "cold"
	}
}

// Last returns the stats collected for the most recent successful
// statement over table, or nil if none has run.
func (e *Executor) Last(table string) *obs.MineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastStats[table]
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
	tbl, ok := e.db.TxTable(stmt.Table)
	if !ok {
		return nil, fmt.Errorf("tml: no transaction table named %q", stmt.Table)
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
	add("transactions", fmt.Sprint(tbl.Len()))
	add("granularity", stmt.Granularity.String())
	if span, ok := tbl.Span(stmt.Granularity); ok {
		add("span", timegran.FormatGranule(span.Lo, stmt.Granularity)+".."+timegran.FormatGranule(span.Hi, stmt.Granularity))
		add("granules", fmt.Sprint(span.Len()))
		active := 0
		for _, c := range tbl.GranuleCounts(stmt.Granularity, span) {
			if c >= 1 {
				active++
			}
		}
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
	cfg := core.Config{
		Granularity:   stmt.Granularity,
		MinSupport:    stmt.Support,
		MinConfidence: stmt.Confidence,
		MinFreq:       stmt.defaultFrequency(),
		MaxK:          stmt.MaxSize,
		Backend:       e.Backend,
		Workers:       e.Workers,
	}
	if root, err := e.buildPlan(tbl, stmt, cfg); err != nil {
		add("plan", "(unavailable: "+err.Error()+")")
	} else {
		for _, line := range plan.Explain(root) {
			add("plan", line)
		}
	}
	// When a statement has already run over this table, append what that
	// run actually did: per-pass counts, resolved backend, rules, time.
	if st := e.Last(stmt.Table); st != nil {
		add("observed: statement", st.Statement)
		if st.Backend != "" {
			add("observed: backend", st.Backend)
		}
		for _, l := range st.Levels {
			add(fmt.Sprintf("observed: pass L%d", l.Level),
				fmt.Sprintf("%d candidates (%d pruned, %d counted) → %d frequent",
					l.Generated, l.Pruned, l.Counted, l.Frequent))
		}
		for _, t := range st.Tasks {
			if strings.HasPrefix(t.Name, "op:") {
				add("observed: "+t.Name, fmt.Sprintf("%.1fms", float64(t.WallNS)/1e6))
			}
		}
		if v, ok := st.Gauges[obs.MetricCountingObservedNS]; ok {
			add("observed: counting cost (observed)", fmt.Sprintf("%.1fms", v/1e6))
		}
		if n, ok := st.Counters[obs.MetricRulesEmitted]; ok {
			add("observed: rules emitted", fmt.Sprint(n))
		}
		add("observed: wall time", fmt.Sprintf("%.1fms", float64(st.WallNS)/1e6))
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
// instantaneous and run to completion.
func (s *Session) ExecContext(ctx context.Context, input string) (*minisql.Result, error) {
	if rest, ok := stripExplain(input); ok {
		stmt, err := Parse(rest)
		if err != nil {
			return nil, err
		}
		return s.TML.Explain(stmt)
	}
	if IsSubscribeStatement(input) {
		return nil, fmt.Errorf("tml: SUBSCRIBE registers a standing statement; use \\subscribe in iqms or POST /v1/subscriptions on tarmd")
	}
	if IsMineStatement(input) {
		return s.TML.ExecContext(ctx, input)
	}
	return s.SQL.Exec(input)
}

// SplitExplain detects "EXPLAIN MINE ..." and returns the MINE part;
// front ends that route EXPLAIN themselves (the tarmd server) share
// the session's spelling through it.
func SplitExplain(input string) (string, bool) { return stripExplain(input) }

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
