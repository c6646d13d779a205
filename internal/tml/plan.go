package tml

import (
	"context"
	"fmt"
	"strings"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/core"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/plan"
	"github.com/tarm-project/tarm/internal/prune"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// taskKey maps a statement to its obs task vocabulary key — the single
// name shared by the mining operator ("mine:<key>"), the task tracer
// span ("task:<key>") and telemetry labels. The empty string means an
// unknown target.
func taskKey(stmt *MineStmt) string {
	switch stmt.Target {
	case TargetRules:
		if stmt.During == nil {
			return obs.TaskTraditional
		}
		return obs.TaskDuring
	case TargetPeriods:
		return obs.TaskPeriods
	case TargetCycles:
		return obs.TaskCycles
	case TargetCalendars:
		return obs.TaskCalendars
	case TargetHistory:
		return obs.TaskHistory
	default:
		return ""
	}
}

// taskTitles spells the task keys out for EXPLAIN's "task" row.
var taskTitles = map[string]string{
	obs.TaskTraditional: "traditional association rules (baseline)",
	obs.TaskDuring:      "Task III: rules during a temporal feature",
	obs.TaskPeriods:     "Task I: valid period discovery",
	obs.TaskCycles:      "Task II: cyclic periodicity discovery",
	obs.TaskCalendars:   "Task II: calendar periodicity discovery",
}

// taskTitle is the human task name of a statement.
func taskTitle(stmt *MineStmt) string {
	if t, ok := taskTitles[taskKey(stmt)]; ok {
		return t
	}
	return stmt.Target.String()
}

// buildPlan compiles a MINE statement into its operator chain:
//
//	scan → [cached-hold | build-hold] → mine:<task> → [prune] → [limit] → render
//
// LIMIT cuts the typed rules before render, so rows that never leave
// are never rendered.
// The same plan object serves ExecStmtContext (via plan.Execute) and
// Explain (via plan.Explain), so the rendered tree is the execution by
// construction. Building a plan runs nothing and is cheap: the only
// work is the cache's decision (holdNode) and the table's span lookup.
// The traditional task has no hold acquisition (Apriori mines the flat
// transaction set); HISTORY resolves its rule spec here, so a bad rule
// fails at plan time. mode says what the plan is for: a statement's
// render materialises its table, a standing refresh's hands back the
// typed rules, and a plan that is only printed annotates its scope
// (see holdNode).
func (e *Executor) buildPlan(tbl *tdb.TxTable, stmt *MineStmt, cfg core.Config, mode planMode) (*plan.Node, error) {
	explain := mode == planExplain
	key := taskKey(stmt)
	if key == "" {
		return nil, fmt.Errorf("tml: unknown target %v", stmt.Target)
	}

	scan := &plan.Node{
		Op:  plan.OpScan,
		Run: func(ctx context.Context, _ any) (any, error) { return tbl, nil },
	}
	scan.With("table", stmt.Table).
		With("transactions", fmt.Sprint(tbl.Len())).
		With("granularity", stmt.Granularity.String())
	if span, ok := tbl.Span(stmt.Granularity); ok {
		scan.With("span", timegran.FormatGranule(span.Lo, stmt.Granularity)+".."+
			timegran.FormatGranule(span.Hi, stmt.Granularity))
	}

	var root *plan.Node
	switch key {
	case obs.TaskTraditional:
		mine := &plan.Node{Op: plan.MineOp(key), Input: scan, Run: func(ctx context.Context, in any) (any, error) {
			return core.MineTraditionalContext(ctx, in.(*tdb.TxTable), cfg)
		}}
		mine.With("support", fmt.Sprintf("%g", stmt.Support)).
			With("confidence", fmt.Sprintf("%g", stmt.Confidence)).
			With("backend", e.Backend.String()).
			With("workers", fmt.Sprint(e.Workers))
		if stmt.MaxSize > 0 {
			mine.With("max_size", fmt.Sprint(stmt.MaxSize))
		}
		root = mine
		if opt, ok := pruneOptions(stmt, tbl.Len()); ok {
			root = pruneDetails(stmt, &plan.Node{Op: plan.OpPrune, Input: root, Run: func(ctx context.Context, in any) (any, error) {
				rules, _, err := prune.Filter(in.([]apriori.Rule), opt)
				return rules, err
			}})
		}
		root = render(stmt, mode, root, typedRows[apriori.Rule]{
			columns:      []string{"antecedent", "consequent", "support", "confidence"},
			row:          func(r apriori.Rule) []tdb.Value { return ruleCells(e, r) },
			cmp:          apriori.Rule.Compare,
			sameMeasures: sameRuleMeasures,
		})

	case obs.TaskDuring:
		cfg.Scope = core.DuringScope(stmt.During)
		hold := e.holdNode(tbl, cfg, scan, explain)
		mine := &plan.Node{Op: plan.MineOp(key), Input: hold, Run: func(ctx context.Context, in any) (any, error) {
			return core.MineDuringFromTableContext(ctx, in.(*core.HoldTable), stmt.During)
		}}
		mine.With("during", stmt.DuringSrc).
			With("frequency", fmt.Sprintf("%g", stmt.defaultFrequency()))
		floorDetail(mine, tbl, cfg, explain)
		root = mine
		if opt, ok := pruneOptions(stmt, 0); ok {
			root = pruneDetails(stmt, &plan.Node{Op: plan.OpPrune, Input: root, Run: func(ctx context.Context, in any) (any, error) {
				return pruneTemporal(in.([]core.TemporalRule), opt)
			}})
		}
		root = render(stmt, mode, root, typedRows[core.TemporalRule]{
			columns: []string{"antecedent", "consequent", "support", "confidence", "frequency", "during"},
			row: func(r core.TemporalRule) []tdb.Value {
				return ruleCells(e, r.Rule, tdb.Float(r.Freq), tdb.Str(stmt.DuringSrc))
			},
			cmp:          core.TemporalRule.Compare,
			sameMeasures: sameTemporalMeasures,
		})

	case obs.TaskPeriods:
		pcfg := core.PeriodConfig{MinLen: stmt.MinLength}
		cfg.Scope = core.PeriodsScope(pcfg)
		hold := e.holdNode(tbl, cfg, scan, explain)
		mine := &plan.Node{Op: plan.MineOp(key), Input: hold, Run: func(ctx context.Context, in any) (any, error) {
			return core.MineValidPeriodsFromTableContext(ctx, in.(*core.HoldTable), pcfg)
		}}
		if stmt.MinLength > 0 {
			mine.With("min_length", fmt.Sprint(stmt.MinLength))
		}
		mine.With("frequency", fmt.Sprintf("%g", stmt.defaultFrequency()))
		floorDetail(mine, tbl, cfg, explain)
		root = render(stmt, mode, mine, typedRows[core.PeriodRule]{
			columns: []string{"antecedent", "consequent", "support", "confidence", "from", "to", "frequency"},
			row: func(r core.PeriodRule) []tdb.Value {
				return ruleCells(e, r.Rule,
					tdb.Str(timegran.FormatGranule(r.Interval.Lo, r.Granularity)),
					tdb.Str(timegran.FormatGranule(r.Interval.Hi, r.Granularity)),
					tdb.Float(r.Freq),
				)
			},
			cmp: core.PeriodRule.Compare,
			sameMeasures: func(a, b core.PeriodRule) bool {
				return sameTemporalMeasures(a.TemporalRule, b.TemporalRule)
			},
		})

	case obs.TaskCycles:
		ccfg := core.CycleConfig{MaxLen: stmt.MaxLength, MinReps: stmt.MinReps}
		cfg.Scope = core.CyclesScope(ccfg)
		hold := e.holdNode(tbl, cfg, scan, explain)
		mine := &plan.Node{Op: plan.MineOp(key), Input: hold, Run: func(ctx context.Context, in any) (any, error) {
			return core.MineCyclesFromTableContext(ctx, in.(*core.HoldTable), ccfg)
		}}
		if stmt.MaxLength > 0 {
			mine.With("max_length", fmt.Sprint(stmt.MaxLength))
		}
		if stmt.MinReps > 0 {
			mine.With("min_reps", fmt.Sprint(stmt.MinReps))
		}
		mine.With("frequency", fmt.Sprintf("%g", stmt.defaultFrequency()))
		floorDetail(mine, tbl, cfg, explain)
		root = render(stmt, mode, mine, typedRows[core.CyclicRule]{
			columns: []string{"antecedent", "consequent", "support", "confidence", "cycle", "frequency"},
			row: func(r core.CyclicRule) []tdb.Value {
				return ruleCells(e, r.Rule, tdb.Str(r.Cycle.String()), tdb.Float(r.Freq))
			},
			cmp: core.CyclicRule.Compare,
			sameMeasures: func(a, b core.CyclicRule) bool {
				return sameTemporalMeasures(a.TemporalRule, b.TemporalRule)
			},
		})

	case obs.TaskCalendars:
		ccfg := core.CycleConfig{MinReps: stmt.MinReps}
		cfg.Scope = core.CalendarsScope(ccfg)
		hold := e.holdNode(tbl, cfg, scan, explain)
		mine := &plan.Node{Op: plan.MineOp(key), Input: hold, Run: func(ctx context.Context, in any) (any, error) {
			return core.MineCalendarPeriodicitiesFromTableContext(ctx, in.(*core.HoldTable), ccfg)
		}}
		if stmt.MinReps > 0 {
			mine.With("min_reps", fmt.Sprint(stmt.MinReps))
		}
		mine.With("frequency", fmt.Sprintf("%g", stmt.defaultFrequency()))
		floorDetail(mine, tbl, cfg, explain)
		root = render(stmt, mode, mine, typedRows[core.CalendarRule]{
			columns: []string{"antecedent", "consequent", "support", "confidence", "calendar", "frequency"},
			row: func(r core.CalendarRule) []tdb.Value {
				return ruleCells(e, r.Rule, tdb.Str(r.Feature.String()), tdb.Float(r.Freq))
			},
			cmp: core.CalendarRule.Compare,
			sameMeasures: func(a, b core.CalendarRule) bool {
				return sameTemporalMeasures(a.TemporalRule, b.TemporalRule)
			},
		})

	case obs.TaskHistory:
		ante, cons, err := e.parseRuleSpec(stmt.RuleSpec)
		if err != nil {
			return nil, err
		}
		// Count exactly as deep as the rule needs; a cached table built
		// deeper (or unbounded) still serves this via the coverage check.
		cfg.MaxK = ante.Union(cons).Len()
		hold := e.holdNode(tbl, cfg, scan, explain)
		mine := &plan.Node{Op: plan.MineOp(key), Input: hold, Run: func(ctx context.Context, in any) (any, error) {
			return core.RuleHistoryFromTableContext(ctx, in.(*core.HoldTable), ante, cons)
		}}
		mine.With("rule", stmt.RuleSpec)
		// HISTORY is never a standing statement (NewStanding refuses
		// it), so its rows need no identity order.
		root = render(stmt, mode, mine, typedRows[core.GranuleStat]{
			columns: []string{"granule", "transactions", "count", "support", "confidence", "holds"},
			row: func(s core.GranuleStat) []tdb.Value {
				return []tdb.Value{
					tdb.Str(timegran.FormatGranule(s.Granule, stmt.Granularity)),
					tdb.Int(int64(s.TxCount)),
					tdb.Int(int64(s.Count)),
					tdb.Float(s.Support),
					tdb.Float(s.Confidence),
					tdb.Bool(s.Holds),
				}
			},
		})
	}
	return root, nil
}

// holdNode builds the hold-acquisition operator over the cache's one
// decision (HoldCache.Acquire): it names the node "cached-hold" (hit,
// rethreshold or delta) or "build-hold" (cold, also with no cache), and
// Run executes it. cfg carries the task's scope; when the build applies
// it (no cache), the node shows its floor and, for DURING, the feature
// and the granules counted: a printed plan resolves the scope with
// core.ResolveScope, a run reports the build's own on its span.
func (e *Executor) holdNode(tbl *tdb.TxTable, cfg core.Config, input *plan.Node, explain bool) *plan.Node {
	acq := e.Cache.Acquire(tbl, cfg)
	mode := acq.Outcome()
	op := plan.OpCachedHold
	if mode == "build" {
		op = plan.OpBuildHold
		mode = "cold"
	}
	n := &plan.Node{Op: op, Input: input}
	n.With("cache", mode).
		With("support", fmt.Sprintf("%g", cfg.MinSupport)).
		With("backend", cfg.Backend.String()).
		With("workers", fmt.Sprint(cfg.Workers))
	if cfg.MaxK > 0 {
		n.With("max_size", fmt.Sprint(cfg.MaxK))
	}
	if explain && e.Cache == nil {
		if sc, ok := core.ResolveScope(tbl, cfg); ok {
			for _, kv := range scopeDetails(sc) {
				n.With(kv.Key, kv.Val)
			}
		}
	}
	n.Run = func(ctx context.Context, _ any) (any, error) {
		h, err := acq.Run(ctx)
		if err == nil {
			if sc, ok := h.ResolvedScope(); ok {
				t := obs.TraceFromContext(ctx)
				for _, kv := range scopeDetails(sc) {
					t.SetAttr(kv.Key, kv.Val)
				}
			}
		}
		return h, err
	}
	return n
}

// floorDetail shows, on a printed plan's mine:<task> node, the floor
// the task's operator enumerates at: the least number of granules an
// itemset must be frequent in for any of its rules to be reported. It
// is the floor a scoped build applies, and holds over a shared table
// too (core.ResolveScope), so a cached executor shows it as well.
func floorDetail(mine *plan.Node, tbl *tdb.TxTable, cfg core.Config, explain bool) {
	if !explain {
		return
	}
	if sc, ok := core.ResolveScope(tbl, cfg); ok {
		mine.With("floor", fmt.Sprint(sc.Floor))
	}
}

// scopeDetails is a resolved scope's EXPLAIN details, in order: the
// floor and, for DURING, the feature and the granules counted.
func scopeDetails(sc core.ScopeInfo) []plan.KV {
	kvs := []plan.KV{{Key: "floor", Val: fmt.Sprint(sc.Floor)}}
	if sc.Cover != nil {
		kvs = append(kvs,
			plan.KV{Key: "cover", Val: sc.Cover.String()},
			plan.KV{Key: "counted_granules", Val: fmt.Sprint(sc.Counted)})
	}
	return kvs
}

// planMode says what a built plan is for.
type planMode int

const (
	planStatement planMode = iota // run; render returns a *minisql.Result
	planRefresh                   // run by a standing refresh; render returns its *typedRows
	planExplain                   // only printed
)

// render ends a plan over typed results R: a limit operator when the
// statement has a LIMIT, then the render operator. shape names the
// columns, the row function and the identity and measure comparisons;
// render hands it the remaining rules. A statement's render turns each
// rule into one result row; a refresh's hands the typed rules back, so
// the refresh renders only the rules its deltas carry.
func render[R any](stmt *MineStmt, mode planMode, input *plan.Node, shape typedRows[R]) *plan.Node {
	if stmt.Limit != NoLimit {
		limit := &plan.Node{Op: plan.OpLimit, Input: input, Run: func(ctx context.Context, in any) (any, error) {
			return limited(in.([]R), stmt.Limit), nil
		}}
		input = limit.With("n", fmt.Sprint(stmt.Limit))
	}
	n := &plan.Node{Op: plan.OpRender, Input: input, Run: func(ctx context.Context, in any) (any, error) {
		rs := shape
		rs.rules = in.([]R)
		if mode == planRefresh {
			return &rs, nil
		}
		return rs.result(), nil
	}}
	return n.With("cols", strings.Join(shape.columns, ", "))
}

// pruneDetails annotates a prune node with the statement's thresholds.
func pruneDetails(stmt *MineStmt, n *plan.Node) *plan.Node {
	if stmt.PruneLift > 0 {
		n.With("lift", fmt.Sprintf("%g", stmt.PruneLift))
	}
	if stmt.PruneImprovement > 0 {
		n.With("improvement", fmt.Sprintf("%g", stmt.PruneImprovement))
	}
	if stmt.PrunePValue > 0 {
		n.With("pvalue", fmt.Sprintf("%g", stmt.PrunePValue))
	}
	return n
}

// pruneTemporal applies the interestingness filters to Task III rules.
// The population is the feature's sub-database; each rule carries its
// count and support, which reconstruct it per rule. Improvement needs
// the whole rule set, so it runs as a second pass over the survivors.
func pruneTemporal(rules []core.TemporalRule, opt prune.Options) ([]core.TemporalRule, error) {
	var kept []core.TemporalRule
	for _, r := range rules {
		n := 0
		if r.Rule.Support > 0 {
			n = int(float64(r.Rule.Count)/r.Rule.Support + 0.5)
		}
		o := opt
		o.N = n
		o.MinImprovement = 0 // needs the whole set; applied below
		out, _, err := prune.Filter([]apriori.Rule{r.Rule}, o)
		if err != nil {
			return nil, err
		}
		if len(out) == 1 {
			kept = append(kept, r)
		}
	}
	if opt.MinImprovement > 0 {
		flat := make([]apriori.Rule, len(kept))
		for i, r := range kept {
			flat[i] = r.Rule
		}
		surv, _, err := prune.Filter(flat, prune.Options{MinImprovement: opt.MinImprovement})
		if err != nil {
			return nil, err
		}
		keep := make(map[string]bool, len(surv))
		for _, r := range surv {
			keep[r.Key()] = true
		}
		var out []core.TemporalRule
		for _, r := range kept {
			if keep[r.Rule.Key()] {
				out = append(out, r)
			}
		}
		kept = out
	}
	return kept, nil
}
