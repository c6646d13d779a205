// Package obs is the observability layer of the mining system: a
// zero-dependency tracer for the level-wise mining passes, plus a
// process-wide metrics registry published over expvar and a
// Prometheus-style text endpoint.
//
// The miners (apriori.Mine, core.BuildHoldTable, the task drivers and
// the TML executor) accept a Tracer through their configs and report
// span-style events at *pass* granularity — a handful of calls per
// mining run, never per transaction — so the instrumented hot paths
// cost nothing measurable when the tracer is Nop (guarded by
// BenchmarkTracerOverhead in internal/bench).
//
// Tracer implementations:
//
//   - NopTracer: discards everything; Enabled() is false so callers can
//     skip even the cheap stat assembly.
//   - Trace: one statement's span tree (tasks, operators and passes as
//     spans; pass statistics, counters and gauges as attributes), the
//     one per-statement recorder; the journal record, EXPLAIN's
//     observed rows and `tarmine -stats` are read off it (Summarize).
//   - ProgressTracer: human-readable per-pass lines, the payload behind
//     `tarmine -progress`.
//   - RegistryTracer: folds events into a metrics Registry, the payload
//     behind `iqms -metrics`.
//
// Multiple tracers compose with Multi.
package obs

import "time"

// PassStats describes one completed level-wise counting pass. The
// invariants every miner maintains (and the equivalence tests assert):
// Pruned + Counted == Generated, and Frequent ≤ Counted.
type PassStats struct {
	// Level is the itemset size k of the pass (1 is the initial item
	// scan).
	Level int
	// Generated is the number of candidates produced by the join before
	// the apriori subset prune (for level 1: distinct items seen).
	Generated int
	// Pruned is the number of candidates removed by the apriori prune
	// without being counted.
	Pruned int
	// Counted is the number of candidates whose support was counted.
	Counted int
	// Frequent is the number of candidates at/above the threshold
	// (for the hold table: frequent in at least one active granule).
	Frequent int
	// Rows is the number of transactions scanned by the pass.
	Rows int64
	// Backend names the counting backend that ran the pass ("scan" for
	// the level-1 item scan).
	Backend string
	// Duration is the wall time of the pass.
	Duration time.Duration
}

// Tracer receives span-style events from a mining run. Implementations
// must be safe for concurrent use: worker pools may emit counters from
// several goroutines.
type Tracer interface {
	// Enabled reports whether events are consumed at all; miners may
	// skip assembling stats when false.
	Enabled() bool
	// StartTask opens a named span ("apriori.Mine", "task:periods", …).
	// Spans nest; EndTask closes the innermost open span.
	StartTask(name string)
	// EndTask closes the innermost open span.
	EndTask()
	// StartPass marks the beginning of the level-k counting pass.
	StartPass(level int)
	// EndPass delivers the completed pass's statistics.
	EndPass(ps PassStats)
	// Counter adds delta to a named monotonic counter (e.g.
	// "rules_emitted").
	Counter(name string, delta int64)
	// Gauge sets a named point-in-time value (e.g. "granules_active").
	Gauge(name string, v float64)
}

// The task vocabulary shared by the planner, the task drivers and the
// EXPLAIN renderer: one short key per mining task, used to derive span
// names ("task:periods"), plan operator names ("mine:periods") and
// metric labels, so every layer reports the same work under the same
// word.
const (
	TaskTraditional = "traditional"
	TaskDuring      = "during"
	TaskPeriods     = "periods"
	TaskCycles      = "cycles"
	TaskCalendars   = "calendars"
	TaskHistory     = "history"
	// TaskSubscribe labels subscription-lifecycle journal records (the
	// registration of a standing statement); each refresh the statement
	// runs journals under its own mining task.
	TaskSubscribe = "subscribe"
)

// TaskSpan names the tracer span of one mining task driver, e.g.
// TaskSpan(TaskPeriods) == "task:periods".
func TaskSpan(task string) string { return "task:" + task }

// OpSpan names the tracer span of one plan operator, e.g.
// OpSpan("mine:periods") == "op:mine:periods".
func OpSpan(op string) string { return "op:" + op }

// Metric names shared by the miners, the trace reader and the registry.
const (
	MetricRulesEmitted     = "rules_emitted"     // rules a task driver returned (counter)
	MetricGranules         = "granules"          // span length of a hold-table build (gauge)
	MetricGranulesActive   = "granules_active"   // active granules of a hold-table build (gauge)
	MetricGranulesDirty    = "granules_dirty"    // dirty granules recounted by a delta maintenance (gauge)
	MetricMaintainRisers   = "maintain_risers"   // untracked itemsets a delta maintenance recovered history for (counter)
	MetricHoldCells        = "hold_cells"        // itemsets × granules retained by a hold table (gauge)
	MetricItemsetsFrequent = "itemsets_frequent" // frequent (or granule-frequent) itemsets (counter)
	MetricStatements       = "statements"        // TML statements executed (counter)

	// What a hold-table build's level-2 decision routed where, and how
	// many candidates of levels ≥ 2 it counted a vector for.
	MetricPairGranulesVertical   = "pair_granules_vertical"   // granules decided on the bitmap index (counter)
	MetricPairGranulesHorizontal = "pair_granules_horizontal" // granules decided by the triangle scan (counter)
	MetricCountVectors           = "count_vectors"            // candidates given a count vector (counter)

	// What a task operator's enumeration formed and skipped: the rule
	// candidates it handed to the task's detector, the full itemsets it
	// skipped below the task's floor, and that floor — the least number
	// of holding granules any of the task's detectors accepts.
	MetricRuleCandidates     = "rule_candidates"      // rule candidates formed (counter)
	MetricItemsetsBelowFloor = "itemsets_below_floor" // itemsets skipped below the floor (counter)
	MetricTaskFloor          = "task_floor"           // the operator's floor (gauge)

	MetricCountingObservedNS = "counting_observed_ns" // observed wall time of the counting passes in ns (gauge)

	// Hold-table cache (core.HoldCache) events.
	MetricCacheHits          = "holdcache_hits"           // exact-threshold cache hits (counter)
	MetricCacheRethresholds  = "holdcache_rethresholds"   // monotone re-threshold hits (counter)
	MetricCacheMisses        = "holdcache_misses"         // misses that triggered a build (counter)
	MetricCacheDedups        = "holdcache_dedups"         // statements that joined an in-flight build (counter)
	MetricCacheEvictions     = "holdcache_evictions"      // entries evicted for space (counter)
	MetricCacheDeltas        = "holdcache_deltas"         // stale entries refreshed by delta maintenance (counter)
	MetricCacheInvalidations = "holdcache_invalidations"  // entries dropped on table writes (counter)
	MetricCacheResidentCells = "holdcache_resident_cells" // itemsets × granules resident in the cache (gauge)
)

// NopTracer discards all events.
type NopTracer struct{}

// Nop is the shared no-op tracer; OrNop returns it for nil tracers.
var Nop Tracer = NopTracer{}

func (NopTracer) Enabled() bool         { return false }
func (NopTracer) StartTask(string)      {}
func (NopTracer) EndTask()              {}
func (NopTracer) StartPass(int)         {}
func (NopTracer) EndPass(PassStats)     {}
func (NopTracer) Counter(string, int64) {}
func (NopTracer) Gauge(string, float64) {}

// SpanObserver is an optional Tracer extension: tracers implementing
// it receive completed span durations measured by the caller (the plan
// executor times each operator itself), so multi-session sinks like
// the metrics registry can record per-span timings without keeping a
// span stack of their own.
type SpanObserver interface {
	ObserveSpan(name string, d time.Duration)
}

// ObserveSpan forwards a completed span to every tracer in t (or the
// single tracer) that implements SpanObserver. Nil and nop tracers are
// ignored.
func ObserveSpan(t Tracer, name string, d time.Duration) {
	switch v := t.(type) {
	case nil:
	case multiTracer:
		for _, m := range v {
			if o, ok := m.(SpanObserver); ok {
				o.ObserveSpan(name, d)
			}
		}
	default:
		if o, ok := v.(SpanObserver); ok {
			o.ObserveSpan(name, d)
		}
	}
}

// OrNop maps nil to the shared no-op tracer so miners can call
// unconditionally.
func OrNop(t Tracer) Tracer {
	if t == nil {
		return Nop
	}
	return t
}

// Multi fans events out to every non-nil, non-nop tracer. It returns
// Nop when nothing is left and the sole tracer unwrapped when only one
// is.
func Multi(ts ...Tracer) Tracer {
	var live []Tracer
	for _, t := range ts {
		if t == nil || !t.Enabled() {
			continue
		}
		live = append(live, t)
	}
	switch len(live) {
	case 0:
		return Nop
	case 1:
		return live[0]
	}
	return multiTracer(live)
}

type multiTracer []Tracer

func (m multiTracer) Enabled() bool { return true }
func (m multiTracer) StartTask(name string) {
	for _, t := range m {
		t.StartTask(name)
	}
}
func (m multiTracer) EndTask() {
	for _, t := range m {
		t.EndTask()
	}
}
func (m multiTracer) StartPass(level int) {
	for _, t := range m {
		t.StartPass(level)
	}
}
func (m multiTracer) EndPass(ps PassStats) {
	for _, t := range m {
		t.EndPass(ps)
	}
}
func (m multiTracer) Counter(name string, delta int64) {
	for _, t := range m {
		t.Counter(name, delta)
	}
}
func (m multiTracer) Gauge(name string, v float64) {
	for _, t := range m {
		t.Gauge(name, v)
	}
}
