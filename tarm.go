// Package tarm is the public API of the temporal association rule
// mining system, a reproduction of Chen & Petrounias, "Discovering
// Temporal Association Rules: Algorithms, Language and System"
// (ICDE 2000).
//
// The facade re-exports the stable surface of the internal packages:
//
//   - the temporal database (DB, TxTable) and its SQL engine,
//   - the calendar algebra (granularities, patterns, ParsePattern),
//   - the three temporal mining tasks and the rule-history lookup, each
//     spelled twice and only twice: the operator over a built HoldTable
//     under a context (BuildHoldTableContext, then
//     MineValidPeriodsFromTableContext, MineCyclesFromTableContext,
//     MineCalendarPeriodicitiesFromTableContext,
//     MineDuringFromTableContext, RuleHistoryFromTableContext — several
//     tasks then share one counting pass), and a one-call form that
//     builds and runs under context.Background() (MineValidPeriods,
//     MineCycles, MineCalendarPeriodicities, MineDuring, RuleHistory),
//   - the traditional Apriori baseline (MineTraditional),
//   - the TML language and the IQMS session (NewSession), and
//   - the synthetic workload generator used by the experiments.
//
// A minimal end-to-end use:
//
//	db := tarm.NewMemDB()
//	baskets, _ := db.CreateTxTable("baskets")
//	baskets.Append(time.Now(), db.Dict().InternAll("bread", "milk"))
//	...
//	rules, _ := tarm.MineValidPeriods(baskets, tarm.Config{
//	    Granularity: tarm.Day, MinSupport: 0.05,
//	    MinConfidence: 0.6, MinFreq: 0.9,
//	}, tarm.PeriodConfig{})
package tarm

import (
	"context"
	"net/http"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/core"
	"github.com/tarm-project/tarm/internal/gen"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/minisql"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/prune"
	"github.com/tarm-project/tarm/internal/server"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
	"github.com/tarm-project/tarm/internal/tml"
)

// Itemset kernel.
type (
	// Item identifies a single item.
	Item = itemset.Item
	// Itemset is a canonical (sorted, duplicate-free) set of items.
	Itemset = itemset.Set
	// Dict maps item names to identifiers and back.
	Dict = itemset.Dict
)

// NewItemset builds a canonical itemset from items in any order.
func NewItemset(items ...Item) Itemset { return itemset.New(items...) }

// NewDict returns an empty item dictionary.
func NewDict() *Dict { return itemset.NewDict() }

// Rules.
type (
	// Rule is an association rule X ⇒ Y with support/confidence/lift.
	Rule = apriori.Rule
	// TemporalRule pairs a rule with a discovered temporal feature.
	TemporalRule = core.TemporalRule
	// PeriodRule is a Task I result (rule + maximal valid period).
	PeriodRule = core.PeriodRule
	// CyclicRule is a Task II result (rule + cycle).
	CyclicRule = core.CyclicRule
	// CalendarRule is a Task II calendar-periodicity result.
	CalendarRule = core.CalendarRule
)

// Time model and calendar algebra.
type (
	// Granularity is a calendar unit (Second … Year).
	Granularity = timegran.Granularity
	// Granule is one unit of a granularity since the Unix epoch.
	Granule = timegran.Granule
	// Interval is an inclusive granule range.
	Interval = timegran.Interval
	// IntervalSet is a normalised set of granules.
	IntervalSet = timegran.IntervalSet
	// Pattern is a temporal feature: a predicate over granules.
	Pattern = timegran.Pattern
	// Cycle is the periodic pattern "every Length granules at Offset".
	Cycle = timegran.Cycle
	// Calendar is a calendar-class pattern such as "weekday in (6..7)".
	Calendar = timegran.Calendar
	// Window is an absolute time-range pattern.
	Window = timegran.Window
)

// Granularities.
const (
	Second  = timegran.Second
	Minute  = timegran.Minute
	Hour    = timegran.Hour
	Day     = timegran.Day
	Week    = timegran.Week
	Month   = timegran.Month
	Quarter = timegran.Quarter
	Year    = timegran.Year
)

// ParsePattern parses the textual calendar-algebra syntax, e.g.
// "month in (jun..aug) and weekday in (sat, sun)".
func ParsePattern(expr string) (Pattern, error) { return timegran.ParsePattern(expr) }

// ParseGranularity parses a granularity name such as "day" or "weeks".
func ParseGranularity(s string) (Granularity, error) { return timegran.ParseGranularity(s) }

// Database.
type (
	// DB is a collection of relational and transaction tables sharing
	// one item dictionary.
	DB = tdb.DB
	// TxTable is a time-partitioned transaction table.
	TxTable = tdb.TxTable
	// Tx is one timestamped transaction.
	Tx = tdb.Tx
)

// Open loads or initialises a persistent database directory under the
// WAL-backed storage engine with its default durability: every append
// is logged and fsynced before it returns, and a directory left by a
// crash is recovered on open. The caller must Close the database, which
// checkpoints it and releases the log; DB.Checkpoint does the former
// without the latter.
func Open(dir string) (*DB, error) { return tdb.OpenDurable(dir, tdb.Durability{}) }

// NewMemDB returns an in-memory database.
func NewMemDB() *DB { return tdb.NewMemDB() }

// CountingBackend selects the support-counting strategy of the miners:
// BackendAuto is the bitmap backend wherever its index fits in memory
// (roaring past 512 MiB of index), BackendBitmap is the vertical
// TID-bitmap backend, BackendRoaring its compressed-container variant
// and BackendNaive the reference subset test. Every backend
// returns the same rules; set one on Config.Backend to pin it (tests
// and ablations do), or leave BackendAuto to let each build choose. No
// CLI flag selects one.
type CountingBackend = apriori.Backend

// Counting backends.
const (
	BackendAuto    = apriori.BackendAuto
	BackendNaive   = apriori.BackendNaive
	BackendBitmap  = apriori.BackendBitmap
	BackendRoaring = apriori.BackendRoaring
)

// Mining configuration.
type (
	// Config carries the shared temporal mining thresholds.
	Config = core.Config
	// PeriodConfig tunes Task I.
	PeriodConfig = core.PeriodConfig
	// CycleConfig tunes Task II.
	CycleConfig = core.CycleConfig
	// HoldTable is the shared per-granule counting substrate; build it
	// once with BuildHoldTableContext to run several tasks over one
	// pass, and refresh it incrementally with its MaintainContext or
	// ExtendContext method as new transactions arrive.
	HoldTable = core.HoldTable
	// HoldCache is a memory-bounded LRU cache of HoldTables that serves
	// statements at equal-or-higher support from memory by
	// re-thresholding the stored count vectors; see NewHoldCache.
	HoldCache = core.HoldCache
	// CacheStats is a HoldCache counter snapshot.
	CacheStats = core.CacheStats
)

// DefaultCacheBytes is the hold-table cache budget front ends use when
// none is configured.
const DefaultCacheBytes = core.DefaultCacheBytes

// NewHoldCache returns a hold-table cache bounded to roughly maxBytes
// (maxBytes ≤ 0 returns nil, which disables caching: a nil *HoldCache
// builds directly on every GetContext).
func NewHoldCache(maxBytes int64) *HoldCache { return core.NewHoldCache(maxBytes) }

// BuildHoldTableContext runs the shared counting pass; the
// *FromTableContext operators below run any task over the result without
// rescanning. The build observes cancellation at granule-block and pass
// boundaries, so a cancelled caller gets ctx.Err() promptly without
// per-transaction overhead.
func BuildHoldTableContext(ctx context.Context, tbl *TxTable, cfg Config) (*HoldTable, error) {
	return core.BuildHoldTableContext(ctx, tbl, cfg)
}

// The five task operators: each runs one task over a built HoldTable
// under a context. Build once, run several — the tasks then share one
// counting pass.

// MineValidPeriodsFromTableContext is Task I: rules with their maximal
// valid periods.
func MineValidPeriodsFromTableContext(ctx context.Context, h *HoldTable, pcfg PeriodConfig) ([]PeriodRule, error) {
	return core.MineValidPeriodsFromTableContext(ctx, h, pcfg)
}

// MineCyclesFromTableContext is the arithmetic half of Task II: rules
// with the cycles they obey.
func MineCyclesFromTableContext(ctx context.Context, h *HoldTable, ccfg CycleConfig) ([]CyclicRule, error) {
	return core.MineCyclesFromTableContext(ctx, h, ccfg)
}

// MineCalendarPeriodicitiesFromTableContext is the calendar half of
// Task II: rules with calendar-class features such as
// "weekday in (6..7)".
func MineCalendarPeriodicitiesFromTableContext(ctx context.Context, h *HoldTable, ccfg CycleConfig) ([]CalendarRule, error) {
	return core.MineCalendarPeriodicitiesFromTableContext(ctx, h, ccfg)
}

// MineDuringFromTableContext is Task III: rules that hold during the
// given temporal feature.
func MineDuringFromTableContext(ctx context.Context, h *HoldTable, feature Pattern) ([]TemporalRule, error) {
	return core.MineDuringFromTableContext(ctx, h, feature)
}

// RuleHistoryFromTableContext returns the per-granule
// support/confidence series of one rule — the result-analysis companion
// to the discovery tasks. The table must count at least
// len(ante ∪ cons)-itemsets (MaxK 0 or ≥ it).
func RuleHistoryFromTableContext(ctx context.Context, h *HoldTable, ante, cons Itemset) ([]GranuleStat, error) {
	return core.RuleHistoryFromTableContext(ctx, h, ante, cons)
}

// oneCall is the one-call sugar: a cold build of tbl's hold table under
// context.Background(), scoped to the one operator that then runs over
// it (core.Scope: the build keeps only what that task can report).
func oneCall[P, R any](tbl *TxTable, cfg Config, scope core.Scope, op func(context.Context, *HoldTable, P) (R, error), param P) (R, error) {
	ctx := context.Background()
	cfg.Scope = scope
	h, err := core.BuildHoldTableContext(ctx, tbl, cfg)
	if err != nil {
		var zero R
		return zero, err
	}
	return op(ctx, h, param)
}

// MineValidPeriods is the one-call Task I: build, then
// MineValidPeriodsFromTableContext.
func MineValidPeriods(tbl *TxTable, cfg Config, pcfg PeriodConfig) ([]PeriodRule, error) {
	return oneCall(tbl, cfg, core.PeriodsScope(pcfg), core.MineValidPeriodsFromTableContext, pcfg)
}

// MineCycles is the one-call Task II (cycles): build, then
// MineCyclesFromTableContext.
func MineCycles(tbl *TxTable, cfg Config, ccfg CycleConfig) ([]CyclicRule, error) {
	return oneCall(tbl, cfg, core.CyclesScope(ccfg), core.MineCyclesFromTableContext, ccfg)
}

// MineCalendarPeriodicities is the one-call Task II (calendars): build,
// then MineCalendarPeriodicitiesFromTableContext.
func MineCalendarPeriodicities(tbl *TxTable, cfg Config, ccfg CycleConfig) ([]CalendarRule, error) {
	return oneCall(tbl, cfg, core.CalendarsScope(ccfg), core.MineCalendarPeriodicitiesFromTableContext, ccfg)
}

// MineDuring is the one-call Task III: build, then
// MineDuringFromTableContext. The build counts only the granules the
// feature covers, so its cost follows the feature's coverage.
func MineDuring(tbl *TxTable, cfg Config, feature Pattern) ([]TemporalRule, error) {
	return oneCall(tbl, cfg, core.DuringScope(feature), core.MineDuringFromTableContext, feature)
}

// MineDuringExpr is MineDuring with the feature in the textual
// calendar-algebra syntax, e.g. "month in (jun..aug)".
func MineDuringExpr(tbl *TxTable, cfg Config, expr string) ([]TemporalRule, error) {
	feature, err := ParsePattern(expr)
	if err != nil {
		return nil, err
	}
	return MineDuring(tbl, cfg, feature)
}

// RuleHistory is the one-call history: it builds a hold table exactly
// as deep as the rule needs (cfg.MaxK is overridden with |ante ∪ cons|:
// deeper wastes work, shallower would never count the rule's own
// itemset), then RuleHistoryFromTableContext.
func RuleHistory(tbl *TxTable, cfg Config, ante, cons Itemset) ([]GranuleStat, error) {
	cfg.MaxK = ante.Union(cons).Len()
	ctx := context.Background()
	h, err := core.BuildHoldTableContext(ctx, tbl, cfg)
	if err != nil {
		return nil, err
	}
	return core.RuleHistoryFromTableContext(ctx, h, ante, cons)
}

// MineTraditional is the time-agnostic Apriori baseline over the whole
// table, on the default backend, worker and tracer settings.
func MineTraditional(tbl *TxTable, minSupport, minConfidence float64, maxK int) ([]Rule, error) {
	return core.MineTraditionalContext(context.Background(), tbl, Config{MinSupport: minSupport, MinConfidence: minConfidence, MaxK: maxK})
}

// GranuleStat is one granule of a rule's support history.
type GranuleStat = core.GranuleStat

// Rule post-processing (result analysis).
type (
	// PruneOptions selects interestingness filters for mined rules.
	PruneOptions = prune.Options
	// PruneStats reports how many rules each filter dropped.
	PruneStats = prune.Stats
)

// PruneRules filters a mined rule set by lift, improvement over
// simpler rules, and statistical significance.
func PruneRules(rules []Rule, opt PruneOptions) ([]Rule, PruneStats, error) {
	return prune.Filter(rules, opt)
}

// SortRulesByLift orders rules by descending lift for presentation.
var SortRulesByLift = prune.SortByLift

// IQMS: the integrated query-and-mining session.
type (
	// Session routes SQL statements to the query engine and MINE
	// statements to the TML executor over one shared database.
	Session = tml.Session
	// Result is a tabular statement result.
	Result = minisql.Result
)

// NewSession builds an IQMS session over db.
func NewSession(db *DB) *Session { return tml.NewSession(db) }

// FormatResult renders a result as an aligned text table.
var FormatResult = minisql.Format

// Observability: pass-level tracing and process metrics. Set a Tracer
// on Config.Tracer (temporal tasks) or Session.TML.Tracer (TML); a nil
// tracer costs nothing.
type (
	// Tracer receives span-style events from mining runs.
	Tracer = obs.Tracer
	// PassStats describes one completed counting pass.
	PassStats = obs.PassStats
	// Trace records a run as a span tree (tasks, operators and passes as
	// spans; pass statistics and counters as attributes), the recorder
	// behind EXPLAIN's observed rows, the query journal and `tarmine
	// -stats`. The zero Trace is ready to use; read it with Tree.
	Trace = obs.Trace
	// SpanNode is one span of a Trace's tree.
	SpanNode = obs.SpanNode
	// MetricsRegistry holds process-wide atomic counters, gauges and
	// histograms, exposed via expvar and a Prometheus text endpoint.
	MetricsRegistry = obs.Registry
)

// NopTracer discards all telemetry; nil tracers behave identically.
var NopTracer = obs.Nop

// MultiTracer fans telemetry out to several tracers.
func MultiTracer(ts ...Tracer) Tracer { return obs.Multi(ts...) }

// DefaultMetrics is the process-wide metrics registry the CLI front
// ends publish.
var DefaultMetrics = obs.Default

// NewMetricsTracer folds mining telemetry into a metrics registry (nil:
// DefaultMetrics) under the given name prefix ("": "tarm").
func NewMetricsTracer(r *MetricsRegistry, prefix string) Tracer {
	return obs.NewRegistryTracer(r, prefix)
}

// MetricsMux serves /metrics (Prometheus text), /debug/vars (expvar)
// and /debug/pprof/ for a registry (nil: DefaultMetrics), the mux
// behind `iqms -metrics`.
func MetricsMux(r *MetricsRegistry) *http.ServeMux { return obs.DebugMux(r) }

// Mining server: the engine behind the tarmd binary, embeddable as an
// http.Handler. All sessions share one executor and one HoldCache, so
// concurrent identical statements deduplicate onto a single cold
// hold-table build; a bounded pool applies backpressure (429 +
// Retry-After) and Drain finishes in-flight statements on shutdown.
type (
	// Server is the concurrent TML statement service.
	Server = server.Server
	// ServerConfig sizes the pool, queue, deadlines and shared cache.
	ServerConfig = server.Config
)

// NewServer builds a mining server over db; serve it with net/http and
// call its Drain method before exiting.
func NewServer(db *DB, cfg ServerConfig) *Server { return server.New(db, cfg) }

// Synthetic workloads.
type (
	// QuestConfig parametrises the Agrawal–Srikant generator.
	QuestConfig = gen.QuestConfig
	// TemporalConfig parametrises the temporal generator.
	TemporalConfig = gen.TemporalConfig
	// PlantedRule is a ground-truth temporal rule embedded in generated
	// data.
	PlantedRule = gen.PlantedRule
)

// GenerateTemporal draws a timestamped synthetic transaction table.
func GenerateTemporal(cfg TemporalConfig, seed int64) (*TxTable, error) {
	return gen.GenerateTemporal(cfg, seed)
}
