package obs

import (
	"sort"
	"sync"
	"time"
)

// LevelStats is one pass of a collected mining run, JSON-shaped for
// `tarmine -stats`.
type LevelStats struct {
	Level     int    `json:"level"`
	Generated int    `json:"generated"`
	Pruned    int    `json:"pruned"`
	Counted   int    `json:"counted"`
	Frequent  int    `json:"frequent"`
	Rows      int64  `json:"rows"`
	Backend   string `json:"backend,omitempty"`
	WallNS    int64  `json:"wall_ns"`
}

// TaskStats is one completed task span of a collected run.
type TaskStats struct {
	Name   string `json:"name"`
	WallNS int64  `json:"wall_ns"`
}

// MineStats is the structured result of a CollectTracer: everything a
// mining run reported, ready for JSON dumping or assertions.
type MineStats struct {
	// Statement is the TML statement behind the run, when one was (set
	// by the executor, not the tracer).
	Statement string `json:"statement,omitempty"`
	// Backend is the counting backend of the last level-wise pass that
	// named one ("scan" passes excluded) — the backend the run's auto
	// heuristic resolved to.
	Backend string `json:"backend,omitempty"`
	// Levels holds one entry per counting pass, in execution order. A
	// statement that builds several structures (e.g. MINE HISTORY)
	// appends all of their passes.
	Levels []LevelStats `json:"levels"`
	// Tasks holds the completed task spans in completion order.
	Tasks []TaskStats `json:"tasks,omitempty"`
	// Counters and Gauges accumulate every named metric the run
	// emitted (rules_emitted, granules_active, hold_cells, …).
	Counters map[string]int64   `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
	// WallNS is the total wall time of the outermost task spans.
	WallNS int64 `json:"wall_ns"`
	// Summary holds p50/p95/p99 latency summaries over the run's pass
	// and operator durations; filled by Summarize.
	Summary map[string]LatencySummary `json:"summary,omitempty"`
}

// LatencySummary is the p50/p95/p99 of a set of sampled durations.
type LatencySummary struct {
	Count int     `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// summarize computes a nearest-rank quantile summary over samples
// given in nanoseconds.
func summarize(ns []int64) LatencySummary {
	if len(ns) == 0 {
		return LatencySummary{}
	}
	sorted := append([]int64(nil), ns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := func(q float64) float64 {
		i := int(q*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return float64(sorted[i]) / 1e6
	}
	return LatencySummary{
		Count: len(sorted),
		P50MS: rank(0.50),
		P95MS: rank(0.95),
		P99MS: rank(0.99),
	}
}

// Summarize fills Summary with latency quantiles over the counting
// passes ("pass") and the plan operator spans ("op").
func (m *MineStats) Summarize() {
	var passes, ops []int64
	for _, l := range m.Levels {
		passes = append(passes, l.WallNS)
	}
	for _, t := range m.Tasks {
		if len(t.Name) > 3 && t.Name[:3] == "op:" {
			ops = append(ops, t.WallNS)
		}
	}
	m.Summary = make(map[string]LatencySummary, 2)
	if len(passes) > 0 {
		m.Summary["pass"] = summarize(passes)
	}
	if len(ops) > 0 {
		m.Summary["op"] = summarize(ops)
	}
}

// Level returns the stats of pass k, or nil.
func (m *MineStats) Level(k int) *LevelStats {
	for i := range m.Levels {
		if m.Levels[i].Level == k {
			return &m.Levels[i]
		}
	}
	return nil
}

// CollectTracer accumulates MineStats. It is safe for concurrent use
// and reusable: Reset clears it between runs.
type CollectTracer struct {
	mu    sync.Mutex
	stats MineStats
	spans []span // open task spans, innermost last
}

type span struct {
	name string
	t0   time.Time
}

// NewCollectTracer returns an empty collector.
func NewCollectTracer() *CollectTracer { return &CollectTracer{} }

// Enabled is always true.
func (c *CollectTracer) Enabled() bool { return true }

// StartTask opens a task span.
func (c *CollectTracer) StartTask(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = append(c.spans, span{name: name, t0: time.Now()})
}

// EndTask closes the innermost span.
func (c *CollectTracer) EndTask() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.spans) == 0 {
		return
	}
	s := c.spans[len(c.spans)-1]
	c.spans = c.spans[:len(c.spans)-1]
	d := time.Since(s.t0).Nanoseconds()
	c.stats.Tasks = append(c.stats.Tasks, TaskStats{Name: s.name, WallNS: d})
	if len(c.spans) == 0 {
		c.stats.WallNS += d
	}
}

// ObserveSpan implements SpanObserver: the plan executor reports each
// operator's caller-timed duration here, and it replaces the duration
// the collector measured for the most recent task span of that name —
// so -stats JSON, EXPLAIN's observed section and the span tree all
// agree to the nanosecond.
func (c *CollectTracer) ObserveSpan(name string, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.stats.Tasks) - 1; i >= 0; i-- {
		if c.stats.Tasks[i].Name == name {
			c.stats.Tasks[i].WallNS = d.Nanoseconds()
			return
		}
	}
}

// StartPass is a no-op: the miner times the pass and reports it whole
// in EndPass.
func (c *CollectTracer) StartPass(int) {}

// EndPass appends the pass.
func (c *CollectTracer) EndPass(ps PassStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Levels = append(c.stats.Levels, LevelStats{
		Level:     ps.Level,
		Generated: ps.Generated,
		Pruned:    ps.Pruned,
		Counted:   ps.Counted,
		Frequent:  ps.Frequent,
		Rows:      ps.Rows,
		Backend:   ps.Backend,
		WallNS:    ps.Duration.Nanoseconds(),
	})
	if ps.Backend != "" && ps.Backend != "scan" {
		c.stats.Backend = ps.Backend
	}
}

// Counter accumulates a named counter.
func (c *CollectTracer) Counter(name string, delta int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stats.Counters == nil {
		c.stats.Counters = make(map[string]int64)
	}
	c.stats.Counters[name] += delta
}

// Gauge records the latest value of a named gauge.
func (c *CollectTracer) Gauge(name string, v float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stats.Gauges == nil {
		c.stats.Gauges = make(map[string]float64)
	}
	c.stats.Gauges[name] = v
}

// Stats returns a copy of everything collected so far.
func (c *CollectTracer) Stats() *MineStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.stats
	out.Levels = append([]LevelStats(nil), c.stats.Levels...)
	out.Tasks = append([]TaskStats(nil), c.stats.Tasks...)
	if c.stats.Counters != nil {
		out.Counters = make(map[string]int64, len(c.stats.Counters))
		for k, v := range c.stats.Counters {
			out.Counters[k] = v
		}
	}
	if c.stats.Gauges != nil {
		out.Gauges = make(map[string]float64, len(c.stats.Gauges))
		for k, v := range c.stats.Gauges {
			out.Gauges[k] = v
		}
	}
	return &out
}

// Reset clears the collector for reuse.
func (c *CollectTracer) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = MineStats{}
	c.spans = nil
}
