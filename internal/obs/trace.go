package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Trace is one request-scoped span tree: the execution record of a
// single statement, from the server middleware (or a CLI front end)
// down through the plan operators, the hold-table build and the
// level-wise counting passes.
//
// A Trace is carried through the layers two ways at once:
//
//   - via context.Context (ContextWithTrace / TraceFromContext), which
//     is how the server middleware hands it to the TML executor, how
//     plan.Execute annotates operator spans with their EXPLAIN details,
//     and how the journal shows an in-flight statement's current span;
//   - as a Tracer in the statement's tracer fan-out, which is how it
//     hears the existing span-granularity event stream — StartTask/
//     EndTask pairs become spans, StartPass/EndPass pairs become
//     "pass:Lk" spans carrying the pass statistics as attributes —
//     without any new plumbing through the miners.
//
// It is a statement's only recorder: the TML executor makes one when
// the context carries none, and the journal record, EXPLAIN's observed
// rows and `tarmine -stats` are all read off its tree (Summarize). The
// zero Trace is ready to use (with an empty ID). A nil *Trace is a
// disabled Tracer (Enabled reports false), so obs.Multi drops it.
//
// All methods are safe for concurrent use and safe on a nil receiver.
type Trace struct {
	id string

	mu      sync.Mutex
	spans   []*Span // in start order
	open    []*Span // stack of unfinished spans, innermost last
	dropped int
}

// Span is one timed unit of work inside a Trace. IDs are sequential
// within the trace ("s1", "s2", …), so a span tree is reproducible in
// tests; the trace ID provides the global uniqueness.
type Span struct {
	ID       string
	Parent   string // parent span ID, "" for a root
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    map[string]string
	ended    bool
}

// maxTraceSpans bounds one trace's memory: a mining statement emits a
// few dozen spans (operators, build, passes), so the cap only engages
// on pathological statements; excess spans are counted, not stored.
const maxTraceSpans = 2048

// SpanStatement names the root span the TML executor opens around a
// whole statement.
const SpanStatement = "statement"

// NewTraceID returns a fresh 16-hex-digit random trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to the
		// clock rather than refusing to serve.
		return strconv.FormatInt(time.Now().UnixNano(), 16)
	}
	return hex.EncodeToString(b[:])
}

// NewTrace starts an empty trace under the given ID ("" generates one).
func NewTrace(id string) *Trace {
	if id == "" {
		id = NewTraceID()
	}
	return &Trace{id: id}
}

// ID returns the trace ID ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

type traceCtxKey struct{}

// ContextWithTrace attaches t to ctx; a nil t returns ctx unchanged.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFromContext returns the trace carried by ctx, or nil.
func TraceFromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// startSpan opens a child of the innermost open span. Caller holds t.mu.
func (t *Trace) startSpanLocked(name string) *Span {
	if len(t.spans) >= maxTraceSpans {
		t.dropped++
		return nil
	}
	s := &Span{
		ID:    "s" + strconv.Itoa(len(t.spans)+1),
		Name:  name,
		Start: time.Now(),
	}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1].ID
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, s)
	return s
}

// endSpanLocked closes the innermost open span. Caller holds t.mu.
func (t *Trace) endSpanLocked() {
	n := len(t.open)
	if n == 0 {
		return
	}
	s := t.open[n-1]
	t.open = t.open[:n-1]
	s.Duration = time.Since(s.Start)
	s.ended = true
}

// Enabled implements Tracer; a nil trace is disabled, so obs.Multi
// drops it from the fan-out.
func (t *Trace) Enabled() bool { return t != nil }

// StartTask opens a span named after the task.
func (t *Trace) StartTask(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.startSpanLocked(name)
	t.mu.Unlock()
}

// EndTask closes the innermost open span.
func (t *Trace) EndTask() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.endSpanLocked()
	t.mu.Unlock()
}

// StartPass opens the span of the level-k counting pass ("pass:Lk").
func (t *Trace) StartPass(level int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.startSpanLocked("pass:L" + strconv.Itoa(level))
	t.mu.Unlock()
}

// EndPass closes the pass span opened by StartPass and records the
// pass statistics as span attributes.
func (t *Trace) EndPass(ps PassStats) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.open)
	if n == 0 {
		return
	}
	s := t.open[n-1]
	if s.Name != "pass:L"+strconv.Itoa(ps.Level) {
		// An EndPass without its StartPass (a tracer driven by hand);
		// don't close an unrelated span.
		return
	}
	s.setAttr("generated", strconv.Itoa(ps.Generated))
	s.setAttr("pruned", strconv.Itoa(ps.Pruned))
	s.setAttr("counted", strconv.Itoa(ps.Counted))
	s.setAttr("frequent", strconv.Itoa(ps.Frequent))
	s.setAttr("rows", strconv.FormatInt(ps.Rows, 10))
	if ps.Backend != "" {
		s.setAttr("backend", ps.Backend)
	}
	t.open = t.open[:n-1]
	s.Duration = time.Since(s.Start)
	s.ended = true
}

// Counter accumulates a named counter as an attribute of the innermost
// open span (worker goroutines may emit concurrently; attribution is
// to whatever span the statement has open, which is the one doing the
// work at statement granularity).
func (t *Trace) Counter(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.open)
	if n == 0 {
		return
	}
	s := t.open[n-1]
	prev, _ := strconv.ParseInt(s.Attrs[name], 10, 64)
	s.setAttr(name, strconv.FormatInt(prev+delta, 10))
}

// Gauge records the latest value of a named gauge as an attribute of
// the innermost open span.
func (t *Trace) Gauge(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.open); n > 0 {
		t.open[n-1].setAttr(name, strconv.FormatFloat(v, 'g', -1, 64))
	}
}

// SetAttr sets an attribute on the innermost open span (no-op when no
// span is open). The plan executor uses it to copy each operator's
// EXPLAIN details onto its span.
func (t *Trace) SetAttr(key, val string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.open); n > 0 {
		t.open[n-1].setAttr(key, val)
	}
}

func (s *Span) setAttr(key, val string) {
	if s.Attrs == nil {
		s.Attrs = make(map[string]string, 4)
	}
	s.Attrs[key] = val
}

// ObserveSpan implements SpanObserver: the plan executor times each
// operator itself and reports the duration here, so the span tree, the
// EXPLAIN observed section and the metrics histograms all carry the
// identical caller-measured number for op:* spans.
func (t *Trace) ObserveSpan(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if s := t.spans[i]; s.ended && s.Name == name {
			s.Duration = d
			return
		}
	}
}

// Current returns the name of the innermost open span — the operator
// or pass an in-flight statement is executing right now — or "".
func (t *Trace) Current() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.open); n > 0 {
		return t.open[n-1].Name
	}
	return ""
}

// Dropped reports how many spans the cap discarded.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SpanNode is the JSON shape of one span in a rendered tree. Times are
// milliseconds: StartMS is the offset from the trace's first span.
type SpanNode struct {
	SpanID   string            `json:"span_id"`
	Name     string            `json:"name"`
	StartMS  float64           `json:"start_ms"`
	WallMS   float64           `json:"wall_ms"`
	Open     bool              `json:"open,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*SpanNode       `json:"children,omitempty"`
}

// Tree snapshots the trace as a span forest (one root per top-level
// span; a statement trace has a single "statement" root). Open spans
// are included with their elapsed-so-far duration and Open set, so an
// in-flight statement renders a live partial tree. Safe on nil.
func (t *Trace) Tree() []*SpanNode {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return nil
	}
	t0 := t.spans[0].Start
	nodes := make(map[string]*SpanNode, len(t.spans))
	var roots []*SpanNode
	for _, s := range t.spans {
		d := s.Duration
		if !s.ended {
			d = time.Since(s.Start)
		}
		n := &SpanNode{
			SpanID:  s.ID,
			Name:    s.Name,
			StartMS: float64(s.Start.Sub(t0)) / 1e6,
			WallMS:  float64(d) / 1e6,
			Open:    !s.ended,
		}
		if len(s.Attrs) > 0 {
			n.Attrs = make(map[string]string, len(s.Attrs))
			for k, v := range s.Attrs {
				n.Attrs[k] = v
			}
		}
		nodes[s.ID] = n
		if p := nodes[s.Parent]; p != nil {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// Find returns the first node named name in a depth-first walk of the
// forest, or nil — the lookup tests and front ends use to pick one
// operator span out of a tree.
func Find(forest []*SpanNode, name string) *SpanNode {
	for _, n := range forest {
		if n.Name == name {
			return n
		}
		if c := Find(n.Children, name); c != nil {
			return c
		}
	}
	return nil
}

// Summary is what a statement's span forest says about its run: the
// derived fields of its journal record, EXPLAIN's observed rows and
// E14's counting columns, all read from the spans production emits.
type Summary struct {
	// Cache is how the hold table was served, from the holdcache_*
	// counters under the op:build-hold or op:cached-hold span: "delta",
	// "cold", "dedup", "rethreshold" or "hit" in that precedence; "cold"
	// when the hold span carries none (the cache-disabled build) and ""
	// when the statement has no hold operator (the traditional task).
	Cache string
	// Backend is the backend of the last pass:Lk span naming one other
	// than "scan" — the backend the auto rule resolved to.
	Backend string
	// CountingNS is the last counting_observed_ns gauge; 0 when nothing
	// was counted (a cache-served hold table).
	CountingNS int64
	// Rules and Itemsets sum rules_emitted and itemsets_frequent over the
	// forest.
	Rules    int64
	Itemsets int64
	// PairVertical and PairHorizontal sum the granules a hold-table
	// build's level-2 decision routed to each kernel, and CountVectors the
	// candidates it counted a vector for; all zero when nothing was built.
	PairVertical, PairHorizontal int64
	CountVectors                 int64
	// RuleCandidates sums the rule candidates the task operators formed
	// and BelowFloor the itemsets they skipped below their floor; Floor
	// is the last task_floor gauge, 0 when no operator enumerated.
	RuleCandidates, BelowFloor int64
	Floor                      int
	// Ops holds the op:* span walls and Passes the pass:Lk span
	// statistics, both in start order.
	Ops    []OpWall
	Passes []PassStats
}

// Summarize reads a Summary off a span forest (Trace.Tree).
func Summarize(forest []*SpanNode) Summary {
	s := Summary{
		Rules:          sumAttr(forest, MetricRulesEmitted),
		Itemsets:       sumAttr(forest, MetricItemsetsFrequent),
		PairVertical:   sumAttr(forest, MetricPairGranulesVertical),
		PairHorizontal: sumAttr(forest, MetricPairGranulesHorizontal),
		CountVectors:   sumAttr(forest, MetricCountVectors),
		RuleCandidates: sumAttr(forest, MetricRuleCandidates),
		BelowFloor:     sumAttr(forest, MetricItemsetsBelowFloor),
	}
	var walk func([]*SpanNode)
	walk = func(ns []*SpanNode) {
		for _, n := range ns {
			if v, ok := n.Attrs[MetricCountingObservedNS]; ok {
				f, _ := strconv.ParseFloat(v, 64)
				s.CountingNS = int64(f)
			}
			if v, ok := n.Attrs[MetricTaskFloor]; ok {
				f, _ := strconv.ParseFloat(v, 64)
				s.Floor = int(f)
			}
			switch {
			case strings.HasPrefix(n.Name, "op:"):
				s.Ops = append(s.Ops, OpWall{Op: n.Name, WallMS: n.WallMS})
				// The plan's two hold operators (plan.OpBuildHold,
				// plan.OpCachedHold).
				if n.Name == "op:build-hold" || n.Name == "op:cached-hold" {
					s.Cache = holdServedBy(n)
				}
			case strings.HasPrefix(n.Name, "pass:L"):
				p := passStats(n)
				s.Passes = append(s.Passes, p)
				if p.Backend != "" && p.Backend != "scan" {
					s.Backend = p.Backend
				}
			}
			walk(n.Children)
		}
	}
	walk(forest)
	return s
}

// holdServedBy names how a hold span's table was served.
func holdServedBy(hold *SpanNode) string {
	forest := []*SpanNode{hold}
	for _, c := range []struct{ metric, outcome string }{
		{MetricCacheDeltas, "delta"},
		{MetricCacheMisses, "cold"},
		{MetricCacheDedups, "dedup"},
		{MetricCacheRethresholds, "rethreshold"},
		{MetricCacheHits, "hit"},
	} {
		if sumAttr(forest, c.metric) > 0 {
			return c.outcome
		}
	}
	return "cold"
}

// passStats parses a pass:Lk span back into the statistics EndPass
// recorded on it.
func passStats(n *SpanNode) PassStats {
	atoi := func(k string) int { v, _ := strconv.Atoi(n.Attrs[k]); return v }
	level, _ := strconv.Atoi(strings.TrimPrefix(n.Name, "pass:L"))
	return PassStats{
		Level:     level,
		Generated: atoi("generated"),
		Pruned:    atoi("pruned"),
		Counted:   atoi("counted"),
		Frequent:  atoi("frequent"),
		Rows:      int64(atoi("rows")),
		Backend:   n.Attrs["backend"],
	}
}

// sumAttr sums an integer counter attribute over a forest.
func sumAttr(forest []*SpanNode, key string) int64 {
	var total int64
	for _, n := range forest {
		v, _ := strconv.ParseInt(n.Attrs[key], 10, 64)
		total += v + sumAttr(n.Children, key)
	}
	return total
}

// WriteText renders the trace as an indented tree with durations and
// attributes — the payload of iqms's \trace and tarmine's -trace.
func (t *Trace) WriteText(w io.Writer) {
	if t == nil {
		fmt.Fprintln(w, "(no trace)")
		return
	}
	forest := t.Tree()
	n := 0
	var count func(ns []*SpanNode)
	count = func(ns []*SpanNode) {
		for _, x := range ns {
			n++
			count(x.Children)
		}
	}
	count(forest)
	fmt.Fprintf(w, "trace %s (%d span(s))\n", t.ID(), n)
	if len(forest) == 0 {
		fmt.Fprintln(w, "(no spans recorded)")
		return
	}
	for _, root := range forest {
		writeNode(w, root, "", true, true)
	}
}

// writeNode renders one node and its subtree with box-drawing guides.
func writeNode(w io.Writer, n *SpanNode, prefix string, last, root bool) {
	marker, childPrefix := "", ""
	if !root {
		if last {
			marker, childPrefix = "└─ ", prefix+"   "
		} else {
			marker, childPrefix = "├─ ", prefix+"│  "
		}
	} else {
		childPrefix = prefix
	}
	open := ""
	if n.Open {
		open = " (open)"
	}
	fmt.Fprintf(w, "%s%s%s %.1fms%s%s\n", prefix, marker, n.Name, n.WallMS, open, attrSuffix(n.Attrs))
	for i, c := range n.Children {
		writeNode(w, c, childPrefix, i == len(n.Children)-1, false)
	}
}

// attrSuffix renders attributes as " (k=v, k=v)" in sorted key order.
func attrSuffix(attrs map[string]string) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := " ("
	for i, k := range keys {
		if i > 0 {
			out += ", "
		}
		out += k + "=" + attrs[k]
	}
	return out + ")"
}
