package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTraceSpanTree drives a Trace through the tracer event stream a
// statement produces and checks the resulting tree: nesting by
// start/end pairing, pass spans named and closed by EndPass, and the
// pass statistics landing as attributes.
func TestTraceSpanTree(t *testing.T) {
	tr := NewTrace("req-1")
	if tr.ID() != "req-1" {
		t.Fatalf("ID = %q, want req-1", tr.ID())
	}
	tr.StartTask(SpanStatement)
	tr.SetAttr("table", "baskets")
	tr.StartTask("op:build-hold")
	tr.StartTask("core.BuildHoldTable")
	tr.StartPass(1)
	if got := tr.Current(); got != "pass:L1" {
		t.Fatalf("Current = %q, want pass:L1", got)
	}
	tr.EndPass(PassStats{Level: 1, Generated: 10, Pruned: 2, Counted: 8, Frequent: 5, Rows: 280, Backend: "bitmap"})
	tr.StartPass(2)
	tr.EndPass(PassStats{Level: 2, Generated: 4, Frequent: 1})
	tr.EndTask() // core.BuildHoldTable
	tr.EndTask() // op:build-hold
	tr.StartTask("op:render")
	tr.EndTask()
	tr.EndTask() // statement

	forest := tr.Tree()
	if len(forest) != 1 {
		t.Fatalf("got %d roots, want 1", len(forest))
	}
	root := forest[0]
	if root.Name != SpanStatement || root.Open {
		t.Fatalf("root = %q open=%v, want closed statement", root.Name, root.Open)
	}
	if root.Attrs["table"] != "baskets" {
		t.Errorf("root attrs = %v, want table=baskets", root.Attrs)
	}
	if len(root.Children) != 2 {
		t.Fatalf("statement children = %d, want 2 (build-hold, render)", len(root.Children))
	}
	build := root.Children[0]
	if build.Name != "op:build-hold" || len(build.Children) != 1 {
		t.Fatalf("child 0 = %q with %d children, want op:build-hold with 1", build.Name, len(build.Children))
	}
	core := build.Children[0]
	if core.Name != "core.BuildHoldTable" || len(core.Children) != 2 {
		t.Fatalf("grandchild = %q with %d children, want core.BuildHoldTable with 2 passes", core.Name, len(core.Children))
	}
	p1 := core.Children[0]
	if p1.Name != "pass:L1" {
		t.Fatalf("pass 0 = %q, want pass:L1", p1.Name)
	}
	for k, want := range map[string]string{
		"generated": "10", "pruned": "2", "counted": "8",
		"frequent": "5", "rows": "280", "backend": "bitmap",
	} {
		if got := p1.Attrs[k]; got != want {
			t.Errorf("pass:L1 attr %s = %q, want %q", k, got, want)
		}
	}
	if root.Children[1].Name != "op:render" {
		t.Errorf("child 1 = %q, want op:render", root.Children[1].Name)
	}
	if got := tr.Current(); got != "" {
		t.Errorf("Current after close = %q, want empty", got)
	}
}

// TestTraceObserveSpanOverwrite: the plan executor's caller-measured
// duration must replace the trace's own measurement for the span of
// that name, so the tree and EXPLAIN agree exactly.
func TestTraceObserveSpanOverwrite(t *testing.T) {
	tr := NewTrace("")
	tr.StartTask("op:scan")
	tr.EndTask()
	tr.ObserveSpan("op:scan", 123456789*time.Nanosecond)
	n := Find(tr.Tree(), "op:scan")
	if n == nil {
		t.Fatal("op:scan span not found")
	}
	if want := 123.456789; n.WallMS != want {
		t.Fatalf("WallMS = %v, want %v", n.WallMS, want)
	}
}

// TestTraceCounterGauge: counters accumulate and gauges overwrite on
// the innermost open span.
func TestTraceCounterGauge(t *testing.T) {
	tr := NewTrace("")
	tr.StartTask("statement")
	tr.Counter("rules_emitted", 3)
	tr.Counter("rules_emitted", 4)
	tr.Gauge("granules", 28)
	tr.Gauge("granules", 29)
	tr.EndTask()
	root := tr.Tree()[0]
	if got := root.Attrs["rules_emitted"]; got != "7" {
		t.Errorf("counter attr = %q, want 7", got)
	}
	if got := root.Attrs["granules"]; got != "29" {
		t.Errorf("gauge attr = %q, want 29", got)
	}
}

// TestTraceNil: every method must be a no-op on a nil *Trace, and a
// nil *Trace inside Multi must be skipped via Enabled() — the typed-nil
// interface hazard.
func TestTraceNil(t *testing.T) {
	var tr *Trace
	if tr.Enabled() {
		t.Fatal("nil trace reports Enabled")
	}
	tr.StartTask("x")
	tr.EndTask()
	tr.StartPass(1)
	tr.EndPass(PassStats{})
	tr.Counter("c", 1)
	tr.Gauge("g", 1)
	tr.SetAttr("k", "v")
	tr.ObserveSpan("x", time.Second)
	if tr.ID() != "" || tr.Current() != "" || tr.Tree() != nil || tr.Dropped() != 0 {
		t.Fatal("nil trace leaked state")
	}
	var buf strings.Builder
	tr.WriteText(&buf)
	if !strings.Contains(buf.String(), "no trace") {
		t.Fatalf("nil WriteText = %q", buf.String())
	}
	// Multi must treat the typed-nil tracer as disabled.
	live := NewTrace("")
	m := Multi(live, tr)
	m.StartTask("t")
	m.EndTask()
	if n := len(live.Tree()); n != 1 {
		t.Fatalf("live trace saw %d spans through Multi, want 1", n)
	}
}

// TestTraceContext: ContextWithTrace/TraceFromContext round-trip, and
// a context without a trace yields nil.
func TestTraceContext(t *testing.T) {
	if TraceFromContext(context.Background()) != nil {
		t.Fatal("background context has a trace")
	}
	tr := NewTrace("abc")
	ctx := ContextWithTrace(context.Background(), tr)
	if got := TraceFromContext(ctx); got != tr {
		t.Fatalf("round-trip = %p, want %p", got, tr)
	}
	if got := ContextWithTrace(context.Background(), nil); TraceFromContext(got) != nil {
		t.Fatal("nil trace was attached")
	}
}

// TestTraceIDsUnique: generated trace IDs are 16 hex chars and do not
// collide over a reasonable draw.
func TestTraceIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("id %q: len %d, want 16", id, len(id))
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

// TestTraceSpanCap: a pathological statement cannot grow a trace
// without bound; spans beyond the cap are counted, not stored.
func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace("")
	for i := 0; i < maxTraceSpans+100; i++ {
		tr.StartTask(fmt.Sprintf("s%d", i))
		tr.EndTask()
	}
	if got := tr.Dropped(); got != 100 {
		t.Fatalf("Dropped = %d, want 100", got)
	}
	n := 0
	var count func(ns []*SpanNode)
	count = func(ns []*SpanNode) {
		for _, x := range ns {
			n++
			count(x.Children)
		}
	}
	count(tr.Tree())
	if n != maxTraceSpans {
		t.Fatalf("stored %d spans, want %d", n, maxTraceSpans)
	}
}

// TestTraceWriteText: the text render names every span with durations
// and attributes.
func TestTraceWriteText(t *testing.T) {
	tr := NewTrace("tid-1")
	tr.StartTask("statement")
	tr.StartTask("op:scan")
	tr.EndTask()
	tr.StartPass(1)
	tr.EndPass(PassStats{Level: 1, Frequent: 3})
	tr.EndTask()
	var buf strings.Builder
	tr.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"trace tid-1", "statement", "op:scan", "pass:L1", "frequent=3", "ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText missing %q in:\n%s", want, out)
		}
	}
}

// TestTraceConcurrent hammers a live trace from reader goroutines
// while a writer opens and closes spans — the journal's in-flight view
// reads Current() and Tree() mid-statement, so this must be clean
// under -race.
func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace("")
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				tr.Current()
				tr.Tree()
				var buf strings.Builder
				tr.WriteText(&buf)
			}
		}()
	}
	for i := 0; i < 500; i++ {
		tr.StartTask("op:mine")
		tr.Counter("rules_emitted", 1)
		tr.StartPass(1)
		tr.EndPass(PassStats{Level: 1})
		tr.EndTask()
		tr.ObserveSpan("op:mine", time.Millisecond)
	}
	close(done)
	wg.Wait()
}

// holdTrace records a statement whose hold operator (op) emitted the
// given cache counters, the span shape the executor produces.
func holdTrace(op string, counters ...string) []*SpanNode {
	tr := NewTrace("")
	tr.StartTask(SpanStatement)
	tr.StartTask(op)
	for _, c := range counters {
		tr.Counter(c, 1)
	}
	tr.EndTask()
	tr.EndTask()
	return tr.Tree()
}

// TestSummarize: the reader derives what the journal, EXPLAIN and
// -stats report from one statement's span tree — op walls and passes in
// start order, the backend of the last non-scan pass, the counting
// gauge, counters summed over the tree, and the cache outcome of the
// hold span.
func TestSummarize(t *testing.T) {
	tr := NewTrace("")
	tr.StartTask(SpanStatement)
	tr.StartTask("op:scan")
	tr.EndTask()
	tr.StartTask("op:build-hold")
	tr.Counter(MetricCacheMisses, 1)
	tr.StartTask("core.BuildHoldTable")
	tr.StartPass(1)
	tr.EndPass(PassStats{Level: 1, Generated: 10, Counted: 10, Frequent: 4, Rows: 100, Backend: "scan"})
	tr.StartPass(2)
	tr.EndPass(PassStats{Level: 2, Generated: 6, Pruned: 2, Counted: 4, Frequent: 3, Rows: 100, Backend: "bitmap"})
	tr.Counter(MetricItemsetsFrequent, 7)
	tr.Gauge(MetricCountingObservedNS, 1.5e6)
	tr.EndTask()
	tr.EndTask()
	tr.ObserveSpan("op:build-hold", 3*time.Millisecond)
	tr.StartTask("op:mine:periods")
	tr.StartTask("task:periods")
	tr.Counter(MetricRulesEmitted, 5)
	tr.EndTask()
	tr.Counter(MetricRulesEmitted, 2)
	tr.EndTask()
	tr.EndTask()

	s := Summarize(tr.Tree())
	if s.Cache != "cold" || s.Backend != "bitmap" || s.CountingNS != 1.5e6 {
		t.Errorf("cache/backend/counting = %q/%q/%d, want cold/bitmap/1500000", s.Cache, s.Backend, s.CountingNS)
	}
	if s.Rules != 7 || s.Itemsets != 7 {
		t.Errorf("rules/itemsets = %d/%d, want 7/7 summed over the tree", s.Rules, s.Itemsets)
	}
	var ops []string
	for _, o := range s.Ops {
		ops = append(ops, o.Op)
	}
	if fmt.Sprint(ops) != "[op:scan op:build-hold op:mine:periods]" {
		t.Errorf("ops = %v, want start order", ops)
	}
	if s.Ops[1].WallMS != 3 {
		t.Errorf("op:build-hold wall = %v ms, want the observed 3", s.Ops[1].WallMS)
	}
	want := []PassStats{
		{Level: 1, Generated: 10, Counted: 10, Frequent: 4, Rows: 100, Backend: "scan"},
		{Level: 2, Generated: 6, Pruned: 2, Counted: 4, Frequent: 3, Rows: 100, Backend: "bitmap"},
	}
	if fmt.Sprint(s.Passes) != fmt.Sprint(want) {
		t.Errorf("passes = %+v, want %+v", s.Passes, want)
	}

	for _, c := range []struct {
		forest []*SpanNode
		want   string
	}{
		{holdTrace("op:mine:traditional"), ""},
		{holdTrace("op:build-hold"), "cold"},
		{holdTrace("op:cached-hold", MetricCacheHits), "hit"},
		{holdTrace("op:cached-hold", MetricCacheRethresholds), "rethreshold"},
		{holdTrace("op:build-hold", MetricCacheMisses, MetricCacheDedups), "cold"},
		{holdTrace("op:build-hold", MetricCacheDedups), "dedup"},
		{holdTrace("op:cached-hold", MetricCacheMisses, MetricCacheDeltas), "delta"},
	} {
		if got := Summarize(c.forest); got.Cache != c.want || got.CountingNS != 0 {
			t.Errorf("%s: cache %q counting %d, want %q and 0", Find(c.forest, SpanStatement).Children[0].Attrs, got.Cache, got.CountingNS, c.want)
		}
	}
	if s := Summarize(nil); s.Cache != "" || s.Ops != nil || s.Passes != nil {
		t.Errorf("empty forest summary = %+v", s)
	}
}
