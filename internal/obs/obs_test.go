package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestOrNopAndMulti(t *testing.T) {
	if OrNop(nil) != Nop {
		t.Error("OrNop(nil) is not Nop")
	}
	c := NewCollectTracer()
	if OrNop(c) != Tracer(c) {
		t.Error("OrNop(c) changed the tracer")
	}
	if Nop.Enabled() {
		t.Error("Nop reports enabled")
	}
	if Multi(nil, Nop) != Nop {
		t.Error("Multi of nothing live is not Nop")
	}
	if Multi(nil, c, Nop) != Tracer(c) {
		t.Error("Multi with one live tracer did not unwrap it")
	}
	m := Multi(c, NewCollectTracer())
	if !m.Enabled() {
		t.Error("multi tracer not enabled")
	}
	m.Counter("x", 2)
	if c.Stats().Counters["x"] != 2 {
		t.Error("multi did not fan out counter")
	}
}

func TestCollectTracer(t *testing.T) {
	c := NewCollectTracer()
	c.StartTask("outer")
	c.StartPass(1)
	c.EndPass(PassStats{Level: 1, Generated: 10, Counted: 10, Frequent: 4, Rows: 100, Backend: "scan", Duration: time.Millisecond})
	c.StartPass(2)
	c.EndPass(PassStats{Level: 2, Generated: 6, Pruned: 2, Counted: 4, Frequent: 3, Rows: 100, Backend: "bitmap"})
	c.Counter(MetricRulesEmitted, 5)
	c.Gauge(MetricGranulesActive, 28)
	c.StartTask("inner")
	c.EndTask()
	c.EndTask()

	st := c.Stats()
	if len(st.Levels) != 2 || st.Level(2) == nil || st.Level(3) != nil {
		t.Fatalf("levels = %+v", st.Levels)
	}
	if st.Backend != "bitmap" {
		t.Errorf("backend = %q (scan must not win)", st.Backend)
	}
	if st.Level(2).Pruned+st.Level(2).Counted != st.Level(2).Generated {
		t.Error("collected pass broke the generated invariant")
	}
	if st.Counters[MetricRulesEmitted] != 5 || st.Gauges[MetricGranulesActive] != 28 {
		t.Errorf("counters/gauges: %v %v", st.Counters, st.Gauges)
	}
	if len(st.Tasks) != 2 || st.Tasks[0].Name != "inner" || st.Tasks[1].Name != "outer" {
		t.Errorf("tasks = %+v", st.Tasks)
	}
	if st.WallNS <= 0 {
		t.Error("outer span contributed no wall time")
	}

	// Stats returns a copy: mutating the collector must not alter it.
	c.Counter(MetricRulesEmitted, 1)
	if st.Counters[MetricRulesEmitted] != 5 {
		t.Error("Stats result aliases collector state")
	}

	c.Reset()
	if got := c.Stats(); len(got.Levels) != 0 || len(got.Counters) != 0 {
		t.Errorf("Reset left state: %+v", got)
	}

	// EndTask with no open span must not panic.
	c.EndTask()
}

func TestProgressTracer(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgressTracer(&buf)
	p.StartTask("core.BuildHoldTable")
	p.EndPass(PassStats{Level: 2, Generated: 20, Pruned: 5, Counted: 15, Frequent: 7, Rows: 1000, Backend: "bitmap"})
	p.Counter("rules_emitted", 4)
	p.EndTask()
	out := buf.String()
	for _, want := range []string{"core.BuildHoldTable", "L2:", "20 candidates", "5 pruned", "7 frequent", "bitmap", "rules_emitted += 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
	// Pass lines are indented under the task.
	if !strings.Contains(out, "\n  L2:") {
		t.Errorf("pass line not nested under task:\n%s", out)
	}
}
