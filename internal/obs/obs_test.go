package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestOrNopAndMulti(t *testing.T) {
	if OrNop(nil) != Nop {
		t.Error("OrNop(nil) is not Nop")
	}
	c := NewTrace("a")
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
	m := Multi(c, NewTrace("b"))
	if !m.Enabled() {
		t.Error("multi tracer not enabled")
	}
	m.StartTask("s")
	m.Counter("x", 2)
	m.EndTask()
	if c.Tree()[0].Attrs["x"] != "2" {
		t.Error("multi did not fan out counter")
	}
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
