package obs

import (
	"fmt"
	"io"
	"sync"
)

// ProgressTracer renders live per-pass progress as human-readable
// lines, one per event that matters — the `tarmine -progress` view.
// Writes are serialised, so it is safe to share across workers.
type ProgressTracer struct {
	mu sync.Mutex
	w  io.Writer
	// indent tracks task nesting for readability.
	depth int
}

// NewProgressTracer writes progress lines to w (typically stderr).
func NewProgressTracer(w io.Writer) *ProgressTracer { return &ProgressTracer{w: w} }

func (t *ProgressTracer) Enabled() bool { return true }

func (t *ProgressTracer) printf(format string, args ...any) {
	pad := ""
	for i := 0; i < t.depth; i++ {
		pad += "  "
	}
	fmt.Fprintf(t.w, pad+format+"\n", args...)
}

func (t *ProgressTracer) StartTask(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.printf("▶ %s", name)
	t.depth++
}

func (t *ProgressTracer) EndTask() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.depth > 0 {
		t.depth--
	}
}

func (t *ProgressTracer) StartPass(int) {}

func (t *ProgressTracer) EndPass(ps PassStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.printf("L%d: %d candidates (%d pruned, %d counted) → %d frequent  [%s] rows=%d %.1fms",
		ps.Level, ps.Generated, ps.Pruned, ps.Counted, ps.Frequent,
		ps.Backend, ps.Rows, float64(ps.Duration.Microseconds())/1000)
}

func (t *ProgressTracer) Counter(name string, delta int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.printf("%s += %d", name, delta)
}

func (t *ProgressTracer) Gauge(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.printf("%s = %g", name, v)
}
