package tml

import (
	"strings"
	"testing"

	"github.com/tarm-project/tarm/internal/obs"
)

// TestExecutorStats pins the executor's statement telemetry: every MINE
// run is recorded on a trace, Last exposes it, a configured Tracer sees
// the same event stream, and EXPLAIN appends an observed section once a
// run exists.
func TestExecutorStats(t *testing.T) {
	db := fixtureDB(t)
	s := NewSession(db)
	external := obs.NewTrace("external")
	s.TML.Tracer = external

	if tr := s.TML.Last("baskets"); tr != nil {
		t.Fatalf("trace before any run: %+v", tr.Tree())
	}

	stmt := `MINE PERIODS FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7 MIN LENGTH 2`
	if _, err := s.Exec(stmt); err != nil {
		t.Fatal(err)
	}
	tr := s.TML.Last("baskets")
	if tr == nil {
		t.Fatal("no trace after a MINE run")
	}
	root := tr.Tree()[0]
	if !strings.Contains(root.Attrs["statement"], "MINE PERIODS") {
		t.Errorf("statement = %q", root.Attrs["statement"])
	}
	sum := obs.Summarize(tr.Tree())
	if len(sum.Passes) == 0 {
		t.Error("no passes recorded")
	}
	for _, p := range sum.Passes {
		if p.Pruned+p.Counted != p.Generated {
			t.Errorf("L%d pruned %d + counted %d != generated %d", p.Level, p.Pruned, p.Counted, p.Generated)
		}
	}
	if root.Attrs[obs.MetricStatements] != "1" {
		t.Errorf("statements counter = %q", root.Attrs[obs.MetricStatements])
	}
	if obs.Find(tr.Tree(), "task:periods").Attrs[obs.MetricRulesEmitted] == "" {
		t.Error("rules_emitted counter missing")
	}

	// The external tracer saw the same run.
	ext := obs.Summarize(external.Tree())
	if len(external.Tree()) != 1 || len(ext.Passes) != len(sum.Passes) {
		t.Errorf("external tracer: statements=%d passes=%d, want 1/%d",
			len(external.Tree()), len(ext.Passes), len(sum.Passes))
	}

	// EXPLAIN now carries the observed section.
	res, err := s.Exec(`EXPLAIN ` + stmt)
	if err != nil {
		t.Fatal(err)
	}
	props := map[string]string{}
	for _, row := range res.Rows {
		props[row[0].AsString()] = row[1].AsString()
	}
	if !strings.Contains(props["observed: statement"], "MINE PERIODS") {
		t.Errorf("observed statement = %q", props["observed: statement"])
	}
	if _, ok := props["observed: pass L1"]; !ok {
		t.Error("observed pass rows missing")
	}
	if _, ok := props["observed: rules emitted"]; !ok {
		t.Error("observed rules emitted missing")
	}

	// Traditional mining is traced too, including the resolved backend.
	if _, err := s.Exec(`MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7`); err != nil {
		t.Fatal(err)
	}
	tr = s.TML.Last("baskets")
	if !strings.Contains(tr.Tree()[0].Attrs["statement"], "MINE RULES") {
		t.Errorf("statement not replaced: %q", tr.Tree()[0].Attrs["statement"])
	}
	if obs.Summarize(tr.Tree()).Backend == "" {
		t.Error("traditional run reported no backend")
	}
	// External tracer accumulated both statements.
	if got := len(external.Tree()); got != 2 {
		t.Errorf("external statement roots = %d, want 2", got)
	}
}
