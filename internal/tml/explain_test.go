package tml

import (
	"strings"
	"testing"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
)

func TestMineStmtStringRoundTrip(t *testing.T) {
	inputs := []string{
		`MINE RULES FROM baskets THRESHOLD SUPPORT 0.05 CONFIDENCE 0.6`,
		`MINE RULES FROM baskets DURING 'month in (jun..aug) and weekday in (sat, sun)' THRESHOLD SUPPORT 0.1 CONFIDENCE 0.7 FREQUENCY 0.8 MAX SIZE 3 LIMIT 10`,
		`MINE PERIODS FROM b AT GRANULARITY week THRESHOLD SUPPORT 0.05 CONFIDENCE 0.5 MIN LENGTH 3`,
		`MINE CYCLES FROM b THRESHOLD SUPPORT 0.05 CONFIDENCE 0.5 MAX LENGTH 14 MIN REPS 3`,
		`MINE CALENDARS FROM b THRESHOLD SUPPORT 0.05 CONFIDENCE 0.5 MIN REPS 2`,
		`MINE RULES FROM b DURING 'between 1998-03-01 and 1998-04-15' THRESHOLD SUPPORT 0.2 CONFIDENCE 0.6`,
		`MINE RULES FROM b DURING 'every 7 offset 2' THRESHOLD SUPPORT 0.2 CONFIDENCE 0.6`,
		`MINE RULES FROM b DURING 'not (month in (6..8)) or always' THRESHOLD SUPPORT 0.2 CONFIDENCE 0.6`,
	}
	for _, in := range inputs {
		s1, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		printed := s1.String()
		s2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse of %q (printed %q): %v", in, printed, err)
		}
		// Compare field by field; During patterns compare via String.
		if s1.Target != s2.Target || s1.Table != s2.Table ||
			s1.Granularity != s2.Granularity ||
			s1.Support != s2.Support || s1.Confidence != s2.Confidence ||
			s1.Frequency != s2.Frequency ||
			s1.MinLength != s2.MinLength || s1.MaxLength != s2.MaxLength ||
			s1.MinReps != s2.MinReps || s1.MaxSize != s2.MaxSize || s1.Limit != s2.Limit {
			t.Errorf("round trip of %q changed fields:\n%+v\n%+v", in, s1, s2)
		}
		d1, d2 := "", ""
		if s1.During != nil {
			d1 = s1.During.String()
		}
		if s2.During != nil {
			d2 = s2.During.String()
		}
		if d1 != d2 {
			t.Errorf("round trip of %q changed DURING: %q vs %q", in, d1, d2)
		}
	}
}

func TestExplain(t *testing.T) {
	db := fixtureDB(t)
	s := NewSession(db)
	res, err := s.Exec(`EXPLAIN MINE PERIODS FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7 MIN LENGTH 2`)
	if err != nil {
		t.Fatal(err)
	}
	props := map[string]string{}
	for _, row := range res.Rows {
		props[row[0].AsString()] = row[1].AsString()
	}
	if props["task"] != "Task I: valid period discovery" {
		t.Errorf("task = %q", props["task"])
	}
	if props["transactions"] != "280" {
		t.Errorf("transactions = %q", props["transactions"])
	}
	if props["granules"] != "28" || props["active granules"] != "28" {
		t.Errorf("granules = %q / %q", props["granules"], props["active granules"])
	}
	if !strings.Contains(props["span"], "2024-01-01") {
		t.Errorf("span = %q", props["span"])
	}
	if props["min frequency"] != "0.9" {
		t.Errorf("default frequency = %q", props["min frequency"])
	}

	// During feature coverage is reported.
	res, err = s.Exec(`EXPLAIN MINE RULES FROM baskets DURING 'weekday in (sat, sun)' THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7`)
	if err != nil {
		t.Fatal(err)
	}
	props = map[string]string{}
	for _, row := range res.Rows {
		props[row[0].AsString()] = row[1].AsString()
	}
	if props["feature granules"] != "8" {
		t.Errorf("feature granules = %q", props["feature granules"])
	}
	if !strings.Contains(props["task"], "Task III") {
		t.Errorf("task = %q", props["task"])
	}

	// Errors.
	if _, err := s.Exec(`EXPLAIN MINE RULES FROM nosuch THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7`); err == nil {
		t.Error("explain of missing table accepted")
	}
	if _, err := s.Exec(`EXPLAIN MINE garbage`); err == nil {
		t.Error("explain of garbage accepted")
	}
	// EXPLAIN SELECT is not TML; it routes to SQL and fails there.
	if _, err := s.Exec(`EXPLAIN SELECT 1 FROM baskets`); err == nil {
		t.Error("EXPLAIN SELECT accepted")
	}
}

// TestExplainScopeRows: without a cache the build is scoped to the
// statement, and EXPLAIN's build-hold node shows the floor — and for
// DURING the feature and the granules counted — as does the journal's
// op:build-hold span after a run. A cached executor builds unscoped
// tables to share, and shows none of it.
func TestExplainScopeRows(t *testing.T) {
	holdRow := func(s *Session, stmt string) string {
		t.Helper()
		res, err := s.Exec("EXPLAIN " + stmt)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			if v := row[1].AsString(); row[0].AsString() == "plan" && strings.Contains(v, "-hold (") {
				return v
			}
		}
		t.Fatalf("%s: no hold node in EXPLAIN", stmt)
		return ""
	}
	const periods = `MINE PERIODS FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7 MIN LENGTH 2`
	const during = `MINE RULES FROM baskets DURING 'weekday in (sat, sun)' THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7`
	cold := NewSession(fixtureDB(t))
	cold.TML.Cache = nil
	// Frequency 0.9 over MIN LENGTH 2: two holding granules. Over the
	// eight weekend days of four weeks: ⌈0.9 · 8⌉ = 8.
	for _, c := range []struct{ stmt, row, floor string }{
		{periods, "floor=2)", "2"},
		{during, "floor=8, cover=weekday in (6, 7), counted_granules=8)", "8"},
	} {
		if row := holdRow(cold, c.stmt); !strings.Contains(row, "build-hold (") || !strings.HasSuffix(row, c.row) {
			t.Errorf("nil cache: hold node %q, want it to end %q", row, c.row)
		}
		if _, err := cold.Exec(c.stmt); err != nil {
			t.Fatal(err)
		}
		var floor string
		for _, root := range cold.TML.Last("baskets").Tree() {
			for _, op := range root.Children {
				if op.Name == "op:build-hold" {
					floor = op.Attrs["floor"]
				}
			}
		}
		if floor != c.floor {
			t.Errorf("%s: the journal's op:build-hold span has floor %q, want %q", c.stmt, floor, c.floor)
		}
	}
	cached := NewSession(fixtureDB(t))
	for _, stmt := range []string{periods, during} {
		if row := holdRow(cached, stmt); strings.Contains(row, "floor=") || strings.Contains(row, "cover=") {
			t.Errorf("cached executor: hold node %q shows a scope it does not apply", row)
		}
	}
}

// TestExplainEnumerationFloor: a printed plan's mine:<task> node shows
// the floor its operator enumerates at, with a cache or without, and
// after a run EXPLAIN's observed rows report the rule candidates formed
// and the itemsets skipped below that floor. Over the build scoped to
// the statement (no cache) nothing is below it; over the shared table
// (cache) the itemsets frequent on fewer than eight of the eight
// weekend days — the seasonal ones — are skipped, and the same rules
// are formed.
func TestExplainEnumerationFloor(t *testing.T) {
	const stmt = `MINE RULES FROM baskets DURING 'weekday in (sat, sun)' THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7`
	for _, c := range []struct {
		name     string
		cache    bool
		observed string
	}{
		{"no cache", false, "28 formed, 0 itemsets skipped below floor 8"},
		{"cache", true, "28 formed, 46 itemsets skipped below floor 8"},
	} {
		s := NewSession(fixtureDB(t))
		if !c.cache {
			s.TML.Cache = nil
		}
		explain := func() map[string]string {
			t.Helper()
			res, err := s.Exec("EXPLAIN " + stmt)
			if err != nil {
				t.Fatal(err)
			}
			props := map[string]string{}
			for _, row := range res.Rows {
				if k, v := row[0].AsString(), row[1].AsString(); k != "plan" {
					props[k] = v
				} else if strings.Contains(v, "mine:during (") {
					props["mine"] = v
				}
			}
			return props
		}
		if props := explain(); !strings.HasSuffix(props["mine"], "frequency=0.9, floor=8)") {
			t.Errorf("%s: mine node %q, want it to end with floor=8", c.name, props["mine"])
		} else if _, ok := props["observed: rule candidates"]; ok {
			t.Errorf("%s: rule candidates observed before any run", c.name)
		}
		if _, err := s.Exec(stmt); err != nil {
			t.Fatal(err)
		}
		if got := explain()["observed: rule candidates"]; got != c.observed {
			t.Errorf("%s: observed rule candidates %q, want %q", c.name, got, c.observed)
		}
		sum := obs.Summarize(s.TML.Last("baskets").Tree())
		if sum.Floor != 8 || sum.RuleCandidates != 28 {
			t.Errorf("%s: journal summary floor %d, %d candidates; want 8 and 28", c.name, sum.Floor, sum.RuleCandidates)
		}
	}
}

// TestExplainRulesLevel2Route: a whole-table MINE RULES decides level 2
// on the route a hold-table build's granule would take, and its pass:L2
// span says which — pair_granules_vertical or _horizontal 1, the whole
// table as the one granule — as a build's span does; EXPLAIN's observed
// rows read it back. The fixture's few frequent items keep the flat
// bitmap backend under the crossover, so it intersects; roaring counts
// the triangle; the naive reference counts the join and takes neither. The pass still reports the whole join as counted, and names
// the backend that counts the levels above it.
func TestExplainRulesLevel2Route(t *testing.T) {
	const stmt = `MINE RULES FROM baskets THRESHOLD SUPPORT 0.1 CONFIDENCE 0.5`
	var find func(ns []*obs.SpanNode, name string) *obs.SpanNode
	find = func(ns []*obs.SpanNode, name string) *obs.SpanNode {
		for _, n := range ns {
			if n.Name == name {
				return n
			}
			if m := find(n.Children, name); m != nil {
				return m
			}
		}
		return nil
	}
	for _, c := range []struct {
		backend              apriori.Backend
		workers              int
		vertical, horizontal string
		level2Line           string
	}{
		{apriori.BackendBitmap, 2, "1", "", "1 vertical, 0 horizontal"},
		{apriori.BackendRoaring, 2, "", "1", "0 vertical, 1 horizontal"},
		{apriori.BackendNaive, 2, "", "", "0 vertical, 0 horizontal"},
	} {
		s := NewSession(fixtureDB(t))
		s.TML.Backend, s.TML.Workers = c.backend, c.workers
		if _, err := s.Exec(stmt); err != nil {
			t.Fatal(err)
		}
		l2 := find(s.TML.Last("baskets").Tree(), "pass:L2")
		if l2 == nil {
			t.Fatalf("%v: no pass:L2 span", c.backend)
		}
		if got := l2.Attrs[obs.MetricPairGranulesVertical]; got != c.vertical {
			t.Errorf("%v: pass:L2 %s = %q, want %q", c.backend, obs.MetricPairGranulesVertical, got, c.vertical)
		}
		if got := l2.Attrs[obs.MetricPairGranulesHorizontal]; got != c.horizontal {
			t.Errorf("%v: pass:L2 %s = %q, want %q", c.backend, obs.MetricPairGranulesHorizontal, got, c.horizontal)
		}
		if l2.Attrs["backend"] != c.backend.String() || l2.Attrs["counted"] != l2.Attrs["generated"] {
			t.Errorf("%v: pass:L2 attrs %v, want backend %v and the whole join counted", c.backend, l2.Attrs, c.backend)
		}
		res, err := s.Exec("EXPLAIN " + stmt)
		if err != nil {
			t.Fatal(err)
		}
		var line string
		for _, row := range res.Rows {
			if row[0].AsString() == "observed: level-2 granules" {
				line = row[1].AsString()
			}
		}
		if line != c.level2Line {
			t.Errorf("%v: observed level-2 granules %q, want %q", c.backend, line, c.level2Line)
		}
	}
}

// TestExplainRefusesLikeExec: EXPLAIN and execution resolve the table
// through one lookup, so a relational or missing table gets the same
// error from both.
func TestExplainRefusesLikeExec(t *testing.T) {
	db := fixtureDB(t)
	schema, _ := tdb.NewSchema(tdb.Column{Name: "x", Kind: tdb.KindInt})
	if _, err := db.CreateTable("rel", schema); err != nil {
		t.Fatal(err)
	}
	s := NewSession(db)
	for table, want := range map[string]string{
		"rel":    `"rel" is a relational table; MINE needs a transaction table`,
		"nosuch": `no transaction table named "nosuch"`,
	} {
		stmt := `MINE RULES FROM ` + table + ` THRESHOLD SUPPORT 0.1 CONFIDENCE 0.5`
		_, execErr := s.Exec(stmt)
		_, explainErr := s.Exec(`EXPLAIN ` + stmt)
		if execErr == nil || explainErr == nil {
			t.Fatalf("%s: exec err %v, explain err %v; want both to fail", table, execErr, explainErr)
		}
		if !strings.Contains(execErr.Error(), want) || explainErr.Error() != execErr.Error() {
			t.Errorf("%s: exec %q, EXPLAIN %q; want both %q", table, execErr, explainErr, want)
		}
	}
}

func TestExplainEmptyTable(t *testing.T) {
	db := fixtureDB(t)
	if _, err := db.CreateTxTable("empty"); err != nil {
		t.Fatal(err)
	}
	s := NewSession(db)
	res, err := s.Exec(`EXPLAIN MINE CYCLES FROM empty THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range res.Rows {
		if row[0].AsString() == "span" && row[1].AsString() == "(empty table)" {
			found = true
		}
	}
	if !found {
		t.Error("empty-table span not reported")
	}
}

func TestMineHistory(t *testing.T) {
	db := fixtureDB(t)
	s := NewSession(db)
	res, err := s.Exec(`MINE HISTORY FROM baskets RULE 'bbq => charcoal' THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 28 {
		t.Fatalf("history rows = %d, want 28", len(res.Rows))
	}
	holds := 0
	for i, row := range res.Rows {
		if row[5].AsBool() {
			holds++
			if i < 7 || i > 13 {
				t.Errorf("rule holds on day %d (%s), outside the planted week", i, row[0].AsString())
			}
		}
	}
	if holds != 7 {
		t.Errorf("rule holds on %d days, want 7", holds)
	}

	// Multi-item antecedent and LIMIT.
	res, err = s.Exec(`MINE HISTORY FROM baskets RULE 'bread, milk => choc' THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7 LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Errorf("limited history rows = %d", len(res.Rows))
	}

	bad := []string{
		`MINE HISTORY FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7`,                       // no RULE
		`MINE HISTORY FROM baskets RULE 'bbq charcoal' THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7`,   // no =>
		`MINE HISTORY FROM baskets RULE 'bbq => nosuch' THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7`,  // unknown item
		`MINE HISTORY FROM baskets RULE 'bbq => bbq' THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7`,     // overlap
		`MINE HISTORY FROM baskets RULE ' => bbq' THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7`,        // empty side
		`MINE RULES FROM baskets RULE 'a => b' THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7`,           // RULE on wrong target
		`MINE HISTORY FROM baskets RULE 'wine => bread' THRESHOLD SUPPORT 0.99 CONFIDENCE 0.7`, // never frequent
	}
	for _, in := range bad {
		if _, err := s.Exec(in); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestHistoryStringRoundTrip(t *testing.T) {
	in := `MINE HISTORY FROM baskets RULE 'bbq => charcoal' THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7`
	s1, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(s1.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", s1.String(), err)
	}
	if s2.RuleSpec != s1.RuleSpec || s2.Target != TargetHistory {
		t.Errorf("round trip: %+v vs %+v", s1, s2)
	}
}

func TestPruneClause(t *testing.T) {
	db := fixtureDB(t)
	s := NewSession(db)

	// Unpruned traditional mining at loose thresholds returns many
	// rules; lift pruning must cut rules at or below lift 1.
	loose := `MINE RULES FROM baskets THRESHOLD SUPPORT 0.1 CONFIDENCE 0.1`
	res, err := s.Exec(loose)
	if err != nil {
		t.Fatal(err)
	}
	all := len(res.Rows)
	res, err = s.Exec(loose + ` PRUNE LIFT 1.05`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) >= all {
		t.Errorf("lift pruning kept %d of %d rules", len(res.Rows), all)
	}
	if len(res.Rows) == 0 {
		t.Error("lift pruning dropped everything")
	}

	// Significance pruning runs end to end.
	if _, err := s.Exec(loose + ` PRUNE PVALUE 0.01`); err != nil {
		t.Fatal(err)
	}
	// Combined with DURING.
	if _, err := s.Exec(`MINE RULES FROM baskets DURING 'weekday in (sat, sun)' THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7 FREQUENCY 0.9 PRUNE LIFT 1.01 IMPROVEMENT 0.01 PVALUE 0.05`); err != nil {
		t.Fatal(err)
	}

	// Grammar errors.
	bad := []string{
		`MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7 PRUNE`,
		`MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7 PRUNE BANANAS 2`,
		`MINE CYCLES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7 PRUNE LIFT 1.1`,
		`MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.7 PRUNE LIFT x`,
	}
	for _, in := range bad {
		if _, err := s.Exec(in); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestPruneStringRoundTrip(t *testing.T) {
	in := `MINE RULES FROM baskets THRESHOLD SUPPORT 0.1 CONFIDENCE 0.5 PRUNE LIFT 1.2 IMPROVEMENT 0.05 PVALUE 0.01`
	s1, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(s1.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", s1.String(), err)
	}
	if s2.PruneLift != 1.2 || s2.PruneImprovement != 0.05 || s2.PrunePValue != 0.01 {
		t.Errorf("round trip lost prune options: %+v", s2)
	}
}
