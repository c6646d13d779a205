package tarm

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestFacadeEndToEnd exercises the whole public surface: database,
// dictionary, generation, the three mining tasks, the baseline, the
// pattern language and the IQMS session.
func TestFacadeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(filepath.Join(dir, "shop"))
	if err != nil {
		t.Fatal(err)
	}
	dict := db.Dict()
	weekendPair := dict.InternAll("chips", "beer")

	weekend, err := ParsePattern("weekday in (sat, sun)")
	if err != nil {
		t.Fatal(err)
	}
	generated, err := GenerateTemporal(TemporalConfig{
		Quest:        QuestConfig{NItems: 100, NPatterns: 30, AvgTxLen: 6, AvgPatLen: 3},
		Start:        time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC),
		Granularity:  Day,
		NGranules:    84,
		TxPerGranule: 60,
		Rules: []PlantedRule{{
			Name: "weekend", Items: weekendPair, Pattern: weekend,
			PInside: 0.4, POutside: 0.005,
		}},
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	baskets, err := db.CreateTxTable("baskets")
	if err != nil {
		t.Fatal(err)
	}
	// One batch: Open's default durability fsyncs per append call.
	var batch []Tx
	generated.Each(func(tx Tx) bool {
		tx.Items = tx.Items.Clone()
		batch = append(batch, tx)
		return true
	})
	baskets.AppendBatch(batch)
	defer func() {
		if err := db.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	cfg := Config{Granularity: Day, MinSupport: 0.2, MinConfidence: 0.6, MinFreq: 0.8, MaxK: 3}

	// Task II calendars must see the weekend rule.
	cals, err := MineCalendarPeriodicities(baskets, cfg, CycleConfig{MinReps: 4})
	if err != nil {
		t.Fatal(err)
	}
	foundWeekend := false
	for _, r := range cals {
		if r.Rule.Antecedent.Union(r.Rule.Consequent).Equal(weekendPair) &&
			strings.Contains(r.Feature.String(), "weekday in (6..7)") {
			foundWeekend = true
		}
	}
	if !foundWeekend {
		t.Error("weekend calendar periodicity not recovered through the facade")
	}

	// The traditional baseline must miss it (overall support ~0.12).
	trad, err := MineTraditional(baskets, 0.2, 0.6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range trad {
		if r.Antecedent.Union(r.Consequent).Equal(weekendPair) {
			t.Error("traditional baseline found the weekend rule at 0.2 support")
		}
	}

	// Task III through the session, after reopening from disk.
	db2, err := Open(filepath.Join(dir, "shop"))
	if err != nil {
		t.Fatal(err)
	}
	session := NewSession(db2)
	res, err := session.Exec(`MINE RULES FROM baskets DURING 'weekday in (sat, sun)' THRESHOLD SUPPORT 0.2 CONFIDENCE 0.6 FREQUENCY 0.8 MAX SIZE 3`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range res.Rows {
		if row[0].AsString() == "{chips}" || row[0].AsString() == "{beer}" {
			found = true
		}
	}
	if !found {
		t.Errorf("session mining missed the weekend rule; rows: %v", res.Rows)
	}

	// SQL over the reloaded data.
	res, err = session.Exec(`SELECT COUNT(*) AS n FROM baskets WHERE item = 'chips'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() == 0 {
		t.Errorf("SQL count over reloaded data = %v", res.Rows)
	}

	// Task I and plain cycles execute without error on the same data.
	if _, err := MineValidPeriods(baskets, cfg, PeriodConfig{}); err != nil {
		t.Errorf("MineValidPeriods: %v", err)
	}
	if _, err := MineCycles(baskets, cfg, CycleConfig{MaxLen: 7, MinReps: 4}); err != nil {
		t.Errorf("MineCycles: %v", err)
	}
	if _, err := MineDuring(baskets, cfg, weekend); err != nil {
		t.Errorf("MineDuring: %v", err)
	}
}

func TestFacadeHelpers(t *testing.T) {
	s := NewItemset(3, 1, 3)
	if s.Len() != 2 || !s.Contains(1) {
		t.Errorf("NewItemset = %v", s)
	}
	d := NewDict()
	if d.Intern("x") != 0 {
		t.Error("fresh dict first id != 0")
	}
	g, err := ParseGranularity("months")
	if err != nil || g != Month {
		t.Errorf("ParseGranularity = %v, %v", g, err)
	}
	mem := NewMemDB()
	if mem.Dict() == nil {
		t.Error("NewMemDB has no dict")
	}
}

// TestOneCallEqualsOperator pins the facade's two spellings of a task
// to each other: the one-call sugar must return exactly what the
// operator returns over a shared hold table, for all five tasks.
func TestOneCallEqualsOperator(t *testing.T) {
	// 28 days × 10 tx: {bread}⇒{milk} daily, {bbq}⇒{charcoal} in the
	// second week only, {choc}⇒{wine} on weekends.
	db := NewMemDB()
	tbl, err := db.CreateTxTable("fixture")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2024, 1, 1, 12, 0, 0, 0, time.UTC) // a Monday
	for d := 0; d < 28; d++ {
		for i := 0; i < 10; i++ {
			names := []string{"bread"}
			if i < 8 {
				names = append(names, "milk")
			}
			if d >= 7 && d <= 13 {
				names = append(names, "bbq", "charcoal")
			}
			if d%7 >= 5 && i < 9 {
				names = append(names, "choc", "wine")
			}
			tbl.Append(start.AddDate(0, 0, d).Add(time.Duration(i)*time.Minute), db.Dict().InternAll(names...))
		}
	}
	cfg := Config{Granularity: Day, MinSupport: 0.5, MinConfidence: 0.7, MinFreq: 1}
	ctx := context.Background()
	shared, err := BuildHoldTableContext(ctx, tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := func(task string, oneCall any, err1 error, operator any, err2 error) {
		t.Helper()
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: one-call err %v, operator err %v", task, err1, err2)
		}
		if reflect.ValueOf(oneCall).Len() == 0 {
			t.Errorf("%s: fixture yields no result; the comparison is vacuous", task)
		}
		if !reflect.DeepEqual(oneCall, operator) {
			t.Errorf("%s: one-call and operator disagree:\n%v\n%v", task, oneCall, operator)
		}
	}

	pcfg := PeriodConfig{MinLen: 2}
	p1, err1 := MineValidPeriods(tbl, cfg, pcfg)
	p2, err2 := MineValidPeriodsFromTableContext(ctx, shared, pcfg)
	same("periods", p1, err1, p2, err2)

	ccfg := CycleConfig{MaxLen: 10, MinReps: 2}
	c1, err1 := MineCycles(tbl, cfg, ccfg)
	c2, err2 := MineCyclesFromTableContext(ctx, shared, ccfg)
	same("cycles", c1, err1, c2, err2)

	cal1, err1 := MineCalendarPeriodicities(tbl, cfg, ccfg)
	cal2, err2 := MineCalendarPeriodicitiesFromTableContext(ctx, shared, ccfg)
	same("calendars", cal1, err1, cal2, err2)

	weekend, err := ParsePattern("weekday in (sat, sun)")
	if err != nil {
		t.Fatal(err)
	}
	d1, err1 := MineDuring(tbl, cfg, weekend)
	d2, err2 := MineDuringFromTableContext(ctx, shared, weekend)
	same("during", d1, err1, d2, err2)
	d3, err1 := MineDuringExpr(tbl, cfg, "weekday in (sat, sun)")
	same("during-expr", d3, err1, d2, err2)
	if _, err := MineDuringExpr(tbl, cfg, "weekday in (bogus)"); err == nil {
		t.Error("MineDuringExpr accepted an unparsable feature")
	}

	ante, cons := db.Dict().InternAll("bbq"), db.Dict().InternAll("charcoal")
	h1, err1 := RuleHistory(tbl, cfg, ante, cons)
	h2, err2 := RuleHistoryFromTableContext(ctx, shared, ante, cons)
	same("history", h1, err1, h2, err2)

	// The one-call history counts exactly as deep as the rule needs,
	// whatever MaxK says; the operator answers from the table it is given.
	cfg.MaxK = 1
	shallow, err := BuildHoldTableContext(ctx, tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RuleHistoryFromTableContext(ctx, shallow, ante, cons); err == nil || !strings.Contains(err.Error(), "counts only 1-itemsets") {
		t.Errorf("operator over a MaxK=1 table: err = %v, want the depth error", err)
	}
	h3, err1 := RuleHistory(tbl, cfg, ante, cons)
	same("history at MaxK=1", h3, err1, h2, err2)
}
