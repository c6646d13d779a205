package tarm

import (
	"path/filepath"
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
