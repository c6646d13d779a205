package core

import (
	"testing"

	"github.com/tarm-project/tarm/internal/itemset"
)

func TestRuleHistoryFixture(t *testing.T) {
	tbl := buildFixture(t)
	stats, err := RuleHistoryFromTableContext(bg, mustBuild(t, tbl, fixtureConfig()), itemset.New(bbq), itemset.New(charcoal))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 28 {
		t.Fatalf("history length = %d", len(stats))
	}
	for d, s := range stats {
		inSeason := d >= 7 && d <= 13
		if s.Holds != inSeason {
			t.Errorf("day %d holds = %v, want %v", d, s.Holds, inSeason)
		}
		if s.TxCount != 10 || !s.Active {
			t.Errorf("day %d txcount=%d active=%v", d, s.TxCount, s.Active)
		}
		if inSeason {
			if s.Count != 10 || s.Support != 1 || s.Confidence != 1 {
				t.Errorf("day %d stats = %+v", d, s)
			}
		} else if s.Count != 0 {
			t.Errorf("day %d off-season count = %d", d, s.Count)
		}
		if s.Granule != dayGranule(d) {
			t.Errorf("day %d granule = %d, want %d", d, s.Granule, dayGranule(d))
		}
	}
}

func TestRuleHistoryConfidenceBelowThreshold(t *testing.T) {
	tbl := buildFixture(t)
	cfg := fixtureConfig()
	cfg.MinConfidence = 0.9 // the daily rule has confidence 0.8: never holds
	stats, err := RuleHistoryFromTableContext(bg, mustBuild(t, tbl, cfg), itemset.New(bread), itemset.New(milk))
	if err != nil {
		t.Fatal(err)
	}
	for d, s := range stats {
		if s.Holds {
			t.Errorf("day %d holds despite confidence below threshold", d)
		}
		if s.Confidence < 0.79 || s.Confidence > 0.81 {
			t.Errorf("day %d confidence = %v", d, s.Confidence)
		}
	}
}

func TestRuleHistoryErrors(t *testing.T) {
	tbl := buildFixture(t)
	cfg := fixtureConfig()
	h := mustBuild(t, tbl, cfg)
	if _, err := RuleHistoryFromTableContext(bg, h, nil, itemset.New(milk)); err == nil {
		t.Error("empty antecedent accepted")
	}
	if _, err := RuleHistoryFromTableContext(bg, h, itemset.New(bread), nil); err == nil {
		t.Error("empty consequent accepted")
	}
	if _, err := RuleHistoryFromTableContext(bg, h, itemset.New(bread), itemset.New(bread)); err == nil {
		t.Error("overlapping rule accepted")
	}
	if _, err := RuleHistoryFromTableContext(bg, h, itemset.New(97), itemset.New(98)); err == nil {
		t.Error("never-frequent rule accepted")
	}
	// A table shallower than the rule cannot answer (the facade's
	// one-call form builds at the rule's own depth).
	cfg.MaxK = 1
	if _, err := RuleHistoryFromTableContext(bg, mustBuild(t, tbl, cfg), itemset.New(bread), itemset.New(milk)); err == nil {
		t.Error("table counting only 1-itemsets answered a 2-item rule")
	}
}
