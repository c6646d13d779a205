package core

import (
	"context"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// Items of the fixture.
const (
	bread    itemset.Item = 1
	milk     itemset.Item = 2
	bbq      itemset.Item = 3
	charcoal itemset.Item = 4
	choc     itemset.Item = 5
	wine     itemset.Item = 6
)

// fixtureStart is a Monday, so weekday arithmetic is easy to read:
// day offset d has ISO weekday (d mod 7) + 1.
var fixtureStart = time.Date(2024, 1, 1, 12, 0, 0, 0, time.UTC)

// buildFixture creates 28 days × 10 transactions with three planted
// temporal rules:
//
//   - {bread} ⇒ {milk}: holds every day (8/10 transactions, conf 0.8).
//   - {bbq} ⇒ {charcoal}: all 10 transactions on days 7..13 only — a
//     one-week valid period.
//   - {choc} ⇒ {wine}: 9/10 transactions on Saturdays and Sundays
//     (offsets 5,6 mod 7) — a weekend periodicity.
func buildFixture(t *testing.T) *tdb.TxTable {
	t.Helper()
	tbl, err := tdb.NewTxTable("fixture")
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 28; d++ {
		at := fixtureStart.AddDate(0, 0, d)
		weekend := d%7 == 5 || d%7 == 6
		seasonal := d >= 7 && d <= 13
		for i := 0; i < 10; i++ {
			items := []itemset.Item{bread}
			if i < 8 {
				items = append(items, milk)
			}
			if seasonal {
				items = append(items, bbq, charcoal)
			}
			if weekend && i < 9 {
				items = append(items, choc, wine)
			}
			tbl.Append(at.Add(time.Duration(i)*time.Minute), itemset.New(items...))
		}
	}
	return tbl
}

// bg is the context of every test that does not exercise cancellation.
var bg = context.Background()

// mustBuild is a cold hold-table build that fails the test on error.
func mustBuild(t testing.TB, tbl *tdb.TxTable, cfg Config) *HoldTable {
	t.Helper()
	h, err := BuildHoldTableContext(bg, tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func fixtureConfig() Config {
	return Config{
		Granularity:   timegran.Day,
		MinSupport:    0.5,
		MinConfidence: 0.7,
		MinFreq:       1.0,
	}
}

func dayGranule(d int) int64 {
	return timegran.GranuleOf(fixtureStart.AddDate(0, 0, d), timegran.Day)
}

func TestConfigValidation(t *testing.T) {
	tbl := buildFixture(t)
	bad := []Config{
		{Granularity: timegran.Day, MinSupport: 0, MinFreq: 1},
		{Granularity: timegran.Day, MinSupport: 1.5, MinFreq: 1},
		{Granularity: timegran.Day, MinSupport: 0.5, MinConfidence: 2, MinFreq: 1},
		{Granularity: timegran.Day, MinSupport: 0.5, MinFreq: 0},
		{Granularity: timegran.Day, MinSupport: 0.5, MinFreq: 1.5},
		{Granularity: timegran.Granularity(99), MinSupport: 0.5, MinFreq: 1},
		{Granularity: timegran.Day, MinSupport: 0.5, MinFreq: 1, MinGranuleTx: -1},
		// a negative MaxK used to read as "stop after level 1"
		{Granularity: timegran.Day, MinSupport: 0.5, MinFreq: 1, MaxK: -1},
	}
	for i, cfg := range bad {
		if _, err := BuildHoldTableContext(bg, tbl, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	empty, _ := tdb.NewTxTable("empty")
	if _, err := BuildHoldTableContext(bg, empty, fixtureConfig()); err == nil {
		t.Error("empty table accepted")
	}
}

func TestBuildHoldTableBasics(t *testing.T) {
	tbl := buildFixture(t)
	h := mustBuild(t, tbl, fixtureConfig())
	if h.NGranules() != 28 || h.NActive != 28 {
		t.Fatalf("granules=%d active=%d", h.NGranules(), h.NActive)
	}
	for gi := 0; gi < 28; gi++ {
		if h.TxCounts[gi] != 10 || h.MinCounts[gi] != 5 {
			t.Fatalf("granule %d: tx=%d min=%d", gi, h.TxCounts[gi], h.MinCounts[gi])
		}
	}
	// bread is in every transaction.
	bc := flatCounts(h, itemset.New(bread))
	if bc == nil {
		t.Fatal("{bread} not granule-frequent")
	}
	for gi, c := range bc {
		if c != 10 {
			t.Errorf("count(bread, day %d) = %d", gi, c)
		}
	}
	// {bbq, charcoal} is frequent only on days 7..13.
	sc := flatCounts(h, itemset.New(bbq, charcoal))
	if sc == nil {
		t.Fatal("{bbq,charcoal} not granule-frequent")
	}
	for gi, c := range sc {
		want := int32(0)
		if gi >= 7 && gi <= 13 {
			want = 10
		}
		if c != want {
			t.Errorf("count(bbq+charcoal, day %d) = %d, want %d", gi, c, want)
		}
	}
	// Level sizes: frequent singles are bread, milk (everywhere), and
	// bbq/charcoal/choc/wine (somewhere).
	if got := len(h.ByK[1]); got != 6 {
		t.Errorf("frequent 1-itemsets = %d, want 6", got)
	}
}

func TestHoldsSequences(t *testing.T) {
	tbl := buildFixture(t)
	h := mustBuild(t, tbl, fixtureConfig())
	check := func(ante, cons itemset.Set, wantHold func(d int) bool) {
		t.Helper()
		rc := RuleCandidate{Ante: ante, Cons: cons, Full: ante.Union(cons)}
		hold, ok := holdSequence(h, rc)
		if !ok {
			t.Fatalf("rule %v=>%v has no hold sequence", ante, cons)
		}
		for d := 0; d < 28; d++ {
			if hold[d] != wantHold(d) {
				t.Errorf("rule %v=>%v day %d: hold=%v want %v", ante, cons, d, hold[d], wantHold(d))
			}
		}
	}
	check(itemset.New(bread), itemset.New(milk), func(d int) bool { return true })
	check(itemset.New(bbq), itemset.New(charcoal), func(d int) bool { return d >= 7 && d <= 13 })
	check(itemset.New(choc), itemset.New(wine), func(d int) bool { return d%7 == 5 || d%7 == 6 })

	// A rule whose full itemset is never frequent.
	if _, ok := holdSequence(h, RuleCandidate{
		Ante: itemset.New(bread), Cons: itemset.New(99),
		Full: itemset.New(bread, 99),
	}); ok {
		t.Error("phantom rule produced a hold sequence")
	}
}

func TestMaximalDenseIntervals(t *testing.T) {
	on := func(n int, idx ...int) []bool {
		v := make([]bool, n)
		for _, i := range idx {
			v[i] = true
		}
		return v
	}
	allActive := func(n int) []bool {
		v := make([]bool, n)
		for i := range v {
			v[i] = true
		}
		return v
	}
	cases := []struct {
		name    string
		hold    []bool
		active  []bool
		minFreq float64
		minLen  int
		want    []ivOff
	}{
		{
			name: "single run", hold: on(10, 3, 4, 5), active: allActive(10),
			minFreq: 1, minLen: 2, want: []ivOff{{3, 5}},
		},
		{
			name: "two runs", hold: on(10, 1, 2, 6, 7, 8), active: allActive(10),
			minFreq: 1, minLen: 2, want: []ivOff{{1, 2}, {6, 8}},
		},
		{
			name: "min length filters", hold: on(10, 1, 5, 6), active: allActive(10),
			minFreq: 1, minLen: 2, want: []ivOff{{5, 6}},
		},
		{
			name: "gap tolerated at lower freq", hold: on(10, 2, 3, 5, 6), active: allActive(10),
			minFreq: 0.8, minLen: 2, want: []ivOff{{2, 6}},
		},
		{
			name: "inactive granule is neutral", hold: on(10, 2, 3, 5, 6),
			active:  func() []bool { a := allActive(10); a[4] = false; return a }(),
			minFreq: 1, minLen: 2, want: []ivOff{{2, 6}},
		},
		{
			name: "nothing holds", hold: on(10), active: allActive(10),
			minFreq: 1, minLen: 1, want: nil,
		},
		{
			name: "whole span", hold: allActive(6), active: allActive(6),
			minFreq: 1, minLen: 2, want: []ivOff{{0, 5}},
		},
	}
	for _, c := range cases {
		got := denseIntervalsOver(c.hold, c.active, c.minFreq, c.minLen)
		if len(got) != len(c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: got %v, want %v", c.name, got, c.want)
				break
			}
		}
	}
}

func TestMineValidPeriodsFixture(t *testing.T) {
	tbl := buildFixture(t)
	rules, err := MineValidPeriodsFromTableContext(bg, mustBuild(t, tbl, fixtureConfig()), PeriodConfig{MinLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	find := func(ante, cons itemset.Set) []PeriodRule {
		var out []PeriodRule
		for _, r := range rules {
			if r.Rule.Antecedent.Equal(ante) && r.Rule.Consequent.Equal(cons) {
				out = append(out, r)
			}
		}
		return out
	}
	// {bread} ⇒ {milk}: the whole 28-day span.
	bm := find(itemset.New(bread), itemset.New(milk))
	if len(bm) != 1 {
		t.Fatalf("{bread}=>{milk} periods = %d, want 1", len(bm))
	}
	if bm[0].Interval.Lo != dayGranule(0) || bm[0].Interval.Hi != dayGranule(27) {
		t.Errorf("{bread}=>{milk} interval = %v", bm[0].Interval)
	}
	if bm[0].Freq != 1 || bm[0].FeatureGranules != 28 {
		t.Errorf("{bread}=>{milk} freq=%v granules=%d", bm[0].Freq, bm[0].FeatureGranules)
	}
	if bm[0].Rule.Confidence < 0.79 || bm[0].Rule.Confidence > 0.81 {
		t.Errorf("{bread}=>{milk} aggregate confidence = %v", bm[0].Rule.Confidence)
	}

	// {bbq} ⇒ {charcoal}: exactly days 7..13.
	sc := find(itemset.New(bbq), itemset.New(charcoal))
	if len(sc) != 1 {
		t.Fatalf("{bbq}=>{charcoal} periods = %d, want 1", len(sc))
	}
	if sc[0].Interval.Lo != dayGranule(7) || sc[0].Interval.Hi != dayGranule(13) {
		t.Errorf("{bbq}=>{charcoal} interval = [%d,%d], want [%d,%d]",
			sc[0].Interval.Lo, sc[0].Interval.Hi, dayGranule(7), dayGranule(13))
	}
	if sc[0].Rule.Confidence != 1 {
		t.Errorf("{bbq}=>{charcoal} confidence in period = %v", sc[0].Rule.Confidence)
	}

	// {choc} ⇒ {wine}: four two-day weekend periods.
	cw := find(itemset.New(choc), itemset.New(wine))
	if len(cw) != 4 {
		t.Fatalf("{choc}=>{wine} periods = %d, want 4", len(cw))
	}
	for i, r := range cw {
		wantLo := dayGranule(5 + 7*i)
		if r.Interval.Lo != wantLo || r.Interval.Hi != wantLo+1 {
			t.Errorf("weekend period %d = [%d,%d], want [%d,%d]", i, r.Interval.Lo, r.Interval.Hi, wantLo, wantLo+1)
		}
	}

	// The Window feature must match exactly the granules of the period.
	w := sc[0].Feature
	if !w.Matches(timegran.Day, dayGranule(7)) || !w.Matches(timegran.Day, dayGranule(13)) {
		t.Error("window feature misses its own period")
	}
	if w.Matches(timegran.Day, dayGranule(6)) || w.Matches(timegran.Day, dayGranule(14)) {
		t.Error("window feature covers granules outside the period")
	}
}

func TestMineValidPeriodsAcrossInactiveGap(t *testing.T) {
	tbl, _ := tdb.NewTxTable("gap")
	// Rule holds on days 0..2 and 4..6; day 3 has no transactions at
	// all (inactive) and must not break the period.
	for _, d := range []int{0, 1, 2, 4, 5, 6} {
		at := fixtureStart.AddDate(0, 0, d)
		for i := 0; i < 5; i++ {
			tbl.Append(at.Add(time.Duration(i)*time.Minute), itemset.New(bread, milk))
		}
	}
	rules, err := MineValidPeriodsFromTableContext(bg, mustBuild(t, tbl, fixtureConfig()), PeriodConfig{MinLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	var bm []PeriodRule
	for _, r := range rules {
		if r.Rule.Antecedent.Equal(itemset.New(bread)) && r.Rule.Consequent.Equal(itemset.New(milk)) {
			bm = append(bm, r)
		}
	}
	if len(bm) != 1 || bm[0].Interval.Lo != dayGranule(0) || bm[0].Interval.Hi != dayGranule(6) {
		t.Errorf("gap periods = %+v, want one spanning days 0..6", bm)
	}
	if bm[0].FeatureGranules != 6 {
		t.Errorf("active granules in period = %d, want 6", bm[0].FeatureGranules)
	}
}

func TestMineTraditionalMissesTemporalRules(t *testing.T) {
	tbl := buildFixture(t)
	rules, err := MineTraditionalContext(bg, tbl, Config{MinSupport: 0.5, MinConfidence: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	hasRule := func(ante, cons itemset.Set) bool {
		for _, r := range rules {
			if r.Antecedent.Equal(ante) && r.Consequent.Equal(cons) {
				return true
			}
		}
		return false
	}
	if !hasRule(itemset.New(bread), itemset.New(milk)) {
		t.Error("traditional mining misses the always-on rule")
	}
	// Overall support of the seasonal pair is 70/280 = 0.25 < 0.5 and
	// of the weekend pair 72/280 ≈ 0.257 < 0.5: both invisible without
	// the temporal dimension. That is the paper's E1 claim.
	if hasRule(itemset.New(bbq), itemset.New(charcoal)) {
		t.Error("traditional mining should not see the seasonal rule at 0.5 support")
	}
	if hasRule(itemset.New(choc), itemset.New(wine)) {
		t.Error("traditional mining should not see the weekend rule at 0.5 support")
	}
}

// TestMinHitsExact holds the frequency bound of every detector to the
// exact ceiling of a rational frequency p/q of n granules, at small n
// and at the large n of hour granularity over years or minute
// granularity over a month, where minFreq·n carries more float error
// than an absolute epsilon absorbs: 0.55·40980 is 22539 exactly, and
// one more hit must not be asked for.
func TestMinHitsExact(t *testing.T) {
	if got := minHits(0.55, 40980); got != 22539 {
		t.Fatalf("minHits(0.55, 40980) = %d, want 22539", got)
	}
	fracs := [][2]int{{1, 10}, {1, 4}, {1, 3}, {1, 2}, {55, 100}, {3, 5}, {2, 3}, {7, 10}, {3, 4}, {9, 10}, {95, 100}, {1, 1}}
	ranges := [][2]int{{0, 3000}, {40000, 42000}, {199000, 201000}, {999000, 1000000}}
	for _, f := range fracs {
		p, q := f[0], f[1]
		minFreq := float64(p) / float64(q)
		for _, r := range ranges {
			for n := r[0]; n <= r[1]; n++ {
				if want := (p*n + q - 1) / q; minHits(minFreq, n) != want {
					t.Fatalf("minHits(%d/%d, %d) = %d, want %d", p, q, n, minHits(minFreq, n), want)
				}
			}
		}
	}
}
