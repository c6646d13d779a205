package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

func TestDetectCycles(t *testing.T) {
	allActive := func(n int) []bool {
		v := make([]bool, n)
		for i := range v {
			v[i] = true
		}
		return v
	}
	// Holds at offsets 1, 4, 7, 10, 13 of a 15-granule span: cycle
	// (3, 1) relative to span start.
	hold := make([]bool, 15)
	for i := 1; i < 15; i += 3 {
		hold[i] = true
	}
	got := detectCyclesOver(hold, allActive(15), 0, 6, 2, 1)
	want3_1 := false
	for _, c := range got {
		if c.Length == 3 && c.Offset == 1 {
			want3_1 = true
		}
		// Every returned cycle must actually be consistent with hold.
		for gi := range hold {
			if c.Matches(timegran.Day, int64(gi)) && !hold[gi] {
				t.Errorf("cycle %v claims granule %d but rule misses it", c, gi)
			}
		}
	}
	if !want3_1 {
		t.Errorf("cycle (3,1) not found in %v", got)
	}

	// Absolute offsets: same sequence but span starts at granule 100.
	// hold[1] is granule 101 → cycle (3, 101 mod 3 = 2).
	got = detectCyclesOver(hold, allActive(15), 100, 6, 2, 1)
	found := false
	for _, c := range got {
		if c.Length == 3 && c.Offset == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("absolute-offset cycle (3,2) not found in %v", got)
	}

	// minReps: a "cycle" of length 8 in a 15-granule span has at most 2
	// occurrences; with minReps=3 none of length 8 may appear.
	got = detectCyclesOver(hold, allActive(15), 0, 8, 3, 1)
	for _, c := range got {
		if c.Length == 8 {
			t.Errorf("cycle %v violates minReps", c)
		}
	}

	// Fuzzy matching: holds at 0,2,4,6,8 plus a miss at 4 → cycle (2,0)
	// at minFreq 0.8 but not at 1.
	hold2 := make([]bool, 10)
	for i := 0; i < 10; i += 2 {
		hold2[i] = true
	}
	hold2[4] = false
	has := func(cs []timegran.Cycle, l, o int64) bool {
		for _, c := range cs {
			if c.Length == l && c.Offset == o {
				return true
			}
		}
		return false
	}
	if has(detectCyclesOver(hold2, allActive(10), 0, 4, 2, 1), 2, 0) {
		t.Error("exact detection accepted a miss")
	}
	if !has(detectCyclesOver(hold2, allActive(10), 0, 4, 2, 0.75), 2, 0) {
		t.Error("fuzzy detection rejected 4/5 hits at minFreq 0.75")
	}

	// Inactive granules are neutral: a miss on an inactive granule does
	// not kill the cycle.
	active := allActive(10)
	active[4] = false
	if !has(detectCyclesOver(hold2, active, 0, 4, 2, 1), 2, 0) {
		t.Error("inactive miss killed the cycle")
	}
}

func TestFilterRedundantCycles(t *testing.T) {
	mk := func(l, o int64) timegran.Cycle { return timegran.Cycle{Length: l, Offset: o} }
	in := []timegran.Cycle{mk(2, 0), mk(4, 0), mk(4, 2), mk(6, 0), mk(3, 1), mk(6, 1)}
	got := FilterRedundantCycles(in)
	// (4,0), (4,2), (6,0) are implied by (2,0); (6,1)? 6%3==0 and
	// 1%3==1 == offset of (3,1) → implied. Survivors: (2,0), (3,1).
	want := []timegran.Cycle{mk(2, 0), mk(3, 1)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("FilterRedundantCycles = %v, want %v", got, want)
	}
}

func TestMineCyclesFixture(t *testing.T) {
	tbl := buildFixture(t)
	rules, err := MineCyclesFromTableContext(bg, mustBuild(t, tbl, fixtureConfig()), CycleConfig{MaxLen: 10, MinReps: 2})
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		ante, cons string
		l, o       int64
	}
	got := make(map[key]CyclicRule)
	for _, r := range rules {
		got[key{r.Rule.Antecedent.String(), r.Rule.Consequent.String(), r.Cycle.Length, r.Cycle.Offset}] = r
	}

	// {bread} ⇒ {milk} holds daily: cycle (1,0); all longer cycles are
	// redundant multiples and must be filtered.
	foundDaily := false
	for k := range got {
		if k.ante == itemset.New(bread).String() && k.cons == itemset.New(milk).String() {
			if k.l == 1 {
				foundDaily = true
			} else {
				t.Errorf("unfiltered redundant cycle (%d,%d) for the daily rule", k.l, k.o)
			}
		}
	}
	if !foundDaily {
		t.Error("daily cycle (1,0) not found for {bread}=>{milk}")
	}

	// {choc} ⇒ {wine}: weekly cycles on Saturday and Sunday granules.
	satOff := ((dayGranule(5) % 7) + 7) % 7
	sunOff := ((dayGranule(6) % 7) + 7) % 7
	cw := 0
	for k := range got {
		if k.ante == itemset.New(choc).String() && k.cons == itemset.New(wine).String() {
			cw++
			if k.l != 7 || (k.o != satOff && k.o != sunOff) {
				t.Errorf("unexpected weekend cycle (%d,%d)", k.l, k.o)
			}
		}
	}
	if cw != 2 {
		t.Errorf("weekend rule has %d cycles, want 2 (sat, sun)", cw)
	}

	// The seasonal rule holds one contiguous week only: no cycle.
	for k := range got {
		if k.ante == itemset.New(bbq).String() && k.cons == itemset.New(charcoal).String() {
			t.Errorf("seasonal rule reported cycle (%d,%d)", k.l, k.o)
		}
	}
}

func TestMineCalendarPeriodicitiesFixture(t *testing.T) {
	tbl := buildFixture(t)
	rules, err := MineCalendarPeriodicitiesFromTableContext(bg, mustBuild(t, tbl, fixtureConfig()), CycleConfig{MinReps: 2})
	if err != nil {
		t.Fatal(err)
	}
	var weekend *CalendarRule
	for i, r := range rules {
		if r.Rule.Antecedent.Equal(itemset.New(choc)) && r.Rule.Consequent.Equal(itemset.New(wine)) && r.Field == timegran.FieldWeekday {
			weekend = &rules[i]
		}
		// The daily rule holds on every weekday: uninformative, must
		// not be reported for the weekday field.
		if r.Rule.Antecedent.Equal(itemset.New(bread)) && r.Rule.Consequent.Equal(itemset.New(milk)) && r.Field == timegran.FieldWeekday {
			t.Errorf("always-on rule reported weekday periodicity %v", r.Feature)
		}
	}
	if weekend == nil {
		t.Fatal("weekend calendar periodicity not found")
	}
	cal, ok := weekend.Feature.(timegran.Calendar)
	if !ok {
		t.Fatalf("feature is %T", weekend.Feature)
	}
	if len(cal.Ranges) != 1 || cal.Ranges[0] != (timegran.FieldRange{Lo: 6, Hi: 7}) {
		t.Errorf("weekend ranges = %v, want [6..7]", cal.Ranges)
	}
	if weekend.Freq != 1 || weekend.FeatureGranules != 8 {
		t.Errorf("weekend freq=%v granules=%d", weekend.Freq, weekend.FeatureGranules)
	}
}

func mustPattern(t *testing.T, expr string) timegran.Pattern {
	t.Helper()
	p, err := timegran.ParsePattern(expr)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMineDuringFixture(t *testing.T) {
	h := mustBuild(t, buildFixture(t), fixtureConfig())
	rules, err := MineDuringFromTableContext(bg, h, mustPattern(t, "weekday in (sat, sun)"))
	if err != nil {
		t.Fatal(err)
	}
	var foundWeekend, foundDaily bool
	for _, r := range rules {
		if r.Rule.Antecedent.Equal(itemset.New(choc)) && r.Rule.Consequent.Equal(itemset.New(wine)) {
			foundWeekend = true
			if r.Freq != 1 || r.FeatureGranules != 8 {
				t.Errorf("weekend during-rule freq=%v granules=%d", r.Freq, r.FeatureGranules)
			}
			if r.Rule.Confidence != 1 {
				t.Errorf("weekend during-rule confidence=%v", r.Rule.Confidence)
			}
			// Aggregate support inside weekends: 72/80.
			if r.Rule.Support < 0.89 || r.Rule.Support > 0.91 {
				t.Errorf("weekend during-rule support=%v", r.Rule.Support)
			}
		}
		if r.Rule.Antecedent.Equal(itemset.New(bread)) && r.Rule.Consequent.Equal(itemset.New(milk)) {
			foundDaily = true
		}
		if r.Rule.Antecedent.Equal(itemset.New(bbq)) {
			t.Errorf("seasonal rule qualified during weekends: %v", r)
		}
	}
	if !foundWeekend || !foundDaily {
		t.Errorf("weekend=%v daily=%v rules missing", foundWeekend, foundDaily)
	}

	// A feature covering no data is an error.
	if _, err := MineDuringFromTableContext(bg, h, mustPattern(t, "month in (7)")); err == nil {
		t.Error("feature covering no granules accepted")
	}
	if _, err := MineDuringFromTableContext(bg, h, nil); err == nil {
		t.Error("nil feature accepted")
	}
}

func TestMineDuringLowerFreq(t *testing.T) {
	tbl := buildFixture(t)
	cfg := fixtureConfig()
	cfg.MinFreq = 0.2
	// Over the whole span ("always"), the seasonal rule holds in 7 of
	// 28 granules = 0.25 ≥ 0.2 → it must appear now.
	rules, err := MineDuringFromTableContext(bg, mustBuild(t, tbl, cfg), timegran.Always{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rules {
		if r.Rule.Antecedent.Equal(itemset.New(bbq)) && r.Rule.Consequent.Equal(itemset.New(charcoal)) {
			found = true
			if r.Freq < 0.24 || r.Freq > 0.26 {
				t.Errorf("seasonal freq = %v", r.Freq)
			}
		}
	}
	if !found {
		t.Error("seasonal rule missing at MinFreq 0.2 over always")
	}
}

// ---------------------------------------------------------------------
// Ablation pair equivalence.

func itemsetCyclesEqual(a, b []ItemsetCycles) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Set.Equal(b[i].Set) || !reflect.DeepEqual(a[i].Cycles, b[i].Cycles) {
			return false
		}
	}
	return true
}

func TestItemsetCycleMinersAgreeOnFixture(t *testing.T) {
	tbl := buildFixture(t)
	ccfg := CycleConfig{MaxLen: 10, MinReps: 2}
	seq, seqStats, err := MineItemsetCyclesSequential(tbl, fixtureConfig(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	inter, interStats, err := MineItemsetCyclesInterleaved(tbl, fixtureConfig(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if !itemsetCyclesEqual(seq, inter) {
		t.Errorf("miners disagree:\nseq   %v\ninter %v", seq, inter)
	}
	if len(seq) == 0 {
		t.Fatal("no itemset cycles found at all")
	}
	if interStats.CandidateGranulePairs > seqStats.CandidateGranulePairs {
		t.Errorf("interleaved did more counting work (%d) than sequential (%d)",
			interStats.CandidateGranulePairs, seqStats.CandidateGranulePairs)
	}
}

// randomTemporalTable plants random cyclic structure for the
// equivalence property test.
func randomTemporalTable(r *rand.Rand) *tdb.TxTable {
	tbl, _ := tdb.NewTxTable("rand")
	days := 14 + r.Intn(14)
	universe := 8
	base := time.Date(2023, 5, 1, 8, 0, 0, 0, time.UTC)
	// A couple of planted cyclic pairs.
	type planted struct {
		items []itemset.Item
		l, o  int
	}
	var plants []planted
	for p := 0; p < 2; p++ {
		a := itemset.Item(r.Intn(universe))
		b := itemset.Item(r.Intn(universe))
		if a == b {
			b = (b + 1) % itemset.Item(universe)
		}
		l := 2 + r.Intn(4)
		plants = append(plants, planted{items: []itemset.Item{a, b}, l: l, o: r.Intn(l)})
	}
	for d := 0; d < days; d++ {
		nTx := 4 + r.Intn(4)
		for i := 0; i < nTx; i++ {
			var items []itemset.Item
			for x := 0; x < universe; x++ {
				if r.Float64() < 0.2 {
					items = append(items, itemset.Item(x))
				}
			}
			for _, p := range plants {
				if d%p.l == p.o && r.Float64() < 0.9 {
					items = append(items, p.items...)
				}
			}
			if len(items) == 0 {
				items = []itemset.Item{itemset.Item(r.Intn(universe))}
			}
			tbl.Append(base.AddDate(0, 0, d).Add(time.Duration(i)*time.Minute), itemset.New(items...))
		}
	}
	return tbl
}

func TestQuickItemsetCycleMinersEquivalent(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 25,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(r.Int63())
		},
	}
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tbl := randomTemporalTable(r)
		mcfg := Config{
			Granularity:   timegran.Day,
			MinSupport:    0.3,
			MinConfidence: 0.5,
			MinFreq:       1,
		}
		ccfg := CycleConfig{MaxLen: 8, MinReps: 2}
		seq, seqStats, err := MineItemsetCyclesSequential(tbl, mcfg, ccfg)
		if err != nil {
			return false
		}
		inter, interStats, err := MineItemsetCyclesInterleaved(tbl, mcfg, ccfg)
		if err != nil {
			return false
		}
		if !itemsetCyclesEqual(seq, inter) {
			t.Logf("seed %d: seq=%v inter=%v", seed, seq, inter)
			return false
		}
		return interStats.CandidateGranulePairs <= seqStats.CandidateGranulePairs
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Error(err)
	}
}

func TestCycleConfigValidation(t *testing.T) {
	h := mustBuild(t, buildFixture(t), fixtureConfig())
	if _, err := MineCyclesFromTableContext(bg, h, CycleConfig{MaxLen: -1}); err == nil {
		t.Error("negative MaxLen accepted")
	}
	if _, err := MineCyclesFromTableContext(bg, h, CycleConfig{MinReps: -2}); err == nil {
		t.Error("negative MinReps accepted")
	}
	if _, err := MineValidPeriodsFromTableContext(bg, h, PeriodConfig{MinLen: -1}); err == nil {
		t.Error("negative MinLen accepted")
	}
}
