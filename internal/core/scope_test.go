package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// scopeTable draws the data of the scope grid: txPerDay baskets a day
// from start, timestamps spread over the day, over a universe of ten
// items each drawn with probability 0.15, and three planted patterns so
// every task has rules to emit: {0,1} at weekends, {2,3,4} in the third
// to fifth weeks, {5,6} every fifth day.
func scopeTable(t *testing.T, seed int64, start time.Time, days, txPerDay int) *tdb.TxTable {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tbl, err := tdb.NewTxTable("scope")
	if err != nil {
		t.Fatal(err)
	}
	for d := range days {
		day := start.AddDate(0, 0, d)
		wd := day.Weekday()
		planted := [][]itemset.Item{}
		if wd == time.Saturday || wd == time.Sunday {
			planted = append(planted, []itemset.Item{0, 1})
		}
		if d >= 14 && d < 35 {
			planted = append(planted, []itemset.Item{2, 3, 4})
		}
		if d%5 == 0 {
			planted = append(planted, []itemset.Item{5, 6})
		}
		for range txPerDay {
			var items []itemset.Item
			for x := range 10 {
				if r.Float64() < 0.15 {
					items = append(items, itemset.Item(x))
				}
			}
			for _, p := range planted {
				if r.Float64() < 0.7 {
					items = append(items, p...)
				}
			}
			if len(items) == 0 {
				items = append(items, itemset.Item(r.Intn(10)))
			}
			tbl.Append(day.Add(time.Duration(r.Int63n(int64(24*time.Hour)))), itemset.New(items...))
		}
	}
	return tbl
}

// scopedTask is one statement of the grid: the scope its build takes
// and the operator that emits its rules.
type scopedTask struct {
	name  string
	scope Scope
	run   func(h *HoldTable) (any, error)
}

func scopedTasks(features []string) []scopedTask {
	var tasks []scopedTask
	for _, minLen := range []int{1, 2, 5} {
		p := PeriodConfig{MinLen: minLen}
		tasks = append(tasks, scopedTask{fmt.Sprintf("periods minlen %d", minLen), PeriodsScope(p), func(h *HoldTable) (any, error) {
			return MineValidPeriodsFromTableContext(bg, h, p)
		}})
	}
	for _, c := range []CycleConfig{{}, {MaxLen: 7, MinReps: 3}, {MaxLen: 3, MinReps: 10}} {
		tasks = append(tasks, scopedTask{fmt.Sprintf("cycles %+v", c), CyclesScope(c), func(h *HoldTable) (any, error) {
			return MineCyclesFromTableContext(bg, h, c)
		}})
	}
	for _, minReps := range []int{0, 3, 6} {
		c := CycleConfig{MinReps: minReps}
		tasks = append(tasks, scopedTask{fmt.Sprintf("calendars minreps %d", minReps), CalendarsScope(c), func(h *HoldTable) (any, error) {
			return MineCalendarPeriodicitiesFromTableContext(bg, h, c)
		}})
	}
	for _, expr := range features {
		p, err := timegran.ParsePattern(expr)
		if err != nil {
			panic(err)
		}
		tasks = append(tasks, scopedTask{"during " + expr, DuringScope(p), func(h *HoldTable) (any, error) {
			return MineDuringFromTableContext(bg, h, p)
		}})
	}
	return tasks
}

// sameOutcome reports whether two operator results agree: equal rules,
// or errors with equal text.
func sameOutcome(got, want any, gotErr, wantErr error) bool {
	if gotErr != nil || wantErr != nil {
		return gotErr != nil && wantErr != nil && gotErr.Error() == wantErr.Error()
	}
	return reflect.DeepEqual(got, want)
}

// ruleCount is the number of rules in an operator result.
func ruleCount(out any) int {
	if out == nil {
		return 0
	}
	return reflect.ValueOf(out).Len()
}

// checkScopedTable holds a scoped build to its definition over the
// unscoped reference: level by level, exactly the reference's itemsets
// frequent in at least the floor of the scoped table's active granules,
// with those frequency words and those counts there.
func checkScopedTable(t *testing.T, label string, ref, h *HoldTable) {
	t.Helper()
	fw := make([]uint64, len(h.Active))
	for k := 1; k < max(len(ref.ByK), len(h.ByK)); k++ {
		var want []itemset.Set
		var wantWords []uint64
		if k < len(ref.ByK) {
			for i, s := range ref.ByK[k] {
				apriori.AndInto(fw, ref.levelFreq(k, i), h.Active)
				if popcount(fw) >= h.floor {
					want = append(want, s)
					wantWords = append(wantWords, fw...)
				}
			}
		}
		var got []itemset.Set
		if k < len(h.ByK) {
			got = h.ByK[k]
		}
		if len(got) != len(want) {
			t.Fatalf("%s: level %d keeps %d itemsets, want %d (floor %d)", label, k, len(got), len(want), h.floor)
		}
		for i, s := range want {
			if !got[i].Equal(s) {
				t.Fatalf("%s: level %d itemset %d is %v, want %v", label, k, i, got[i], s)
			}
			if !slices.Equal(h.levelFreq(k, i), wantWords[i*len(fw):(i+1)*len(fw)]) {
				t.Fatalf("%s: %v frequency words differ", label, s)
			}
			gc, rc := h.Counts(s), ref.Counts(s)
			for gi := range h.NGranules() {
				if bitAt(h.Active, gi) && gc[gi] != rc[gi] {
					t.Fatalf("%s: %v counts %d at granule %d, want %d", label, s, gc[gi], gi, rc[gi])
				}
			}
		}
	}
}

// TestScopedBuildEmitsSameRules is the soundness law of a build scope:
// every task emits the same rules — or fails with the same error — over
// a build scoped to its statement as over the unscoped table, and the
// scoped table is exactly the unscoped one cut to its floor and cover.
// The grid walks the four tasks at day, week and hour granularity and
// several supports; MinFreq 0.5, 0.9 and 1; MinLen 1, 2 and 5;
// non-default MaxLen and MinReps; DURING features that are narrow, wide
// or cover no active granule; MaxK unbounded and 2. Each scoped build
// takes the next backend × workers {1, 2, 4} combination, and the
// level-2 decision's limits rotate so both routes and the triangle's
// row-blocked scan see floors above one.
func TestScopedBuildEmitsSameRules(t *testing.T) {
	daySpan := time.Date(2001, 5, 1, 0, 0, 0, 0, time.UTC)
	dayTable := scopeTable(t, 1, daySpan, 120, 16)
	grid := []struct {
		name     string
		tbl      *tdb.TxTable
		gran     timegran.Granularity
		supports []float64
		features []string
	}{
		{"day", dayTable, timegran.Day, []float64{0.1, 0.2, 0.35},
			[]string{"between 2001-06-01 and 2001-06-12", "not (weekday in (sat, sun))", "month in (dec)"}},
		{"week", dayTable, timegran.Week, []float64{0.05, 0.1, 0.2},
			[]string{"month in (jun)", "always", "month in (dec)"}},
		{"hour", scopeTable(t, 2, time.Date(2001, 6, 1, 0, 0, 0, 0, time.UTC), 5, 48), timegran.Hour, []float64{0.3, 0.6},
			[]string{"hour in (9..11)", "hour in (6..22)", "month in (dec)"}},
	}
	backends := []apriori.Backend{apriori.BackendNaive, apriori.BackendBitmap, apriori.BackendRoaring, apriori.BackendAuto}
	workers := []int{1, 2, 4}
	routes := []struct{ pairCells, verticalItems int }{
		{apriori.MaxPairCells, apriori.MaxVerticalItems}, {apriori.MaxPairCells, 0}, {10, math.MaxInt}, {1, 0},
	}
	cell, raised, emitted := 0, 0, 0
	for _, g := range grid {
		for si, support := range g.supports {
			base := Config{Granularity: g.gran, MinSupport: support, MinConfidence: 0.5, MinFreq: 1}
			if si == len(g.supports)-1 {
				base.MaxK = 2
			}
			ref := mustBuild(t, g.tbl, base)
			for _, task := range scopedTasks(g.features) {
				for _, minFreq := range []float64{0.5, 0.9, 1} {
					cfg := base
					cfg.MinFreq = minFreq
					want, wantErr := task.run(ref.withCfg(cfg))

					cfg.Scope = task.scope
					cfg.Backend = backends[cell%len(backends)]
					cfg.Workers = workers[cell/len(backends)%len(workers)]
					route := routes[cell/(len(backends)*len(workers))%len(routes)]
					label := fmt.Sprintf("%s support %g maxk %d %s freq %g %v×%d route %v",
						g.name, support, cfg.MaxK, task.name, minFreq, cfg.Backend, cfg.Workers, route)
					cell++
					h, err := buildHoldTable(bg, g.tbl, cfg, route.pairCells, route.verticalItems)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					checkScopedTable(t, label, ref, h)
					got, gotErr := task.run(h)
					if !sameOutcome(got, want, gotErr, wantErr) {
						t.Fatalf("%s: scoped build emits %d rules (err %v), unscoped %d (err %v)",
							label, ruleCount(got), gotErr, ruleCount(want), wantErr)
					}
					if h.floor > 1 {
						raised++
					}
					emitted += ruleCount(want)
				}
			}
		}
	}
	t.Logf("%d cells, %d with a floor above 1, %d rules emitted", cell, raised, emitted)
	if raised*2 < cell || emitted == 0 {
		t.Errorf("%d of %d cells raised the floor, %d rules emitted: the grid does not exercise the scope", raised, cell, emitted)
	}
}

// floorTable is a crafted day table from Thursday 1 March 2001
// (tableOfDays): four transactions a day, {1,2} on the days of hold and
// {3,4} on every other day, so the rule {1} ⇒ {2} holds exactly on hold.
func floorTable(t *testing.T, days int, hold ...int) *tdb.TxTable {
	t.Helper()
	txs := make([][]itemset.Set, days)
	for d := range txs {
		tx := itemset.New(3, 4)
		if slices.Contains(hold, d) {
			tx = itemset.New(1, 2)
		}
		txs[d] = []itemset.Set{tx, tx, tx, tx}
	}
	return tableOfDays(t, txs...)
}

// TestScopeFloorIsTight pins each task's floor at the largest m that
// still emits every rule: on a table crafted for the task, the rule
// {1} ⇒ {2} is emitted and its itemset is frequent in exactly m
// granules, so a floor of m + 1 would lose it. The scoped build still
// emits it.
func TestScopeFloorIsTight(t *testing.T) {
	weekend, err := timegran.ParsePattern("weekday in (sat, sun)")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		tbl     *tdb.TxTable
		minFreq float64
		task    scopedTask
		floor   int
	}{
		// Days 0..2 make a three-day period: MinLen 3 at frequency 1.
		{"periods minlen 3", floorTable(t, 10, 0, 1, 2), 1, scopedTask{scope: PeriodsScope(PeriodConfig{MinLen: 3}), run: func(h *HoldTable) (any, error) {
			return MineValidPeriodsFromTableContext(bg, h, PeriodConfig{MinLen: 3})
		}}, 3},
		// Days 1 and 4 bound a four-day period that holds on half of it.
		{"periods freq 0.5", floorTable(t, 10, 1, 4), 0.5, scopedTask{scope: PeriodsScope(PeriodConfig{MinLen: 4}), run: func(h *HoldTable) (any, error) {
			return MineValidPeriodsFromTableContext(bg, h, PeriodConfig{MinLen: 4})
		}}, 2},
		// Over 20 days the cycle (7, 6) occurs on days 6 and 13 only.
		{"cycles", floorTable(t, 20, 6, 13), 1, scopedTask{scope: CyclesScope(CycleConfig{MaxLen: 7}), run: func(h *HoldTable) (any, error) {
			return MineCyclesFromTableContext(bg, h, CycleConfig{MaxLen: 7})
		}}, 2},
		// Over 1 March .. 9 April the fifth of the month occurs twice.
		{"calendars", floorTable(t, 40, 4, 35), 1, scopedTask{scope: CalendarsScope(CycleConfig{}), run: func(h *HoldTable) (any, error) {
			return MineCalendarPeriodicitiesFromTableContext(bg, h, CycleConfig{})
		}}, 2},
		// Eight weekend days in four weeks; frequency 0.75 needs six.
		{"during", floorTable(t, 28, 2, 3, 9, 10, 16, 17), 0.75, scopedTask{scope: DuringScope(weekend), run: func(h *HoldTable) (any, error) {
			return MineDuringFromTableContext(bg, h, weekend)
		}}, 6},
	}
	rule := itemset.New(1, 2)
	for _, c := range cases {
		cfg := Config{Granularity: timegran.Day, MinSupport: 0.5, MinConfidence: 0.5, MinFreq: c.minFreq}
		ref := mustBuild(t, c.tbl, cfg)
		want, err := c.task.run(ref)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !strings.Contains(fmt.Sprint(want), "{1} => {2}") {
			t.Fatalf("%s: the crafted rule is not emitted: %v", c.name, want)
		}
		if n := popcount(ref.freqOf(rule)); n != c.floor {
			t.Fatalf("%s: the rule's itemset is frequent in %d granules; the table is crafted for %d", c.name, n, c.floor)
		}
		cfg.Scope = c.task.scope
		info, ok := (*HoldCache)(nil).ScopeOf(c.tbl, cfg)
		if !ok || info.Floor != c.floor {
			t.Fatalf("%s: floor %d (ok %v), want %d", c.name, info.Floor, ok, c.floor)
		}
		got, err := c.task.run(mustBuild(t, c.tbl, cfg))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: scoped build emits %v (err %v), want %v", c.name, got, err, want)
		}
	}
}

// TestScopeFloorAboveActiveScansNothing: a floor no itemset can reach
// builds an empty table without a pass — cycles that occur fewer than
// MinReps times, and a DURING feature that covers no active granule,
// which still fails with the unscoped table's error.
func TestScopeFloorAboveActiveScansNothing(t *testing.T) {
	tbl := floorTable(t, 20, 6, 13)
	dec, err := timegran.ParsePattern("month in (dec)")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Granularity: timegran.Day, MinSupport: 0.5, MinConfidence: 0.5, MinFreq: 1}
	ref := mustBuild(t, tbl, cfg)
	for _, task := range []scopedTask{
		{"cycles minreps 30", CyclesScope(CycleConfig{MinReps: 30}), func(h *HoldTable) (any, error) {
			return MineCyclesFromTableContext(bg, h, CycleConfig{MinReps: 30})
		}},
		{"during december", DuringScope(dec), func(h *HoldTable) (any, error) {
			return MineDuringFromTableContext(bg, h, dec)
		}},
	} {
		scoped := cfg
		scoped.Scope = task.scope
		trace := obs.NewTrace("")
		scoped.Tracer = trace
		h := mustBuild(t, tbl, scoped)
		if h.floor <= h.NActive || h.TotalItemsets() != 0 {
			t.Fatalf("%s: floor %d over %d active granules kept %d itemsets", task.name, h.floor, h.NActive, h.TotalItemsets())
		}
		if passes := obs.Summarize(trace.Tree()).Passes; len(passes) != 0 {
			t.Fatalf("%s: %d passes ran; the short-circuit scans nothing", task.name, len(passes))
		}
		want, wantErr := task.run(ref)
		got, gotErr := task.run(h)
		if !sameOutcome(got, want, gotErr, wantErr) {
			t.Fatalf("%s: scoped %v (err %v), unscoped %v (err %v)", task.name, got, gotErr, want, wantErr)
		}
	}
}

// TestScopeMarksSaturate: a pair frequent in more granules than a
// uint16 counts — eight years of hours — survives a floor above that
// cap on both routes of the level-2 decision, whose per-worker marks are
// summed saturating. The keep loop then applies the floor exactly.
func TestScopeMarksSaturate(t *testing.T) {
	tbl, err := tdb.NewTxTable("hours")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2001, 1, 1, 0, 30, 0, 0, time.UTC)
	const hours = 8 * 8760
	for i := range hours {
		tbl.Append(start.Add(time.Duration(i)*time.Hour), itemset.New(1, 2))
	}
	always, err := timegran.ParsePattern("always")
	if err != nil {
		t.Fatal(err)
	}
	for _, route := range []struct{ pairCells, verticalItems int }{{apriori.MaxPairCells, apriori.MaxVerticalItems}, {apriori.MaxPairCells, 0}} {
		for _, workers := range []int{1, 4} {
			cfg := Config{Granularity: timegran.Hour, MinSupport: 0.5, MinConfidence: 0.5, MinFreq: 1,
				Backend: apriori.BackendBitmap, Workers: workers, Scope: DuringScope(always)}
			h, err := buildHoldTable(bg, tbl, cfg, route.pairCells, route.verticalItems)
			if err != nil {
				t.Fatal(err)
			}
			if h.floor != hours || len(h.ByK) < 3 || len(h.ByK[2]) != 1 {
				t.Fatalf("route %v workers %d: floor %d, levels %d; the pair must survive", route, workers, h.floor, len(h.ByK))
			}
			rules, err := MineDuringFromTableContext(bg, h, always)
			if err != nil || len(rules) != 2 {
				t.Fatalf("route %v workers %d: %d rules (err %v), want both directions of {1,2}", route, workers, len(rules), err)
			}
		}
	}
}

// TestScopedRethreshold: re-thresholding a scoped table keeps its scope
// and equals a scoped cold build at the higher support.
func TestScopedRethreshold(t *testing.T) {
	tbl := scopeTable(t, 3, time.Date(2001, 5, 1, 0, 0, 0, 0, time.UTC), 90, 16)
	summer, err := timegran.ParsePattern("month in (6..7)")
	if err != nil {
		t.Fatal(err)
	}
	for _, scope := range []Scope{PeriodsScope(PeriodConfig{}), CyclesScope(CycleConfig{}), CalendarsScope(CycleConfig{}), DuringScope(summer)} {
		cfg := Config{Granularity: timegran.Day, MinSupport: 0.1, MinConfidence: 0.5, MinFreq: 0.9, Scope: scope}
		base := mustBuild(t, tbl, cfg)
		cfg.MinSupport = 0.2
		got, err := base.Rethreshold(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := mustBuild(t, tbl, cfg)
		sameHoldTable(t, "rethreshold "+scope.String(), want, got)
		if got.floor != want.floor || got.Cfg.Scope.task == "" {
			t.Fatalf("%v: re-thresholded floor %d (scope %v), want %d", scope, got.floor, got.Cfg.Scope, want.floor)
		}
	}
}

// TestScopedTableRefusesRefresh: MaintainContext and ExtendContext
// refuse a scoped table with an error naming the scope, and a cache
// never holds one — it builds unscoped whatever the statement's scope.
func TestScopedTableRefusesRefresh(t *testing.T) {
	tbl := buildFixture(t)
	cfg := fixtureConfig()
	cfg.Scope = CyclesScope(CycleConfig{})
	h := mustBuild(t, tbl, cfg)
	g := appendDay(tbl, 28, 10, bread, milk)
	if _, err := h.MaintainContext(bg, tbl, []timegran.Granule{g}); err == nil || !strings.Contains(err.Error(), "scoped to one cycles statement") {
		t.Fatalf("Maintain on a scoped table: %v", err)
	}
	if _, err := h.ExtendContext(bg, tbl); err == nil || !strings.Contains(err.Error(), "scoped to one cycles statement") {
		t.Fatalf("Extend on a scoped table: %v", err)
	}

	cache := NewHoldCache(DefaultCacheBytes)
	if _, ok := cache.ScopeOf(tbl, cfg); ok {
		t.Fatal("a cache reports a scope it does not apply")
	}
	got, err := cache.GetContext(bg, tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	unscoped := cfg
	unscoped.Scope = Scope{}
	if got.Cfg.Scope.task != "" || got.floor != 1 {
		t.Fatalf("cached table carries scope %v floor %d", got.Cfg.Scope, got.floor)
	}
	sameHoldTable(t, "cached", mustBuild(t, tbl, unscoped), got)
}
