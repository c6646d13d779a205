package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// appendDays appends count transactions with the given items on day
// offset d and returns the touched granule.
func appendDay(tbl *tdb.TxTable, d, count int, items ...itemset.Item) timegran.Granule {
	at := fixtureStart.AddDate(0, 0, d)
	for i := 0; i < count; i++ {
		tbl.Append(at.Add(time.Duration(i+100)*time.Second), itemset.New(items...))
	}
	return timegran.GranuleOf(at, timegran.Day)
}

// TestMaintainInSpanDirty appends into granules strictly inside the old
// span — the case Extend cannot handle — and checks bit-identity with a
// cold rebuild.
func TestMaintainInSpanDirty(t *testing.T) {
	tbl := buildFixture(t)
	h := mustBuild(t, tbl, fixtureConfig())
	// Day 3: a burst of {choc, wine} makes the weekend pair frequent on
	// a weekday (newcomer path is not hit — the pair is tracked — but
	// its vector changes in the middle of the span). Day 10: extra
	// transactions without bbq raise the threshold so {bbq, charcoal}
	// may drop below it there.
	g3 := appendDay(tbl, 3, 12, choc, wine)
	g10 := appendDay(tbl, 10, 10, bread)
	m, err := h.MaintainContext(bg, tbl, []timegran.Granule{g3, g10})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := mustBuild(t, tbl, fixtureConfig())
	if !holdTablesEqual(m, rebuilt) {
		t.Fatal("Maintain differs from full rebuild")
	}
}

// TestMaintainNewcomerRecovery appends a brand-new pair frequent in one
// dirty granule; its clean-region history must be recovered exactly.
func TestMaintainNewcomerRecovery(t *testing.T) {
	tbl := buildFixture(t)
	// Sprinkle sub-threshold occurrences of {7,8} through the history so
	// recovery has something non-zero to find.
	for d := 0; d < 28; d += 4 {
		appendDay(tbl, d, 2, 7, 8)
	}
	h := mustBuild(t, tbl, fixtureConfig())
	if h.Counts(itemset.New(7, 8)) != nil {
		t.Fatal("fixture: {7,8} already tracked")
	}
	g := appendDay(tbl, 14, 15, 7, 8)
	m, err := h.MaintainContext(bg, tbl, []timegran.Granule{g})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := mustBuild(t, tbl, fixtureConfig())
	if !holdTablesEqual(m, rebuilt) {
		t.Fatal("Maintain differs from full rebuild")
	}
	if m.Counts(itemset.New(7, 8)) == nil {
		t.Fatal("newcomer pair not tracked after Maintain")
	}
}

// TestMaintainReportsCounting: a maintenance's trace names the backend
// each of its counters resolved to, as a build's passes do — the dirty
// region's on every level's pass, the clean region's on the risers' own
// passes — and counts the risers it recovered: exactly the itemsets the
// maintained table tracks and its receiver did not. A single basket,
// under one word of rows, counts on the flat index as a day-sized
// region does.
func TestMaintainReportsCounting(t *testing.T) {
	for _, baskets := range []int{1, 63, 70} {
		tbl := buildFixture(t)
		for d := 0; d < 28; d += 4 {
			appendDay(tbl, d, 2, 7, 8) // history for the risers to recover
		}
		h := mustBuild(t, tbl, fixtureConfig())
		cleanRows := int64(tbl.Len())
		g := appendDay(tbl, 30, baskets, 7, 8)
		trace := obs.NewTrace("")
		cfg := h.Cfg
		cfg.Tracer = trace
		m, err := h.withCfg(cfg).MaintainContext(bg, tbl, []timegran.Granule{g})
		if err != nil {
			t.Fatal(err)
		}
		if !holdTablesEqual(m, mustBuild(t, tbl, fixtureConfig())) {
			t.Fatalf("%d baskets: Maintain differs from full rebuild", baskets)
		}
		var risen int64
		for k := 1; k < len(m.ByK); k++ {
			for _, s := range m.ByK[k] {
				if h.Counts(s) == nil {
					risen++
				}
			}
		}
		forest := trace.Tree()
		if got := forest[0].Attrs[obs.MetricMaintainRisers]; risen == 0 || got != strconv.FormatInt(risen, 10) {
			t.Errorf("%d baskets: %s = %q, want the %d itemsets new to the table", baskets, obs.MetricMaintainRisers, got, risen)
		}
		var dirtyPass, cleanPass bool
		for _, p := range obs.Summarize(forest).Passes {
			switch {
			case p.Level >= 2 && p.Rows == int64(baskets):
				dirtyPass = true
				if p.Backend != "bitmap" {
					t.Errorf("%d baskets: dirty pass L%d counted on %q, want bitmap", baskets, p.Level, p.Backend)
				}
			case p.Rows == cleanRows:
				cleanPass = true
				if p.Backend != "bitmap" {
					t.Errorf("%d baskets: riser pass L%d counted on %q, want bitmap", baskets, p.Level, p.Backend)
				}
			}
		}
		if !dirtyPass || !cleanPass {
			t.Errorf("%d baskets: passes %+v lack a dirty pass past level 1 or a riser pass", baskets, obs.Summarize(forest).Passes)
		}
	}
}

// TestMaintainSpanGrowth covers appends both before the old span start
// and after its end, all declared dirty.
func TestMaintainSpanGrowth(t *testing.T) {
	tbl := buildFixture(t)
	h := mustBuild(t, tbl, fixtureConfig())
	gPre := appendDay(tbl, -2, 10, bread, milk)
	gPost := appendDay(tbl, 30, 10, bread, milk)
	m, err := h.MaintainContext(bg, tbl, []timegran.Granule{gPre, gPost})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := mustBuild(t, tbl, fixtureConfig())
	if !holdTablesEqual(m, rebuilt) {
		t.Fatal("Maintain differs from full rebuild after span growth")
	}
}

// TestMaintainIncompleteDirtyList drops a changed granule from the
// dirty list; Maintain must refuse rather than splice stale counts.
func TestMaintainIncompleteDirtyList(t *testing.T) {
	tbl := buildFixture(t)
	h := mustBuild(t, tbl, fixtureConfig())
	g5 := appendDay(tbl, 5, 3, bread)
	appendDay(tbl, 9, 3, bread)
	if _, err := h.MaintainContext(bg, tbl, []timegran.Granule{g5}); err == nil {
		t.Fatal("Maintain accepted an incomplete dirty list")
	}
	// The complete list is fine.
	g9 := timegran.GranuleOf(fixtureStart.AddDate(0, 0, 9), timegran.Day)
	if _, err := h.MaintainContext(bg, tbl, []timegran.Granule{g5, g9}); err != nil {
		t.Fatal(err)
	}
}

// TestMaintainWithDirtySince wires the table's change log to Maintain:
// the production path the cache uses.
func TestMaintainWithDirtySince(t *testing.T) {
	tbl := buildFixture(t)
	epoch := tbl.Epoch()
	h := mustBuild(t, tbl, fixtureConfig())
	appendDay(tbl, 2, 6, choc, wine)
	appendDay(tbl, 20, 4, bbq, charcoal)
	appendDay(tbl, 29, 10, bread, milk)
	dirty, _, ok := tbl.DirtySince(timegran.Day, epoch)
	if !ok {
		t.Fatal("DirtySince not covered")
	}
	m, err := h.MaintainContext(bg, tbl, dirty)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := mustBuild(t, tbl, fixtureConfig())
	if !holdTablesEqual(m, rebuilt) {
		t.Fatal("Maintain(DirtySince) differs from full rebuild")
	}
}

// TestQuickMaintainEquivalent is the property-based version: random
// base data, a random batch of appends into random granules (inside and
// outside the old span), Maintain must equal a cold rebuild.
func TestQuickMaintainEquivalent(t *testing.T) {
	cfg := Config{Granularity: timegran.Day, MinSupport: 0.4, MinConfidence: 0.5, MinFreq: 1, MaxK: 4}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl, _ := tdb.NewTxTable("q")
		start := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
		days := 6 + rng.Intn(6)
		for d := 0; d < days; d++ {
			for i, ntx := 0, 2+rng.Intn(5); i < ntx; i++ {
				var items []itemset.Item
				for x := itemset.Item(1); x <= 5; x++ {
					if rng.Intn(2) == 0 {
						items = append(items, x)
					}
				}
				if len(items) == 0 {
					items = append(items, 1)
				}
				tbl.Append(start.AddDate(0, 0, d).Add(time.Duration(i)*time.Minute), itemset.New(items...))
			}
		}
		epoch := tbl.Epoch()
		h, err := BuildHoldTableContext(bg, tbl, cfg)
		if err != nil {
			return true // degenerate (e.g. no active granule): nothing to maintain
		}
		// Random appends: days -1..days+2, so prepends, in-span and
		// extension all occur.
		for a, na := 0, 1+rng.Intn(8); a < na; a++ {
			d := -1 + rng.Intn(days+3)
			var items []itemset.Item
			for x := itemset.Item(1); x <= 5; x++ {
				if rng.Intn(2) == 0 {
					items = append(items, x)
				}
			}
			if len(items) == 0 {
				items = append(items, 2)
			}
			tbl.Append(start.AddDate(0, 0, d).Add(time.Duration(a)*time.Second), itemset.New(items...))
		}
		dirty, _, ok := tbl.DirtySince(timegran.Day, epoch)
		if !ok {
			return false
		}
		m, err := h.MaintainContext(bg, tbl, dirty)
		if err != nil {
			return false
		}
		rebuilt, err := BuildHoldTableContext(bg, tbl, cfg)
		if err != nil {
			return false
		}
		return holdTablesEqual(m, rebuilt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMaintainCarryChecksContext pins the cancellation bound of
// MaintainContext's carry loops: the level-1 loop over the stored items
// and each level's loop over its joined candidates sample the context
// at least once per keepCheckEvery entries, on top of the checks the
// join itself makes, and a maintenance cancelled at any of its checks
// returns context.Canceled or, when no check ran after the cancel,
// exactly the uncancelled table. The cases are one wide level 1 (MaxK
// 1) and a level 2 of a few thousand candidates.
func TestMaintainCarryChecksContext(t *testing.T) {
	for _, tc := range []struct {
		items, maxK int
	}{{6000, 1}, {160, 2}} {
		all := make([]itemset.Item, tc.items)
		for x := range all {
			all[x] = itemset.Item(x)
		}
		day := []itemset.Set{itemset.New(all...), itemset.New(all...), itemset.New(all...), itemset.New(all...)}
		tbl := tableOfDays(t, day, day, day)
		cfg := Config{Granularity: timegran.Day, MinSupport: 0.5, MinConfidence: 0.5, MinFreq: 1, MaxK: tc.maxK}
		h := mustBuild(t, tbl, cfg)
		at := time.Date(2001, 3, 2, 18, 0, 0, 0, time.UTC)
		tbl.Append(at, itemset.New(all[:10]...))
		dirty := []timegran.Granule{timegran.GranuleOf(at, timegran.Day)}

		want, err := h.MaintainContext(bg, tbl, dirty)
		if err != nil {
			t.Fatal(err)
		}
		ctx := newCheckpointCtx(math.MaxInt64)
		if _, err := h.MaintainContext(ctx, tbl, dirty); err != nil {
			t.Fatal(err)
		}
		calls := math.MaxInt64 - ctx.left.Load()
		// The checks the carry loops must add to the join's own.
		need := int64(len(want.ByK[1])-1) / keepCheckEvery
		if tc.maxK >= 2 {
			join := newCheckpointCtx(math.MaxInt64)
			cands, _, _, err := generateFromSets(join, want.ByK[1])
			if err != nil {
				t.Fatal(err)
			}
			need += math.MaxInt64 - join.left.Load() + int64(len(cands)-1)/keepCheckEvery
		}
		if calls < need {
			t.Errorf("%d items, MaxK %d: %d context checks, want ≥ %d", tc.items, tc.maxK, calls, need)
		}
		for n := int64(1); n <= calls; n++ {
			got, err := h.MaintainContext(newCheckpointCtx(n), tbl, dirty)
			switch {
			case errors.Is(err, context.Canceled):
			case err != nil:
				t.Fatalf("%d items, cancelled at check %d: %v", tc.items, n, err)
			case !holdTablesEqual(got, want):
				t.Fatalf("%d items, cancelled at check %d: a table that differs from the uncancelled one", tc.items, n)
			}
		}
	}
}

// level2Day appends rows baskets to day d: the hot items 0–9 each with
// probability 0.5, the cold items 10–29 each with 0.05, and the triple
// {40, 41, 42} whole with probability plant. It returns the day's
// granule.
func level2Day(tbl *tdb.TxTable, r *rand.Rand, d, rows int, plant float64) timegran.Granule {
	at := fixtureStart.AddDate(0, 0, d)
	for i := range rows {
		var items []itemset.Item
		for x := itemset.Item(0); x < 30; x++ {
			p := 0.5
			if x >= 10 {
				p = 0.05
			}
			if r.Float64() < p {
				items = append(items, x)
			}
		}
		if r.Float64() < plant {
			items = append(items, 40, 41, 42)
		}
		if len(items) == 0 {
			items = append(items, itemset.Item(r.Intn(10)))
		}
		tbl.Append(at.Add(time.Duration(i)*time.Second), itemset.New(items...))
	}
	return timegran.GranuleOf(at, timegran.Day)
}

// dirtyFrequentPairs counts the pairs frequent in at least one of the
// dirty granules active in h, by a direct count over each one's rows.
func dirtyFrequentPairs(tbl *tdb.TxTable, h *HoldTable, dirty []timegran.Granule) int {
	view, _ := tbl.Granules(h.Cfg.Granularity)
	frequent := map[[2]itemset.Item]bool{}
	for _, g := range dirty {
		gi := int(g - view.Span.Lo)
		if !bitAt(h.Active, gi) {
			continue
		}
		counts := map[[2]itemset.Item]int{}
		view.Source(gi).ForEach(func(tx itemset.Set) {
			for a := range tx {
				for _, y := range tx[a+1:] {
					counts[[2]itemset.Item{tx[a], y}]++
				}
			}
		})
		for p, c := range counts {
			if c >= h.MinCounts[gi] {
				frequent[p] = true
			}
		}
	}
	return len(frequent)
}

// TestMaintainLevel2FromDirtyRows: Maintain decides level 2 over the
// dirty rows — the tracked pairs that stay in level 1 and the pairs the
// build's pair decision finds frequent in a dirty granule — and the
// table equals a cold rebuild: for dirty granules at different
// thresholds (an inactive one made active at MinGranuleTx 15), a late
// row into an old granule, and a tracked pair whose items leave level
// 1; on the flat index with either route forced and at 1 and 2
// workers, on roaring, and on naive, which keeps the join. Level 2
// counts at most the tracked pairs plus the dirty-frequent ones, and
// its pass still reports the whole join of level 1 as generated.
func TestMaintainLevel2FromDirtyRows(t *testing.T) {
	type variant struct {
		backend                  apriori.Backend
		workers, pairCells, vert int
	}
	variants := []variant{
		{apriori.BackendAuto, 1, apriori.MaxPairCells, apriori.MaxVerticalItems},
		{apriori.BackendAuto, 2, apriori.MaxPairCells, 0},           // every granule on the triangle
		{apriori.BackendAuto, 1, 10, 0},                             // the triangle in row blocks
		{apriori.BackendAuto, 2, apriori.MaxPairCells, math.MaxInt}, // every granule on the index
		{apriori.BackendRoaring, 1, apriori.MaxPairCells, apriori.MaxVerticalItems},
		{apriori.BackendNaive, 1, apriori.MaxPairCells, apriori.MaxVerticalItems},
	}
	cases := []struct {
		name   string
		append func(tbl *tdb.TxTable, r *rand.Rand)
	}{
		{"thresholds", func(tbl *tdb.TxTable, r *rand.Rand) {
			level2Day(tbl, r, 10, 6, 0)    // a small new day: a low threshold
			level2Day(tbl, r, 11, 60, 0.5) // a large one, the triple frequent
			level2Day(tbl, r, 4, 9, 0)     // into the span
			level2Day(tbl, r, 7, 8, 0)     // lifts day 7 to 18 rows
		}},
		{"late", func(tbl *tdb.TxTable, r *rand.Rand) {
			level2Day(tbl, r, 10, 40, 0)
			level2Day(tbl, r, 2, 3, 0.9) // late rows: day 2 is long past
		}},
		{"item-leaves", func(tbl *tdb.TxTable, r *rand.Rand) {
			level2Day(tbl, r, 5, 90, 0) // the triple's one day, diluted
			level2Day(tbl, r, 10, 30, 0)
		}},
	}
	triple := itemset.New(40, 41)
	for seed := int64(0); seed < 4; seed++ {
		for _, minTx := range []int{1, 15} {
			for _, tc := range cases {
				r := rand.New(rand.NewSource(seed))
				tbl, err := tdb.NewTxTable("level2")
				if err != nil {
					t.Fatal(err)
				}
				for d := range 10 {
					rows, plant := 20+r.Intn(30), 0.0
					switch d {
					case 5:
						rows, plant = 30, 0.6 // the triple's only day
					case 7:
						rows = 10 // inactive at MinGranuleTx 15
					}
					level2Day(tbl, r, d, rows, plant)
				}
				epoch := tbl.Epoch()
				base := Config{Granularity: timegran.Day, MinSupport: 0.35, MinConfidence: 0.5, MinFreq: 0.5, MinGranuleTx: minTx}
				olds := make([]*HoldTable, len(variants))
				for i, v := range variants {
					cfg := base
					cfg.Backend, cfg.Workers = v.backend, v.workers
					olds[i] = mustBuild(t, tbl, cfg)
				}
				if olds[0].Counts(triple) == nil {
					t.Fatalf("seed %d: fixture: %v not tracked", seed, triple)
				}
				tc.append(tbl, r)
				dirty, _, ok := tbl.DirtySince(timegran.Day, epoch)
				if !ok {
					t.Fatal("DirtySince not covered")
				}
				for i, v := range variants {
					label := fmt.Sprintf("seed %d MinGranuleTx %d %s %+v", seed, minTx, tc.name, v)
					h := olds[i]
					want := mustBuild(t, tbl, h.Cfg)
					if tc.name == "item-leaves" && want.Counts(itemset.New(40)) != nil {
						t.Fatalf("%s: fixture: item 40 still in level 1", label)
					}
					cfg := h.Cfg
					trace := obs.NewTrace("")
					cfg.Tracer = trace
					m, err := h.withCfg(cfg).maintain(bg, tbl, dirty, v.pairCells, v.vert)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					m.Cfg.Tracer = nil
					sameHoldTable(t, label, want, m)
					if v.backend == apriori.BackendNaive {
						continue
					}
					var pass *obs.PassStats
					for _, p := range obs.Summarize(trace.Tree()).Passes {
						if p.Level == 2 {
							pass = &p
							break // the dirty pass; a riser pass follows it
						}
					}
					l1 := len(want.ByK[1])
					switch bound := len(h.ByK[2]) + dirtyFrequentPairs(tbl, want, dirty); {
					case pass == nil:
						t.Fatalf("%s: no level-2 pass", label)
					case pass.Counted > bound:
						t.Errorf("%s: level 2 counted %d pairs, over the %d tracked plus %d dirty-frequent",
							label, pass.Counted, len(h.ByK[2]), bound-len(h.ByK[2]))
					case pass.Generated != l1*(l1-1)/2:
						t.Errorf("%s: level 2 generated %d, want the join of %d items, %d", label, pass.Generated, l1, l1*(l1-1)/2)
					}
				}
			}
		}
	}
}
