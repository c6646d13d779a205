package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
	"time"

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
