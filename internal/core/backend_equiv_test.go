package core

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/gen"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// backendTestTable draws a small temporal dataset with planted rules so
// all hold-table levels are populated.
func backendTestTable(t *testing.T, seed int64) *tdb.TxTable {
	t.Helper()
	weekend, err := timegran.NewCalendar(timegran.FieldWeekday, timegran.FieldRange{Lo: 6, Hi: 7})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := gen.GenerateTemporal(gen.TemporalConfig{
		Quest:        gen.QuestConfig{NItems: 120, NPatterns: 30, AvgTxLen: 8},
		Start:        time.Date(2001, 3, 1, 0, 0, 0, 0, time.UTC),
		Granularity:  timegran.Day,
		NGranules:    56,
		TxPerGranule: 25,
		Rules: []gen.PlantedRule{
			{Name: "weekend", Items: itemset.New(500, 501), Pattern: weekend, PInside: 0.5, POutside: 0.01},
		},
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// sameHoldTable asserts two builds agree exactly: same thresholds, same
// granule-frequent itemsets level by level, same per-granule counts.
func sameHoldTable(t *testing.T, label string, want, got *HoldTable) {
	t.Helper()
	if got.NGranules() != want.NGranules() || got.NActive != want.NActive {
		t.Fatalf("%s: granules %d/%d, want %d/%d", label, got.NGranules(), got.NActive, want.NGranules(), want.NActive)
	}
	for gi := range want.MinCounts {
		if got.MinCounts[gi] != want.MinCounts[gi] || bitAt(got.Active, gi) != bitAt(want.Active, gi) {
			t.Fatalf("%s: granule %d threshold %d/%v, want %d/%v",
				label, gi, got.MinCounts[gi], bitAt(got.Active, gi), want.MinCounts[gi], bitAt(want.Active, gi))
		}
	}
	if len(got.ByK) != len(want.ByK) {
		t.Fatalf("%s: %d levels, want %d", label, len(got.ByK)-1, len(want.ByK)-1)
	}
	for k := 1; k < len(want.ByK); k++ {
		if len(got.ByK[k]) != len(want.ByK[k]) {
			t.Fatalf("%s: level %d has %d itemsets, want %d", label, k, len(got.ByK[k]), len(want.ByK[k]))
		}
		for i, w := range want.ByK[k] {
			g := got.ByK[k][i]
			if !g.Equal(w) {
				t.Fatalf("%s: level %d item %d = %v, want %v", label, k, i, g, w)
			}
			wc, gc := want.Counts(w), got.Counts(g)
			for gi := range wc {
				if wc[gi] != gc[gi] {
					t.Fatalf("%s: %v counts differ at granule %d: %d, want %d", label, w, gi, gc[gi], wc[gi])
				}
			}
			if wf, gf := want.levelFreq(k, i), got.levelFreq(k, i); !slices.Equal(wf, gf) {
				t.Fatalf("%s: %v frequency words %x, want %x", label, w, gf, wf)
			}
		}
	}
}

// tableOfDays builds a table with days[d] as the transactions of day d
// (a nil day stays empty).
func tableOfDays(t *testing.T, days ...[]itemset.Set) *tdb.TxTable {
	t.Helper()
	tbl, err := tdb.NewTxTable("shape")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2001, 3, 1, 9, 0, 0, 0, time.UTC)
	for d, txs := range days {
		for i, tx := range txs {
			tbl.Append(start.AddDate(0, 0, d).Add(time.Duration(i)*time.Minute), tx)
		}
	}
	return tbl
}

// TestHoldTableBackendEquivalence is the per-granule half of the
// cross-backend property test: naive, bitmap and roaring
// builds of the HoldTable must agree bit for bit — same levels, a
// trailing empty level included, same vectors — with the parallel
// worker pool of each backend exercised as well. Naive is the
// unfiltered reference; the rest go through the level-2 pair decision,
// so the grid walks the shapes that decision has to get right.
func TestHoldTableBackendEquivalence(t *testing.T) {
	planted := backendTestTable(t, 42)
	base := Config{
		Granularity:   timegran.Day,
		MinSupport:    0.1,
		MinConfidence: 0.5,
		MinFreq:       0.8,
		MaxK:          3,
	}
	with := func(edit func(*Config)) Config {
		cfg := base
		edit(&cfg)
		return cfg
	}
	s := itemset.New
	const big = itemset.Item(4_000_000_000)
	cases := []struct {
		name      string
		tbl       *tdb.TxTable
		cfg       Config
		pairCells int
		levels    int // expected len(ByK)-1, 0 = unchecked
	}{
		{"planted/0.1", planted, base, apriori.MaxPairCells, 0},
		{"planted/0.05", planted, with(func(c *Config) { c.MinSupport = 0.05 }), apriori.MaxPairCells, 0},
		{"planted/unbounded-k", planted, with(func(c *Config) { c.MaxK = 0 }), apriori.MaxPairCells, 0},
		{"planted/MaxK=2", planted, with(func(c *Config) { c.MaxK = 2 }), apriori.MaxPairCells, 2},
		// Days draw Poisson(25) transactions: a floor of 25 leaves about
		// half the granules inactive, and their pairs must not be marked.
		{"planted/inactive-granules", planted, with(func(c *Config) { c.MinGranuleTx = 25 }), apriori.MaxPairCells, 0},
		// The triangle does not fit the budget: one scan per row block,
		// down to one row a block, and split across workers.
		{"planted/row-blocked", planted, with(func(c *Config) { c.MinSupport = 0.05 }), 200, 0},
		{"planted/row-per-scan", planted, base, 0, 0},
		{"one-granule", tableOfDays(t, []itemset.Set{s(1, 2, 3), s(1, 2), s(2, 3), s(1, 2, 3)}),
			with(func(c *Config) { c.MinSupport = 0.5 }), apriori.MaxPairCells, 3},
		{"L1=0", tableOfDays(t, []itemset.Set{s(1), s(2), s(3), s(4)}),
			with(func(c *Config) { c.MinSupport = 0.5 }), apriori.MaxPairCells, 1},
		{"L1=1", tableOfDays(t, []itemset.Set{s(1), s(1), s(2), s(3)}, nil, []itemset.Set{s(1), s(1)}),
			with(func(c *Config) { c.MinSupport = 0.5 }), apriori.MaxPairCells, 1},
		{"L1=2", tableOfDays(t, []itemset.Set{s(1, 2), s(1, 2), s(1), s(3)}),
			with(func(c *Config) { c.MinSupport = 0.5 }), apriori.MaxPairCells, 2},
		// The join {1,2} is non-empty and nothing survives it: the level
		// is still appended, as Rethreshold and Maintain replay it.
		{"zero-survivors", tableOfDays(t, []itemset.Set{s(1), s(1), s(2), s(2)}, []itemset.Set{s(1), s(2)}),
			with(func(c *Config) { c.MinSupport = 0.5 }), apriori.MaxPairCells, 2},
		{"sparse-ids", tableOfDays(t,
			[]itemset.Set{s(7, big-1, big), s(7, big), s(big-1, big), s(7, big-1, big)},
			[]itemset.Set{s(7, 70_000), s(7, 70_000, big)}),
			with(func(c *Config) { c.MinSupport = 0.5 }), apriori.MaxPairCells, 3},
	}
	type variant struct {
		backend apriori.Backend
		workers int
	}
	variants := []variant{
		{apriori.BackendAuto, 0},
		{apriori.BackendNaive, 4},
		{apriori.BackendBitmap, 1},
		{apriori.BackendBitmap, 4},
		{apriori.BackendRoaring, 1},
		{apriori.BackendRoaring, 4},
	}
	for _, tc := range cases {
		ref := tc.cfg
		ref.Backend = apriori.BackendNaive
		want, err := BuildHoldTableContext(bg, tc.tbl, ref)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.levels != 0 && len(want.ByK)-1 != tc.levels {
			t.Fatalf("%s: reference has %d levels, the case is meant to have %d", tc.name, len(want.ByK)-1, tc.levels)
		}
		for _, v := range variants {
			cfg := tc.cfg
			cfg.Backend = v.backend
			cfg.Workers = v.workers
			got, err := buildHoldTable(context.Background(), tc.tbl, cfg, tc.pairCells, apriori.MaxVerticalItems)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			label := fmt.Sprintf("%s backend=%v workers=%d", tc.name, v.backend, v.workers)
			sameHoldTable(t, label, want, got)
		}
	}
}
