package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/gen"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// tableSnapshot copies every stored block (all 64 counts, the padding
// past the span included) and frequency word of h, level by level.
func tableSnapshot(h *HoldTable) (vecs [][]int32, words [][]uint64) {
	for k := 1; k < len(h.ByK); k++ {
		for i := range h.ByK[k] {
			var v []int32
			for _, blk := range h.vecOf(k, i) {
				v = append(v, blk[:]...)
			}
			vecs = append(vecs, v)
			words = append(words, slices.Clone(h.levelFreq(k, i)))
		}
	}
	return vecs, words
}

// checkSharedBlocks checks m, maintained from h over dirty, against the
// block layout's sharing rule when the span start moved by a whole
// number of blocks: a tracked itemset's block that no dirty granule
// falls in is h's block itself, or the zero block outside h's span. It
// returns the number of blocks found shared with h.
func checkSharedBlocks(t *testing.T, label string, h, m *HoldTable, dirty []timegran.Granule) int {
	t.Helper()
	off := int(h.Span.Lo - m.Span.Lo)
	if off%64 != 0 {
		return 0
	}
	dirtyBlock := map[int]bool{}
	for _, g := range dirty {
		dirtyBlock[int(g-m.Span.Lo)>>6] = true
	}
	shared := 0
	for k := 1; k < len(m.ByK); k++ {
		for i, s := range m.ByK[k] {
			j, ok := h.find(s)
			if !ok {
				continue // a riser: new blocks throughout
			}
			old, v := h.vecOf(k, j), m.vecOf(k, i)
			for b, blk := range v {
				ob := b - off/64
				switch {
				case dirtyBlock[b]:
				case ob >= 0 && ob < len(old):
					if blk != old[ob] {
						t.Fatalf("%s: %v block %d is a copy of an untouched block", label, s, b)
					}
					shared++
				case blk != &zeroBlock:
					t.Fatalf("%s: %v block %d, outside the old span and untouched, is not the zero block", label, s, b)
				}
			}
		}
	}
	return shared
}

// TestMaintainSharesCleanBlocks: over a grid of appends — at the tail,
// across a 64-granule boundary, past empty gap days, late into an old
// block, before the span start by a non-multiple and a multiple of 64,
// and with risers — at MinGranuleTx 1 and 15, each Maintain equals a
// cold rebuild, leaves its receiver's blocks and words byte-identical,
// and, when the span start moved by a multiple of 64, shares every
// block no dirty granule falls in. The cases also run as one chain of
// maintenances, each from the last one's table, which must stay
// untouched by its successor.
func TestMaintainSharesCleanBlocks(t *testing.T) {
	const oldDays = 127 // two blocks, the second one granule short
	cases := []struct {
		name    string
		aligned bool // the span start stays or moves by whole blocks
		append  func(tbl *tdb.TxTable, r *rand.Rand)
	}{
		{"tail", true, func(tbl *tdb.TxTable, r *rand.Rand) {
			level2Day(tbl, r, oldDays-1, 5, 0)
			level2Day(tbl, r, oldDays, 30, 0)
		}},
		{"cross", true, func(tbl *tdb.TxTable, r *rand.Rand) {
			for d := oldDays; d < oldDays+3; d++ {
				level2Day(tbl, r, d, 30, 0)
			}
		}},
		{"gap", true, func(tbl *tdb.TxTable, r *rand.Rand) {
			level2Day(tbl, r, 200, 30, 0) // days 127–199 stay empty
		}},
		{"late", true, func(tbl *tdb.TxTable, r *rand.Rand) {
			level2Day(tbl, r, 10, 4, 0)
		}},
		{"before", false, func(tbl *tdb.TxTable, r *rand.Rand) {
			level2Day(tbl, r, -3, 20, 0)
		}},
		{"before64", true, func(tbl *tdb.TxTable, r *rand.Rand) {
			level2Day(tbl, r, -64, 20, 0)
		}},
		{"risers", true, func(tbl *tdb.TxTable, r *rand.Rand) {
			level2Day(tbl, r, oldDays, 40, 0.9) // the triple, rare before
		}},
	}
	for _, minTx := range []int{1, 15} {
		cfg := Config{Granularity: timegran.Day, MinSupport: 0.35, MinConfidence: 0.5, MinFreq: 0.5, MinGranuleTx: minTx, Workers: 1 + minTx%2}
		base := func(r *rand.Rand) *tdb.TxTable {
			tbl, err := tdb.NewTxTable("blocks")
			if err != nil {
				t.Fatal(err)
			}
			for d := range oldDays {
				level2Day(tbl, r, d, 10+r.Intn(25), 0.05)
			}
			return tbl
		}
		// maintain appends one case's rows and maintains h over them,
		// checking the result and that h did not change.
		maintain := func(label string, tbl *tdb.TxTable, h *HoldTable, r *rand.Rand, appendRows func(*tdb.TxTable, *rand.Rand), aligned bool) *HoldTable {
			t.Helper()
			epoch := tbl.Epoch()
			vecs, words := tableSnapshot(h)
			appendRows(tbl, r)
			dirty, _, ok := tbl.DirtySince(timegran.Day, epoch)
			if !ok {
				t.Fatal("DirtySince not covered")
			}
			m, err := h.MaintainContext(bg, tbl, dirty)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !holdTablesEqual(m, mustBuild(t, tbl, cfg)) {
				t.Fatalf("%s: Maintain differs from a cold rebuild", label)
			}
			if v, w := tableSnapshot(h); !reflect.DeepEqual(v, vecs) || !reflect.DeepEqual(w, words) {
				t.Fatalf("%s: Maintain wrote into its receiver's vectors", label)
			}
			if off := int(h.Span.Lo - m.Span.Lo); aligned != (off%64 == 0) {
				t.Fatalf("%s: fixture: span start moved by %d", label, off)
			}
			if aligned && checkSharedBlocks(t, label, h, m, dirty) == 0 {
				t.Fatalf("%s: no block shared", label)
			}
			return m
		}
		for _, tc := range cases {
			label := fmt.Sprintf("MinGranuleTx %d %s", minTx, tc.name)
			r := rand.New(rand.NewSource(int64(minTx)))
			tbl := base(r)
			h := mustBuild(t, tbl, cfg)
			m := maintain(label, tbl, h, r, tc.append, tc.aligned)
			if tc.name == "risers" {
				triple := itemset.New(40, 41, 42)
				if _, ok := h.find(triple); ok {
					t.Fatalf("%s: fixture: the triple was tracked before", label)
				}
				if _, ok := m.find(triple); !ok {
					t.Fatalf("%s: fixture: the triple did not rise", label)
				}
			}
		}
		r := rand.New(rand.NewSource(int64(minTx)))
		tbl := base(r)
		h := mustBuild(t, tbl, cfg)
		for _, tc := range cases {
			label := fmt.Sprintf("MinGranuleTx %d chain %s", minTx, tc.name)
			// In the chain the span start moves by 3, then by 61.
			h = maintain(label, tbl, h, r, tc.append, tc.aligned && tc.name != "before64")
		}
	}
}

// TestMaintainAllocatesDirtyBlocks: one appended day on a table of 1 000
// days (the stream benchmark's basket shape at 100 rows a day and
// support 0.03, ≈ 9 000 itemsets), a day that lifts no riser, allocates
// under a quarter of the tracked vectors' flat size (tracked × n × 4
// bytes): every clean block is shared, so Maintain writes one block per
// tracked itemset, its frequency words and its block pointers (≈ 540
// bytes here), not a copy of its vector (4 000). The bytes are the
// least of three runs' TotalAlloc deltas.
func TestMaintainAllocatesDirtyBlocks(t *testing.T) {
	const days = 1000
	gcfg := gen.TemporalConfig{
		Quest:        gen.QuestConfig{NItems: 1000, NPatterns: 200, AvgTxLen: 10, AvgPatLen: 4},
		Start:        time.Date(1998, 1, 1, 0, 0, 0, 0, time.UTC),
		Granularity:  timegran.Day,
		NGranules:    days + 10,
		TxPerGranule: 100,
	}
	all, err := gen.GenerateTemporal(gcfg, 1998)
	if err != nil {
		t.Fatal(err)
	}
	split := gcfg.Start.AddDate(0, 0, days)
	tbl, err := tdb.NewTxTable("baskets")
	if err != nil {
		t.Fatal(err)
	}
	var base []tdb.Tx
	next := make([][]tdb.Tx, 10)
	all.Each(func(tx tdb.Tx) bool {
		tx.Items = tx.Items.Clone()
		if tx.At.Before(split) {
			base = append(base, tx)
		} else {
			d := int(tx.At.Sub(split) / (24 * time.Hour))
			next[d] = append(next[d], tx)
		}
		return true
	})
	tbl.AppendBatch(base)
	cfg := Config{Granularity: timegran.Day, MinSupport: 0.03, MinConfidence: 0.6, MinFreq: 0.9, Workers: 1}
	h := mustBuild(t, tbl, cfg)
	tracked := int64(h.TotalItemsets())
	n := int64(h.NGranules())
	// The first of the next days whose maintenance lifts no riser: a
	// riser's history is a clean-region count, outside this bound.
	for _, day := range next {
		epoch := tbl.Epoch()
		tbl.AppendBatch(day)
		dirty, _, ok := tbl.DirtySince(timegran.Day, epoch)
		if !ok {
			t.Fatal("DirtySince not covered")
		}
		trace := obs.NewTrace("")
		traced := h.Cfg
		traced.Tracer = trace
		if _, err := h.withCfg(traced).MaintainContext(bg, tbl, dirty); err != nil {
			t.Fatal(err)
		}
		if trace.Tree()[0].Attrs[obs.MetricMaintainRisers] != strconv.Itoa(0) {
			h = mustBuild(t, tbl, cfg)
			tracked, n = int64(h.TotalItemsets()), int64(h.NGranules())
			continue
		}
		best := uint64(1<<63 - 1)
		var ms runtime.MemStats
		for range 3 {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			m, err := h.MaintainContext(bg, tbl, dirty)
			runtime.ReadMemStats(&ms)
			if err != nil {
				t.Fatal(err)
			}
			best = min(best, ms.TotalAlloc-before)
			runtime.KeepAlive(m)
		}
		bound := uint64(tracked * n * 4 / 4)
		t.Logf("%d itemsets over %d granules: Maintain allocates %d B, bound %d B", tracked, n, best, bound)
		if best >= bound {
			t.Fatalf("Maintain of one day allocates %d B over %d itemsets × %d granules, want under %d (a quarter of their flat vectors)", best, tracked, n, bound)
		}
		return
	}
	t.Fatal("fixture: every next day lifts a riser")
}
