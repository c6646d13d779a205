package tdb

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/timegran"
)

func dayTx(t *testing.T, tbl *TxTable, y int, m time.Month, d int, items ...itemset.Item) {
	t.Helper()
	tbl.Append(time.Date(y, m, d, 10, 0, 0, 0, time.UTC), itemset.New(items...))
}

func buildTxTable(t *testing.T) *TxTable {
	t.Helper()
	tbl, err := NewTxTable("baskets")
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately out of time order.
	dayTx(t, tbl, 2024, time.January, 3, 1, 2)
	dayTx(t, tbl, 2024, time.January, 1, 1, 2, 3)
	dayTx(t, tbl, 2024, time.January, 2, 2, 3)
	dayTx(t, tbl, 2024, time.January, 1, 1, 3)
	dayTx(t, tbl, 2024, time.February, 10, 4)
	return tbl
}

func TestTxTableSortingAndSpan(t *testing.T) {
	tbl := buildTxTable(t)
	if tbl.Len() != 5 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	var last time.Time
	tbl.Each(func(tx Tx) bool {
		if tx.At.Before(last) {
			t.Fatalf("transactions not sorted: %v after %v", tx.At, last)
		}
		last = tx.At
		return true
	})
	span, ok := tbl.Span(timegran.Day)
	if !ok {
		t.Fatal("Span on non-empty table not ok")
	}
	wantLo := timegran.GranuleOf(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC), timegran.Day)
	wantHi := timegran.GranuleOf(time.Date(2024, 2, 10, 0, 0, 0, 0, time.UTC), timegran.Day)
	if span.Lo != wantLo || span.Hi != wantHi {
		t.Errorf("Span = %v, want [%d,%d]", span, wantLo, wantHi)
	}
	empty, _ := NewTxTable("e")
	if _, ok := empty.Span(timegran.Day); ok {
		t.Error("Span on empty table ok")
	}
}

func TestTxTableGranuleSources(t *testing.T) {
	tbl := buildTxTable(t)
	jan1 := timegran.GranuleOf(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC), timegran.Day)

	view, ok := tbl.Granules(timegran.Day)
	if !ok || view.Span.Lo != jan1 {
		t.Fatalf("Granules span = %v, %v; want one starting Jan 1", view.Span, ok)
	}
	src := view.Source(0)
	if src.Len() != 2 {
		t.Fatalf("Jan 1 source has %d transactions", src.Len())
	}
	f, err := apriori.Mine(src, apriori.Config{MinSupport: 1})
	if err != nil {
		t.Fatal(err)
	}
	if f.Support(itemset.New(1, 3)) != 2 {
		t.Errorf("support({1,3}) on Jan 1 = %d, want 2", f.Support(itemset.New(1, 3)))
	}

	if counts := view.Counts; counts[0] != 2 || counts[1] != 1 || counts[2] != 1 || counts[3] != 0 {
		t.Errorf("Granules counts = %v", counts)
	}
	for gi, c := range view.Counts {
		if n := view.Source(gi).Len(); n != c {
			t.Errorf("granule %d: source has %d transactions, count says %d", gi, n, c)
		}
	}

	if n := tbl.CountRange(timegran.Day, timegran.Interval{Lo: jan1, Hi: jan1 + 2}); n != 4 {
		t.Errorf("Jan 1-3 range has %d transactions, want 4", n)
	}

	if n := tbl.CountRange(timegran.Day, timegran.Interval{Lo: jan1, Hi: jan1}); n != 2 {
		t.Errorf("CountRange = %d", n)
	}

	all := tbl.All()
	if all.Len() != 5 {
		t.Errorf("All has %d", all.Len())
	}
}

// TestTxTableAllFixesItsRows: All() scans the rows it counted when it
// was created, as a granule's source does, so an append between two scans of
// one All() changes neither its Len nor what either scan delivers.
func TestTxTableAllFixesItsRows(t *testing.T) {
	tbl := buildTxTable(t)
	all := tbl.All()
	scan := func() []string {
		var txs []string
		all.ForEach(func(tx itemset.Set) { txs = append(txs, tx.String()) })
		return txs
	}
	first := scan()
	dayTx(t, tbl, 2024, time.March, 1, 5, 6)
	second := scan()
	if all.Len() != 5 || len(first) != 5 || len(second) != 5 {
		t.Fatalf("All() over 5 rows, one appended after the first scan: Len %d, scans %d and %d rows, want 5 each", all.Len(), len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("scan 2 row %d = %s, scan 1 had %s", i, second[i], first[i])
		}
	}
	if n := tbl.All().Len(); n != 6 {
		t.Errorf("a new All() has %d rows, want 6", n)
	}
}

// TestGranulesSnapshotAcrossEpochs: one Granules reading fixes the
// span, every granule's count and its rows together. Appends after the
// reading — into its last granule and past its span — leave each source
// delivering exactly the rows its count names, in the reading's order,
// while a new reading sees them.
func TestGranulesSnapshotAcrossEpochs(t *testing.T) {
	tbl := buildTxTable(t)
	view, ok := tbl.Granules(timegran.Day)
	if !ok {
		t.Fatal("no reading of a non-empty table")
	}
	jan1 := timegran.GranuleOf(time.Date(2024, time.January, 1, 0, 0, 0, 0, time.UTC), timegran.Day)
	feb10 := timegran.GranuleOf(time.Date(2024, time.February, 10, 0, 0, 0, 0, time.UTC), timegran.Day)
	if view.Span != (timegran.Interval{Lo: jan1, Hi: feb10}) {
		t.Fatalf("span %v, want %d..%d", view.Span, jan1, feb10)
	}
	scan := func() [][]string {
		out := make([][]string, len(view.Counts))
		for gi := range view.Counts {
			view.Source(gi).ForEach(func(tx itemset.Set) { out[gi] = append(out[gi], tx.String()) })
		}
		return out
	}
	before := scan()
	// Later in the last granule, then past the span.
	tbl.Append(time.Date(2024, time.February, 10, 18, 0, 0, 0, time.UTC), itemset.New(7))
	dayTx(t, tbl, 2024, time.March, 1, 5, 6)
	after := scan()
	want := map[int][]string{0: {"{1, 2, 3}", "{1, 3}"}, 1: {"{2, 3}"}, 2: {"{1, 2}"}, int(feb10 - jan1): {"{4}"}}
	for gi, n := range view.Counts {
		if n != len(want[gi]) || view.Source(gi).Len() != n || len(before[gi]) != n || len(after[gi]) != n {
			t.Fatalf("granule %d: count %d, source Len %d, scans %d and %d rows, want %d each",
				gi, n, view.Source(gi).Len(), len(before[gi]), len(after[gi]), len(want[gi]))
		}
		for i := range n {
			if before[gi][i] != want[gi][i] || after[gi][i] != want[gi][i] {
				t.Fatalf("granule %d row %d: scans %s and %s, want %s", gi, i, before[gi][i], after[gi][i], want[gi][i])
			}
		}
	}
	again, _ := tbl.Granules(timegran.Day)
	if n := again.Counts[feb10-jan1]; n != 2 || again.Span.Hi <= feb10 {
		t.Errorf("a new reading: %d rows on 10 Feb, span %v; want 2 and past 10 Feb", n, again.Span)
	}
}

// TestTxTableAllBlocks: AllBlocks(n) cuts All()'s rows into at most n
// contiguous blocks from one reading of the row count — laid end to end
// they are All()'s rows in order, at any n, and a later append moves
// none of them.
func TestTxTableAllBlocks(t *testing.T) {
	tbl := buildTxTable(t)
	rows := func(src apriori.Source) []string {
		var txs []string
		src.ForEach(func(tx itemset.Set) { txs = append(txs, tx.String()) })
		return txs
	}
	want := rows(tbl.All())
	cuts := map[int]apriori.Slices{}
	for _, n := range []int{0, 1, 2, 3, 5, 8} {
		cuts[n] = tbl.AllBlocks(n)
	}
	dayTx(t, tbl, 2024, time.March, 1, 5, 6)
	for n, blocks := range cuts {
		if len(blocks) > max(n, 1) || blocks.Len() != len(want) {
			t.Fatalf("AllBlocks(%d): %d blocks over %d rows, want at most %d over %d", n, len(blocks), blocks.Len(), max(n, 1), len(want))
		}
		var got []string
		for b, blk := range blocks {
			part := rows(blk)
			if len(part) != blk.Len() || len(part) == 0 && len(blocks) > 1 {
				t.Fatalf("AllBlocks(%d) block %d: Len %d, scan %d rows", n, b, blk.Len(), len(part))
			}
			got = append(got, part...)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("AllBlocks(%d) rows %v, want %v", n, got, want)
		}
	}
}

func TestTxTableMonthGranularity(t *testing.T) {
	tbl := buildTxTable(t)
	jan := timegran.GranuleOf(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC), timegran.Month)
	feb := jan + 1
	view, ok := tbl.Granules(timegran.Month)
	if !ok || view.Span != (timegran.Interval{Lo: jan, Hi: feb}) {
		t.Fatalf("month span = %v, %v; want January..February", view.Span, ok)
	}
	if n := view.Source(0).Len(); n != 4 {
		t.Errorf("January month source has %d", n)
	}
	if n := view.Source(1).Len(); n != 1 {
		t.Errorf("February month source has %d", n)
	}
}

// TestTxTableGranuleCountsAtRangeEnd: the last granule of the storable
// range ends past it, so its rows are counted without converting its
// end to nanoseconds — the last storable instant included.
func TestTxTableGranuleCountsAtRangeEnd(t *testing.T) {
	tbl, err := NewTxTable("end")
	if err != nil {
		t.Fatal(err)
	}
	tbl.Append(time.Date(2262, time.March, 15, 0, 0, 0, 0, time.UTC), itemset.New(1))
	tbl.Append(time.Date(2262, time.April, 10, 0, 0, 0, 0, time.UTC), itemset.New(1))
	tbl.Append(time.Unix(0, math.MaxInt64).UTC(), itemset.New(2))
	view, ok := tbl.Granules(timegran.Month)
	if !ok {
		t.Fatal("empty span")
	}
	if got := view.Counts; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Granules counts over March..April 2262 = %v, want [1 2]", got)
	}
	// CountRange's bounds may lie outside the storable range too.
	april := timegran.Interval{Lo: view.Span.Hi, Hi: view.Span.Hi}
	years := timegran.Interval{Lo: 1600 - 1970, Hi: 2262 - 1970}
	if a, y := tbl.CountRange(timegran.Month, april), tbl.CountRange(timegran.Year, years); a != 2 || y != 3 {
		t.Errorf("CountRange: April 2262 = %d, 1600..2262 = %d, want 2 and 3", a, y)
	}
}

func TestTxTableAppendCanonicalises(t *testing.T) {
	tbl, _ := NewTxTable("x")
	tbl.Append(time.Now(), itemset.Set{3, 1, 1}) // invalid raw set
	tbl.Each(func(tx Tx) bool {
		if !tx.Items.Valid() {
			t.Errorf("stored non-canonical itemset %v", tx.Items)
		}
		return true
	})
}

func TestTxTableEpoch(t *testing.T) {
	tbl, err := NewTxTable("e")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Epoch() != 0 {
		t.Fatalf("fresh table epoch = %d", tbl.Epoch())
	}
	dayTx(t, tbl, 2024, time.January, 1, 1, 2)
	dayTx(t, tbl, 2024, time.January, 2, 2, 3)
	if tbl.Epoch() != 2 {
		t.Errorf("epoch after two appends = %d, want 2", tbl.Epoch())
	}
	// Reads must not advance the epoch.
	tbl.Each(func(Tx) bool { return true })
	tbl.Span(timegran.Day)
	if tbl.Epoch() != 2 {
		t.Errorf("epoch moved on read: %d", tbl.Epoch())
	}
}

func TestTxTableEachInRange(t *testing.T) {
	tbl := buildTxTable(t)
	lo := timegran.GranuleOf(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC), timegran.Day)
	iv := timegran.Interval{Lo: lo, Hi: lo + 1} // Jan 1–2
	var got int
	tbl.EachInRange(timegran.Day, iv, func(tx Tx) bool {
		if g := timegran.GranuleOf(tx.At, timegran.Day); g < iv.Lo || g > iv.Hi {
			t.Errorf("transaction at granule %d outside %v", g, iv)
		}
		got++
		return true
	})
	if got != 3 {
		t.Errorf("EachInRange visited %d transactions, want 3", got)
	}
	// Early exit stops the scan.
	visits := 0
	tbl.EachInRange(timegran.Day, iv, func(Tx) bool { visits++; return false })
	if visits != 1 {
		t.Errorf("early exit visited %d", visits)
	}
}
