package tdb

import (
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/timegran"
)

func TestDirtySinceBasic(t *testing.T) {
	tbl, err := NewTxTable("baskets")
	if err != nil {
		t.Fatal(err)
	}
	dayTx(t, tbl, 2024, time.January, 1, 1, 2)
	dayTx(t, tbl, 2024, time.January, 2, 2, 3)
	e0 := tbl.Epoch()

	// No appends since e0: empty dirty set, covered.
	dirty, epoch, ok := tbl.DirtySince(timegran.Day, e0)
	if !ok || len(dirty) != 0 || epoch != e0 {
		t.Fatalf("DirtySince(e0) = %v, %d, %v; want empty, %d, true", dirty, epoch, ok, e0)
	}

	// Three appends over two granules (one repeated, one new).
	dayTx(t, tbl, 2024, time.January, 2, 5)
	dayTx(t, tbl, 2024, time.January, 5, 6)
	dayTx(t, tbl, 2024, time.January, 5, 7)
	dirty, epoch, ok = tbl.DirtySince(timegran.Day, e0)
	if !ok {
		t.Fatal("DirtySince after appends not covered")
	}
	if epoch != e0+3 {
		t.Fatalf("epoch = %d, want %d", epoch, e0+3)
	}
	want := []timegran.Granule{
		timegran.GranuleOf(time.Date(2024, 1, 2, 0, 0, 0, 0, time.UTC), timegran.Day),
		timegran.GranuleOf(time.Date(2024, 1, 5, 0, 0, 0, 0, time.UTC), timegran.Day),
	}
	if len(dirty) != len(want) {
		t.Fatalf("dirty = %v, want %v", dirty, want)
	}
	for i := range want {
		if dirty[i] != want[i] {
			t.Fatalf("dirty = %v, want %v", dirty, want)
		}
	}

	// The same history at month granularity collapses to one granule.
	dirty, _, ok = tbl.DirtySince(timegran.Month, e0)
	if !ok || len(dirty) != 1 {
		t.Fatalf("DirtySince(month) = %v, %v; want one granule", dirty, ok)
	}

	// since from the future is not covered.
	if _, _, ok := tbl.DirtySince(timegran.Day, epoch+1); ok {
		t.Fatal("DirtySince(future epoch) reported covered")
	}
}

func TestDirtySinceSortedDeduped(t *testing.T) {
	tbl, err := NewTxTable("baskets")
	if err != nil {
		t.Fatal(err)
	}
	dayTx(t, tbl, 2024, time.March, 1, 1)
	e0 := tbl.Epoch()
	// Out-of-order appends: dirty granules must come back sorted.
	for _, d := range []int{9, 3, 9, 1, 7, 3} {
		dayTx(t, tbl, 2024, time.March, d, 2)
	}
	dirty, _, ok := tbl.DirtySince(timegran.Day, e0)
	if !ok {
		t.Fatal("not covered")
	}
	if len(dirty) != 4 {
		t.Fatalf("dirty = %v, want 4 distinct granules", dirty)
	}
	for i := 1; i < len(dirty); i++ {
		if dirty[i] <= dirty[i-1] {
			t.Fatalf("dirty not sorted/deduped: %v", dirty)
		}
	}
}

func TestDirtySinceLogTrim(t *testing.T) {
	tbl, err := NewTxTable("baskets")
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	// Overflow the change log so the oldest half is dropped; a window
	// anchored before the retained prefix must report not covered, while
	// a recent window stays answerable.
	for i := 0; i < changeLogCap+10; i++ {
		tbl.Append(at, itemset.New(1))
	}
	recent := tbl.Epoch() - 5
	if _, _, ok := tbl.DirtySince(timegran.Day, 0); ok {
		t.Fatal("trimmed log answered a pre-trim window")
	}
	dirty, _, ok := tbl.DirtySince(timegran.Day, recent)
	if !ok || len(dirty) != 1 {
		t.Fatalf("recent window after trim: dirty=%v ok=%v", dirty, ok)
	}
}

// TestChangeLogBoundedAnyTimestamps: what the change log holds does not
// depend on the timestamps appended. Appends alternating between 1900
// and 2026 leave it at most changeLogCap records, in a slice no larger
// than the log's growth gives.
func TestChangeLogBoundedAnyTimestamps(t *testing.T) {
	tbl, err := NewTxTable("baskets")
	if err != nil {
		t.Fatal(err)
	}
	far := [2]time.Time{time.Date(1900, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	for i := 0; i < 2*changeLogCap; i++ {
		tbl.Append(far[i%2], itemset.New(1))
	}
	if len(tbl.log) > changeLogCap || cap(tbl.log) > 2*changeLogCap {
		t.Fatalf("change log holds %d records in a slice of %d, want at most %d in at most %d", len(tbl.log), cap(tbl.log), changeLogCap, 2*changeLogCap)
	}
}

func TestAppendBatch(t *testing.T) {
	tbl, err := NewTxTable("baskets")
	if err != nil {
		t.Fatal(err)
	}
	dayTx(t, tbl, 2024, time.January, 1, 1)
	e0 := tbl.Epoch()
	batch := []Tx{
		{At: time.Date(2024, 1, 3, 9, 0, 0, 0, time.UTC), Items: itemset.New(2, 3)},
		{At: time.Date(2024, 1, 2, 9, 0, 0, 0, time.UTC), Items: itemset.Set{3, 2, 2}}, // non-canonical on purpose
	}
	firstID, epoch := tbl.AppendBatch(batch)
	if firstID != 1 {
		t.Fatalf("firstID = %d, want 1", firstID)
	}
	if epoch != e0+2 || tbl.Epoch() != epoch {
		t.Fatalf("epoch = %d, want %d", epoch, e0+2)
	}
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tbl.Len())
	}
	// Out-of-order batch rows must still yield a sorted table with
	// canonicalised items.
	var prev time.Time
	tbl.Each(func(tx Tx) bool {
		if tx.At.Before(prev) {
			t.Fatalf("table unsorted after AppendBatch")
		}
		prev = tx.At
		if !tx.Items.Valid() {
			t.Fatalf("non-canonical items stored: %v", tx.Items)
		}
		return true
	})
	dirty, _, ok := tbl.DirtySince(timegran.Day, e0)
	if !ok || len(dirty) != 2 {
		t.Fatalf("DirtySince after batch: dirty=%v ok=%v", dirty, ok)
	}
}
