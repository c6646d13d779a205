package tdb

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/timegran"
)

// Tests of the row/arena layout of TxTable: whatever the order of
// arrival and wherever the block boundaries fall, the table reads as the
// appended transactions stably sorted by time.

// TestQuickRowsMatchSortedReference appends a random interleaving of
// in-order, late and duplicate-timestamp transactions — singly and in
// batches, with itemsets from empty to larger than an arena block — to
// a table with tiny blocks, and holds Each, EachInRange and the
// granule sources of Granules to a reference []Tx kept in arrival order and stably sorted by time.
func TestQuickRowsMatchSortedReference(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(r.Int63())
		},
	}
	base := time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tbl, err := newTxTable("rows", uint(1+r.Intn(4))) // blocks of 2..16 items
		if err != nil {
			t.Log(err)
			return false
		}
		var ref []Tx
		clock := base
		draw := func() Tx {
			at := clock
			switch r.Intn(5) {
			case 0: // late: up to three days back
				at = clock.Add(-time.Duration(r.Intn(72)) * time.Hour)
			case 1: // duplicate of the stream clock
			default:
				clock = clock.Add(time.Duration(r.Intn(7*3600)) * time.Second)
				at = clock
			}
			items := make([]itemset.Item, r.Intn(6))
			if r.Intn(12) == 0 {
				items = make([]itemset.Item, 17+r.Intn(40)) // larger than any block here
			}
			for i := range items {
				items[i] = itemset.Item(r.Intn(90))
			}
			return Tx{At: at, Items: itemset.New(items...)}
		}
		for len(ref) < 150 {
			batch := make([]Tx, 1+r.Intn(8))
			for i := range batch {
				batch[i] = draw()
			}
			firstID := int64(len(ref))
			if len(batch) == 1 && r.Intn(2) == 0 {
				if id := tbl.Append(batch[0].At, batch[0].Items); id != firstID {
					t.Logf("Append id %d, want %d", id, firstID)
					return false
				}
			} else if id, _ := tbl.AppendBatch(batch); id != firstID {
				t.Logf("AppendBatch first id %d, want %d", id, firstID)
				return false
			}
			for i, tx := range batch {
				ref = append(ref, Tx{ID: firstID + int64(i), At: tx.At, Items: tx.Items})
			}
			// Read in between, so later appends land on a table that has
			// already been re-sorted.
			if r.Intn(4) == 0 {
				tbl.Len()
				tbl.Span(timegran.Day)
			}
		}
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].At.Before(ref[j].At) })

		same := func(tag string, got, want []Tx) bool {
			if len(got) != len(want) {
				t.Logf("%s: %d transactions, want %d", tag, len(got), len(want))
				return false
			}
			for i := range got {
				if got[i].ID != want[i].ID || !got[i].At.Equal(want[i].At) || !got[i].Items.Equal(want[i].Items) {
					t.Logf("%s: tx %d = {%d %v %v}, want {%d %v %v}", tag, i,
						got[i].ID, got[i].At, got[i].Items, want[i].ID, want[i].At, want[i].Items)
					return false
				}
			}
			return true
		}
		if !same("Each", collectTxs(tbl), ref) {
			return false
		}
		view, _ := tbl.Granules(timegran.Day)
		span := view.Span
		for probe := 0; probe < 8; probe++ {
			lo := span.Lo + int64(r.Intn(int(span.Len())))
			iv := timegran.Interval{Lo: lo, Hi: lo + int64(r.Intn(3))}
			var want []Tx
			for _, tx := range ref {
				if iv.Contains(timegran.GranuleOf(tx.At, timegran.Day)) {
					want = append(want, tx)
				}
			}
			var got []Tx
			tbl.EachInRange(timegran.Day, iv, func(tx Tx) bool { got = append(got, tx); return true })
			if !same("EachInRange", got, want) {
				return false
			}
			i, ok := 0, true
			for g := iv.Lo; g <= iv.Hi && g <= span.Hi; g++ {
				src := view.Source(int(g - span.Lo))
				ok = ok && src.Len() == view.Counts[g-span.Lo]
				src.ForEach(func(items itemset.Set) {
					ok = ok && i < len(want) && items.Equal(want[i].Items)
					i++
				})
			}
			if !ok || i != len(want) {
				t.Logf("granule sources %v: %d sets, want %d (or contents differ)", iv, i, len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Error(err)
	}
}

// TestAppendCopiesItems: the table owns its items. A caller that reuses
// or scribbles on the slice it appended — canonical, so it used to be
// stored by reference — changes neither the table nor what a reopened
// durable twin recovers from the WAL.
func TestAppendCopiesItems(t *testing.T) {
	dir := t.TempDir()
	db := durOpen(t, dir, FsyncAlways)
	tbl, err := db.CreateTxTable("baskets")
	if err != nil {
		t.Fatal(err)
	}
	single := itemset.New(1, 2, 3)
	tbl.Append(durAt(0, 9), single)
	batch := []Tx{
		{At: durAt(0, 10), Items: itemset.New(4, 5)},
		{At: durAt(1, 11), Items: itemset.New(6, 7, 8)},
	}
	if _, _, err := tbl.AppendBatchDurable(batch); err != nil {
		t.Fatal(err)
	}
	single[0], single[2] = 90, 91
	batch[0].Items[1] = 92
	batch[1].Items[0], batch[1].Items[2] = 93, 94

	want := []itemset.Set{itemset.New(1, 2, 3), itemset.New(4, 5), itemset.New(6, 7, 8)}
	check := func(tag string, tbl *TxTable) {
		t.Helper()
		got := collectTxs(tbl)
		if len(got) != len(want) {
			t.Fatalf("%s: %d transactions, want %d", tag, len(got), len(want))
		}
		for i, tx := range got {
			if !tx.Items.Equal(want[i]) {
				t.Errorf("%s: tx %d items = %v, want %v", tag, i, tx.Items, want[i])
			}
		}
	}
	check("in memory", tbl)
	// A scan hands out views into the arena: appending to one must not
	// reach the next transaction's items.
	tbl.Each(func(tx Tx) bool { _ = append(tx.Items, 99); return true })
	check("after appending to scanned sets", tbl)
	db.Kill()

	db2 := durOpen(t, dir, FsyncAlways)
	defer db2.Kill()
	tbl2, ok := db2.TxTable("baskets")
	if !ok {
		t.Fatal("table lost across kill")
	}
	check("recovered", tbl2)
}

// TestCheckTimeRange: a timestamp is stored as UnixNano, so the
// surfaces that take timestamps from outside refuse one beyond that
// range with an error naming it, rather than store the instant its
// wrapped nanoseconds spell.
func TestCheckTimeRange(t *testing.T) {
	for _, at := range []time.Time{
		time.Unix(0, math.MinInt64),
		time.Unix(0, math.MaxInt64),
		time.Date(1998, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Now(),
	} {
		if err := CheckTime(at); err != nil {
			t.Errorf("CheckTime(%v) = %v, want nil", at, err)
		}
	}
	for _, at := range []time.Time{
		{},
		time.Unix(0, math.MinInt64).Add(-time.Nanosecond),
		time.Unix(0, math.MaxInt64).Add(time.Nanosecond),
		time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC),
	} {
		err := CheckTime(at)
		if err == nil || !strings.Contains(err.Error(), at.Format(time.RFC3339Nano)) {
			t.Errorf("CheckTime(%v) = %v, want an error naming the timestamp", at, err)
		}
	}
	tbl, _ := NewTxTable("imported")
	n, err := ImportBaskets(strings.NewReader("1998-01-01T09:00:00Z,bread;milk\n1500-06-01T00:00:00Z,bread\n"), tbl, itemset.NewDict())
	if err == nil || !strings.Contains(err.Error(), "1500-06-01") || !strings.Contains(err.Error(), "record 2") {
		t.Errorf("ImportBaskets accepted a pre-1678 timestamp: n=%d err=%v", n, err)
	}
	if tbl.Len() != 1 {
		t.Errorf("table holds %d transactions after the refused record, want 1", tbl.Len())
	}
}
