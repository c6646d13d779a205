package tdb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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
			tbl.EachInRange(timegran.Day, iv, func(tx Tx) bool { tx.Items = tx.Items.Clone(); got = append(got, tx); return true })
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

// sortedRef is the reference reading of appended transactions kept in
// arrival order: stably sorted by time.
func sortedRef(arrived []Tx) []Tx {
	ref := slices.Clone(arrived)
	sort.SliceStable(ref, func(i, j int) bool { return ref[i].At.Before(ref[j].At) })
	return ref
}

// sameGranuleSources holds the day granule sources of one Granules
// reading, laid end to end, to the item sets of want.
func sameGranuleSources(t *testing.T, tag string, tbl *TxTable, want []Tx) {
	t.Helper()
	view, ok := tbl.Granules(timegran.Day)
	if !ok {
		t.Fatalf("%s: empty table", tag)
	}
	i := 0
	for gi := range view.Counts {
		view.Source(gi).ForEach(func(items itemset.Set) {
			if i >= len(want) || !items.Equal(want[i].Items) {
				t.Fatalf("%s: granule source set %d = %v, want %v", tag, i, items, want[min(i, len(want)-1)].Items)
			}
			i++
		})
	}
	if i != len(want) {
		t.Fatalf("%s: granule sources hold %d sets, want %d", tag, i, len(want))
	}
}

// TestLateBatchSuffixResort: a late batch re-sorts only the rows from
// the first one later than its earliest timestamp. Late batches that
// span several two-row blocks and repeat stored timestamps leave the
// table equal to the stable sort of everything appended, and the sort
// starts where a binary search of the stored rows says.
func TestLateBatchSuffixResort(t *testing.T) {
	tbl, err := newTxTable("late", 3) // 8-slot arena blocks, 2-row row blocks
	if err != nil {
		t.Fatal(err)
	}
	var arrived []Tx
	add := func(batch []Tx) {
		t.Helper()
		first, _ := tbl.AppendBatch(batch)
		for i, tx := range batch {
			arrived = append(arrived, Tx{ID: first + int64(i), At: tx.At, Items: tx.Items})
		}
	}
	at := func(h int) time.Time {
		return time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(h) * time.Hour)
	}
	var batch []Tx
	for h := 0; h < 40; h++ {
		batch = append(batch, Tx{At: at(h / 2 * 2), Items: itemset.New(itemset.Item(h), itemset.Item(h+1))})
	}
	add(batch)
	sameTxs(t, "in order", collectTxs(tbl), sortedRef(arrived))

	prev := -1 // the watermark a batch left unread, or -1
	for _, late := range [][]int{
		{30, 31, 30, 38, 39},     // equal to stored timestamps, across blocks
		{10, 50, 12, 10, 51, 52}, // reaches further back, then ahead
		{11, 11},                 // late again, and left unread
		{20, 60, 21},             // not as late: the watermark stays
		{2, 60, 1, 60},
	} {
		tbl.mu.Lock()
		n := tbl.nrows
		tbl.mu.Unlock()
		stored := sortedRef(arrived)
		batch = batch[:0]
		earliest := late[0]
		for _, h := range late {
			batch = append(batch, Tx{At: at(h), Items: itemset.New(itemset.Item(100 + h))})
			earliest = min(earliest, h)
		}
		add(batch)
		// The watermark is the first stored row later than the earliest
		// late timestamp, or lower if an unread batch left it lower.
		want := sort.Search(n, func(k int) bool { return stored[k].At.After(at(earliest)) })
		if prev >= 0 {
			want = min(want, prev)
		}
		tbl.mu.Lock()
		got, sorted := tbl.sortFrom, tbl.sorted
		tbl.mu.Unlock()
		if sorted || got != want {
			t.Fatalf("late batch %v: sorted=%v sortFrom=%d, want false, %d", late, sorted, got, want)
		}
		if prev = -1; late[0] == 11 {
			prev = want
			continue
		}
		ref := sortedRef(arrived)
		sameTxs(t, fmt.Sprintf("after late batch %v", late), collectTxs(tbl), ref)
		sameGranuleSources(t, fmt.Sprintf("after late batch %v", late), tbl, ref)
	}
}

// TestWideItemsDurable: a dictionary that crosses 1<<16 mid-stream. The
// table takes narrow, then wide, then narrow transactions again, with
// one larger than a block at both widths and one of 0xFFFF items (the
// narrow count's escape), into blocks of 8 slots; in memory, after a
// checkpoint and a WAL replay, and after a clean reopen, Each and the
// granule sources return exactly the appended sets.
func TestWideItemsDurable(t *testing.T) {
	dir := t.TempDir()
	db := durOpen(t, dir, FsyncAlways)
	tbl, err := db.CreateTxTable("baskets")
	if err != nil {
		t.Fatal(err)
	}
	tbl.mu.Lock()
	tbl.blockShift, tbl.rowShift = 3, 1
	tbl.mu.Unlock()

	span := func(lo, n int) itemset.Set {
		s := make(itemset.Set, n)
		for i := range s {
			s[i] = itemset.Item(lo + i)
		}
		return s
	}
	const wide = 1 << 16
	var arrived []Tx
	add := func(txs ...Tx) {
		t.Helper()
		first, _, err := tbl.AppendBatchDurable(txs)
		if err != nil {
			t.Fatal(err)
		}
		for i, tx := range txs {
			arrived = append(arrived, Tx{ID: first + int64(i), At: tx.At, Items: tx.Items})
		}
	}
	check := func(tag string, tbl *TxTable) {
		t.Helper()
		ref := sortedRef(arrived)
		sameTxs(t, tag, collectTxs(tbl), ref)
		sameGranuleSources(t, tag, tbl, ref)
	}
	// Narrow: small sets, an empty one, the largest narrow item, one
	// larger than a block and one whose count needs the escape.
	add(Tx{At: durAt(0, 1), Items: itemset.New(1, 2, 3)},
		Tx{At: durAt(0, 2), Items: itemset.Set{}},
		Tx{At: durAt(0, 3), Items: itemset.New(7, wide-1)},
		Tx{At: durAt(0, 4), Items: span(100, 20)})
	add(Tx{At: durAt(0, 5), Items: span(0, 0xFFFF)})
	// Wide: items past 1<<16, one larger than a block, narrow sets in
	// between that go into the wide block, a late one.
	add(Tx{At: durAt(1, 1), Items: itemset.New(5, wide)},
		Tx{At: durAt(1, 2), Items: itemset.New(4)},
		Tx{At: durAt(1, 3), Items: span(wide+10, 20)},
		Tx{At: durAt(1, 4), Items: itemset.New(9, 10)},
		Tx{At: durAt(0, 3), Items: itemset.New(2, wide+1, wide+2)},
		Tx{At: durAt(1, 5), Items: itemset.New(11, 12, 13)})
	check("in memory, narrow and wide", tbl)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Narrow again, into narrow blocks once the wide one is full.
	for h := 0; h < 6; h++ {
		add(Tx{At: durAt(2, h), Items: itemset.New(itemset.Item(h), itemset.Item(h+200))})
	}
	add(Tx{At: durAt(2, 7), Items: span(300, 20)},
		Tx{At: durAt(1, 0), Items: itemset.New(wide + 5)},
		Tx{At: durAt(2, 8), Items: itemset.New(1)})
	check("in memory, narrow again", tbl)
	db.Kill()

	db = durOpen(t, dir, FsyncAlways)
	tbl2, ok := db.TxTable("baskets")
	if !ok {
		t.Fatal("table lost across kill")
	}
	check("checkpoint plus WAL replay", tbl2)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = durOpen(t, dir, FsyncAlways)
	defer db.Kill()
	tbl3, _ := db.TxTable("baskets")
	check("reopened", tbl3)
}

// TestAppendRefusedWhenFull: a batch that would take the table past 2³²
// IDs or past 2³² arena slots is refused whole, before anything is
// stored or allocated.
func TestAppendRefusedWhenFull(t *testing.T) {
	tbl, err := newTxTable("full", 3)
	if err != nil {
		t.Fatal(err)
	}
	tbl.nextID = 1<<32 - 1
	batch := []Tx{{At: durAt(0, 1), Items: itemset.New(1)}, {At: durAt(0, 2), Items: itemset.New(2)}}
	if id, _, err := tbl.AppendBatchDurable(batch); id != -1 || err == nil || !strings.Contains(err.Error(), "is full") {
		t.Fatalf("batch past 2^32 IDs: id %d, err %v", id, err)
	}
	if id, _, err := tbl.AppendBatchDurable(batch[:1]); id != 1<<32-1 || err != nil {
		t.Fatalf("last ID: id %d, err %v", id, err)
	}

	tbl, _ = newTxTable("full", 3)
	// One slot short of the end: a small transaction opens the last
	// block, and one larger than a block needs two slots past it.
	tbl.end = arenaEnd{slots: 1<<(32-3) - 1}
	batch[1].Items = itemset.New(1, 2, 3, 4, 5, 6, 7, 8)
	if id, _, err := tbl.AppendBatchDurable(batch); id != -1 || err == nil {
		t.Fatalf("batch past 2^32 slots: id %d, err %v", id, err)
	}
	if tbl.Len() != 0 || len(tbl.blocks) != 0 || tbl.Epoch() != 0 {
		t.Fatalf("refused batch left %d rows, %d blocks, epoch %d", tbl.Len(), len(tbl.blocks), tbl.Epoch())
	}
}

// TestGranuleSourceWidening: a granule source delivers its sets in time
// order whether they lie in narrow blocks (widened), in a wide block
// (read in place) or both, and with a late row stored far from the rest
// of its granule.
func TestGranuleSourceWidening(t *testing.T) {
	tbl, err := NewTxTable("spans")
	if err != nil {
		t.Fatal(err)
	}
	var arrived []Tx
	add := func(at time.Time, items itemset.Set) {
		arrived = append(arrived, Tx{ID: tbl.Append(at, items), At: at, Items: items})
	}
	add(durAt(0, 5), itemset.New(1, 2))
	for k := 0; k < 100; k++ {
		add(durAt(1, 23-k%24), itemset.New(itemset.Item(k), itemset.Item(k+1), itemset.Item(k+2)))
	}
	add(durAt(0, 1), itemset.New(7)) // late, 400 slots past its granule's other row
	for k := 0; k < 6; k++ {         // a wide block, with narrow sets in it
		add(durAt(2, 5-k), itemset.New(3, itemset.Item(4+(k+1)%2*(1<<16))))
	}
	sameGranuleSources(t, "spans", tbl, sortedRef(arrived))
}

// TestScanAllocsConstant: a scan widens a narrow table's items into one
// scratch it reuses, so Each, EachInRange and a granule source allocate
// a few times per scan (as the scratch grows to the largest basket), not
// once per some number of rows.
func TestScanAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not the program's own under -race")
	}
	tbl, err := NewTxTable("narrow")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(44))
	const rows = 20_000
	batch := make([]Tx, rows)
	for k := range batch {
		items := make(itemset.Set, 1+r.Intn(12))
		for i := range items {
			items[i] = itemset.Item(r.Intn(1000))
		}
		batch[k] = Tx{At: durAt(k/10_000, 0).Add(time.Duration(k%10_000) * time.Second), Items: items}
	}
	tbl.AppendBatch(batch)
	view, ok := tbl.Granules(timegran.Day)
	if !ok || len(view.Counts) != 2 {
		t.Fatalf("granules: %v %v", view.Counts, ok)
	}
	src := view.Source(1)
	const bound = 8
	var n int
	for _, tc := range []struct {
		name string
		scan func()
	}{
		{"Each", func() { tbl.Each(func(tx Tx) bool { n += len(tx.Items); return true }) }},
		{"EachInRange", func() {
			tbl.EachInRange(timegran.Day, view.Span, func(tx Tx) bool { n += len(tx.Items); return true })
		}},
		{"Granules.Source", func() { src.ForEach(func(items itemset.Set) { n += len(items) }) }},
	} {
		if got := testing.AllocsPerRun(5, tc.scan); got > bound {
			t.Errorf("%s: %.0f allocations a scan of %d rows, want at most %d", tc.name, got, rows, bound)
		}
	}
}
