package tdb

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/timegran"
)

// Tx is one timestamped transaction: a basket of items observed at an
// instant. The temporal miners never look below this abstraction.
type Tx struct {
	ID    int64
	At    time.Time
	Items itemset.Set
}

// TxTable stores timestamped transactions ordered by time, with the
// granule-restricted scan API the temporal miners run on. Appends may
// arrive out of order; the table keeps itself sorted (stably, so equal
// timestamps preserve arrival order).
//
// A stored transaction is a 24-byte row plus its items in an arena — the
// same {UnixNano, id, items} the WAL and the segment files hold, so what
// is logged is byte for byte what is in memory, and a Tx exists only at
// the scan callbacks. A timestamp is therefore kept as nanoseconds since
// the Unix epoch: one outside that range (CheckTime) is the instant its
// wrapped UnixNano names — in memory at once, as it always was after a
// restart — so whatever takes timestamps from outside the program
// (tarmd's append body, the CSV import) refuses it with CheckTime's
// error before it reaches a table. See DESIGN §tdb for the layout.
type TxTable struct {
	name string

	// dur is the owning database's storage engine; nil for tables
	// outside a durable database. Appenders take dur.gate.RLock before
	// mu (lock order, see durable.go) and log a WAL record inside the
	// critical section so per-table log order matches ID order.
	dur *durability

	mu     sync.RWMutex
	rows   []row
	sorted bool
	nextID int64
	epoch  int64

	// Item arena: fixed-size blocks of 1<<blockShift items, filled in
	// append order and never reallocated, so there is no doubling slack
	// and a row's items stay put. A transaction never straddles a block:
	// one that does not fit the current block's tail opens the next, and
	// one larger than a block gets a block of exactly its size that
	// takes as many consecutive slots (the rest nil) as it spans, which
	// keeps "slot = off >> blockShift" true for every row.
	blocks     [][]itemset.Item
	blockShift uint

	// Append change log: the UnixNano timestamp of every append, oldest
	// first. Epochs are consecutive, so the record at index i belongs to
	// epoch (epoch - len(log) + 1 + i) and needs no epoch of its own.
	// Bounded at changeLogCap; once trimmed, the oldest retained record
	// marks how far back DirtySince can answer.
	log []int64
}

// row is one stored transaction: its timestamp as UnixNano, its ID and
// the place of its items in the arena (n items from global item index
// off). An out-of-order append re-sorts rows; items never move.
type row struct {
	at  int64
	id  int64
	off uint32
	n   uint32
}

// arenaBlockShift sizes the item arena's blocks: 16 Ki items, 64 KiB.
const arenaBlockShift = 14

// changeLogCap bounds the append change log. When the log fills, the
// oldest half is dropped; DirtySince then reports windows reaching past
// the retained prefix as uncovered, and callers fall back to a full
// rebuild. 64k records (0.5 MB) covers far more appends than any
// cached hold table is worth delta-maintaining across.
const changeLogCap = 1 << 16

// NewTxTable creates an empty transaction table.
func NewTxTable(name string) (*TxTable, error) {
	return newTxTable(name, arenaBlockShift)
}

// newTxTable is NewTxTable with the arena block size as a parameter, so
// tests can put block boundaries inside small tables.
func newTxTable(name string, blockShift uint) (*TxTable, error) {
	if name == "" {
		return nil, fmt.Errorf("tdb: empty transaction table name")
	}
	return &TxTable{name: name, sorted: true, blockShift: blockShift}, nil
}

// Name returns the table name.
func (t *TxTable) Name() string { return t.name }

// Len returns the number of transactions.
func (t *TxTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// CheckTime reports whether at can be stored faithfully: a transaction
// timestamp is kept, in memory and on disk, as nanoseconds since the
// Unix epoch, which covers 1677-09-21 to 2262-04-11. Anything outside
// wraps to a different instant; the error names the timestamp.
func CheckTime(at time.Time) error {
	if !time.Unix(0, at.UnixNano()).Equal(at) {
		return fmt.Errorf("tdb: timestamp %s is outside the storable range (%s to %s)",
			at.Format(time.RFC3339Nano),
			time.Unix(0, math.MinInt64).UTC().Format(time.RFC3339), time.Unix(0, math.MaxInt64).UTC().Format(time.RFC3339))
	}
	return nil
}

// Append stores a transaction and returns its assigned ID. The items
// are canonicalised defensively and copied: the caller keeps ownership
// of its slice. Every append bumps the table's epoch and records the
// touched timestamp in the change log, so derived structures keyed on
// the epoch can either invalidate or delta-maintain themselves (see
// DirtySince). Like AppendBatch it drops the verdict (a WAL commit error
// stays sticky on the log; a refused transaction is not stored and the
// ID is -1); callers that need a per-call answer use AppendBatchDurable.
func (t *TxTable) Append(at time.Time, items itemset.Set) int64 {
	id, _, _ := t.appendBatch([]Tx{{At: at, Items: items}})
	return id
}

// AppendBatch appends a batch of transactions under a single lock
// acquisition and epoch-log update per row, in slice order. It returns
// the ID of the first appended transaction and the table epoch after
// the batch; with the write lock held throughout, the batch is atomic
// with respect to concurrent scans and epoch reads. It is
// AppendBatchDurable with the error dropped.
func (t *TxTable) AppendBatch(txs []Tx) (firstID, epoch int64) {
	firstID, epoch, _ = t.appendBatch(txs)
	return firstID, epoch
}

// AppendBatchDurable is AppendBatch with the verdict. On a durable table
// it returns only after the batch's WAL record is committed under the
// configured fsync policy, and the error reflects any WAL write/sync
// failure — callers acknowledging writes (tarmd) must not ack when it is
// non-nil. A batch that could overflow the table's 2³²-item arena is
// refused whole: nothing is stored or logged and firstID is -1. The
// items of every transaction are copied, so the caller may reuse its
// slices.
func (t *TxTable) AppendBatchDurable(txs []Tx) (firstID, epoch int64, err error) {
	return t.appendBatch(txs)
}

func (t *TxTable) appendBatch(txs []Tx) (firstID, epoch int64, err error) {
	nItems := 0
	for i := range txs {
		nItems += len(txs[i].Items)
	}
	d := t.dur
	if d != nil {
		d.gate.RLock()
		defer d.gate.RUnlock()
	}
	t.mu.Lock()
	// Room in the arena, by the worst case: every transaction can waste
	// less than its own length at a block switch, and the batch can end
	// one block further on.
	if uint64(len(t.blocks)+1)<<t.blockShift+2*uint64(nItems) > 1<<32 {
		epoch = t.epoch
		t.mu.Unlock()
		return -1, epoch, fmt.Errorf("tdb: table %q is full: its item arena addresses 2^32 items and a batch of %d more may not fit", t.name, nItems)
	}
	firstID = t.nextID
	start := len(t.rows)
	for i := range txs {
		items := txs[i].Items
		if !items.Valid() {
			items = itemset.New(items...)
		}
		t.appendLocked(txs[i].At.UnixNano(), items)
	}
	epoch = t.epoch
	var lsn int64
	if d != nil && len(t.rows) > start {
		// Log straight from the table's own rows (stable under t.mu, and
		// exactly the {ID, UnixNano, canonical items} replay needs)
		// rather than from the caller's batch.
		lsn = d.logAppend(t, firstID, t.rows[start:])
	}
	t.mu.Unlock()
	if d != nil {
		err = d.wal.commit(lsn)
	}
	return firstID, epoch, err
}

// appendLocked does the actual insert under the next ID; callers hold
// the write lock and have canonicalised items, which are copied.
func (t *TxTable) appendLocked(at int64, items itemset.Set) {
	t.storeRow(t.nextID, at, items)
	t.nextID++
	t.epoch++
	if len(t.log) >= changeLogCap {
		// Drop the oldest half; the retained suffix stays contiguous in
		// epoch, which is all DirtySince needs.
		keep := len(t.log) / 2
		copy(t.log, t.log[len(t.log)-keep:])
		t.log = t.log[:keep]
	}
	t.log = append(t.log, at)
}

// storeRow appends one row, copying items into the arena. It is the
// part of an append that loading a checkpoint shares: no ID assignment,
// no epoch, no change log.
func (t *TxTable) storeRow(id, at int64, items itemset.Set) {
	if n := len(t.rows); n > 0 && t.rows[n-1].at > at {
		t.sorted = false
	}
	slot := len(t.blocks) - 1
	if slot < 0 || cap(t.blocks[slot])-len(t.blocks[slot]) < len(items) {
		size, slots := 1<<t.blockShift, 1
		if len(items) > size {
			size, slots = len(items), (len(items)+size-1)>>t.blockShift
		}
		slot = len(t.blocks)
		t.blocks = append(t.blocks, make([]itemset.Item, 0, size))
		t.blocks = append(t.blocks, make([][]itemset.Item, slots-1)...)
	}
	b := t.blocks[slot]
	t.rows = append(t.rows, row{at: at, id: id, off: uint32(slot<<t.blockShift + len(b)), n: uint32(len(items))})
	t.blocks[slot] = append(b, items...)
}

// items returns r's itemset: a view into the arena, capped so that an
// append by the receiver cannot reach the next transaction.
func (t *TxTable) items(r row) itemset.Set {
	if r.n == 0 {
		return itemset.Set{} // its off may sit one past a full block
	}
	b := t.blocks[r.off>>t.blockShift]
	lo := r.off & (1<<t.blockShift - 1)
	return itemset.Set(b[lo : lo+r.n : lo+r.n])
}

// DirtySince reports which granules at granularity g were touched by
// appends after write epoch since: the sorted, deduplicated granules of
// every append with epoch > since, plus the table's current epoch. ok
// is false when the change log has been trimmed past since (or since is
// from another table's history), in which case the caller cannot know
// the dirty set and must rebuild from scratch. since equal to the
// current epoch returns an empty dirty set with ok true.
func (t *TxTable) DirtySince(g timegran.Granularity, since int64) (dirty []timegran.Granule, epoch int64, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	epoch = t.epoch
	if since == epoch {
		return nil, epoch, true
	}
	// The log holds the appends of epochs first..epoch, consecutively.
	first := epoch - int64(len(t.log)) + 1
	if since > epoch || len(t.log) == 0 || first > since+1 {
		return nil, epoch, false
	}
	seen := make(map[timegran.Granule]struct{})
	for _, at := range t.log[since+1-first:] {
		n := timegran.GranuleOf(nanoTime(at), g)
		if _, dup := seen[n]; !dup {
			seen[n] = struct{}{}
			dirty = append(dirty, n)
		}
	}
	sort.Slice(dirty, func(a, b int) bool { return dirty[a] < dirty[b] })
	return dirty, epoch, true
}

// Epoch returns the table's write epoch: a counter bumped by every
// Append. Derived structures (the hold-table cache) key on it so that a
// write to the table invalidates them; two Epoch calls returning the
// same value bracket a window with no completed writes.
func (t *TxTable) Epoch() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.epoch
}

// rlockSorted takes the read lock with the rows in time order. An
// out-of-order append leaves them unsorted until the next reader: it
// sorts under the write lock (stably, by timestamp; items stay where
// they are in the arena) and retries, so no append can slip in between
// the sort and the read lock — a reader that binary-searches rows which
// are not sorted reads granules outside the range it asked for.
func (t *TxTable) rlockSorted() {
	for {
		t.mu.RLock()
		if t.sorted {
			return
		}
		t.mu.RUnlock()
		t.mu.Lock()
		if !t.sorted {
			slices.SortStableFunc(t.rows, func(a, b row) int { return cmp.Compare(a.at, b.at) })
			t.sorted = true
		}
		t.mu.Unlock()
	}
}

// Span returns the granule interval covered by the data at granularity
// g; ok is false when the table is empty.
func (t *TxTable) Span(g timegran.Granularity) (timegran.Interval, bool) {
	t.rlockSorted()
	defer t.mu.RUnlock()
	if len(t.rows) == 0 {
		return timegran.Interval{}, false
	}
	lo := timegran.GranuleOf(t.timeAt(0), g)
	hi := timegran.GranuleOf(t.timeAt(len(t.rows)-1), g)
	return timegran.Interval{Lo: lo, Hi: hi}, true
}

// MaxAt returns the newest transaction timestamp — the *stream clock*
// of continuous mining: a granule is closed once MaxAt passes its end
// instant (timegran.ClosedThrough). ok is false when the table is
// empty.
func (t *TxTable) MaxAt() (time.Time, bool) {
	t.rlockSorted()
	defer t.mu.RUnlock()
	if len(t.rows) == 0 {
		return time.Time{}, false
	}
	return t.timeAt(len(t.rows) - 1), true
}

// nanoTime is the instant a stored UnixNano names, as every Tx carries
// it (and as a restart reconstructs it): in UTC.
func nanoTime(at int64) time.Time { return time.Unix(0, at).UTC() }

// timeAt is row i's timestamp.
func (t *TxTable) timeAt(i int) time.Time { return nanoTime(t.rows[i].at) }

// rowRange returns the half-open index range [i, j) of transactions
// whose granule at g lies in iv. Requires the table sorted.
func (t *TxTable) rowRange(g timegran.Granularity, iv timegran.Interval) (int, int) {
	startT := timegran.Start(iv.Lo, g)
	endT := timegran.Start(iv.Hi+1, g)
	i := sort.Search(len(t.rows), func(i int) bool { return !t.timeAt(i).Before(startT) })
	j := sort.Search(len(t.rows), func(i int) bool { return !t.timeAt(i).Before(endT) })
	return i, j
}

// CountRange returns the number of transactions whose granule lies in
// iv at granularity g.
func (t *TxTable) CountRange(g timegran.Granularity, iv timegran.Interval) int {
	t.rlockSorted()
	defer t.mu.RUnlock()
	i, j := t.rowRange(g, iv)
	return j - i
}

// eachGranuleRun calls fn once per granule holding rows of the sorted
// rows [i, j), in order, with the granule, its first row and its row
// count. Rows are in time order: a granule's run ends at the first row
// at or past the granule's end, found by binary search over the stored
// nanoseconds — two timestamp conversions per granule, not one per row
// or per probe. A granule ending past the storable range holds every
// row left. Requires the table sorted.
func (t *TxTable) eachGranuleRun(g timegran.Granularity, i, j int, fn func(n timegran.Granule, first, run int)) {
	for i < j {
		n := timegran.GranuleOf(t.timeAt(i), g)
		run := j - i
		if end := timegran.Start(n+1, g); CheckTime(end) == nil {
			endNS := end.UnixNano()
			run = sort.Search(j-i, func(k int) bool { return t.rows[i+k].at >= endNS })
		}
		fn(n, i, run)
		i += run
	}
}

// Granules is one reading of a table at one granularity: its span, the
// transaction count of every granule of it, and where each granule's
// rows start. A hold-table build takes its header and its scans from
// one reading: a source cut from it (Source) delivers exactly the rows
// its count names, however many are appended in between, so no count
// vector can exceed its granule's transaction count.
type Granules struct {
	Span   timegran.Interval
	Counts []int // transactions per granule, indexed by granule - Span.Lo

	t      *TxTable
	starts []int // each granule's first row
}

// Granules reads the table at granularity g under one lock: its span,
// every granule's transaction count and row range. ok is false when the
// table is empty.
func (t *TxTable) Granules(g timegran.Granularity) (v Granules, ok bool) {
	t.rlockSorted()
	defer t.mu.RUnlock()
	if len(t.rows) == 0 {
		return Granules{}, false
	}
	lo := timegran.GranuleOf(t.timeAt(0), g)
	hi := timegran.GranuleOf(t.timeAt(len(t.rows)-1), g)
	v = Granules{Span: timegran.Interval{Lo: lo, Hi: hi}, t: t}
	v.Counts = make([]int, v.Span.Len())
	v.starts = make([]int, v.Span.Len())
	t.eachGranuleRun(g, 0, len(t.rows), func(n timegran.Granule, first, run int) {
		v.starts[n-lo], v.Counts[n-lo] = first, run
	})
	return v, true
}

// Source exposes the rows of granule gi (an offset in Span) that the
// reading counted, as a mining source. It is cheap (no copying) and
// repeatable, and a late append that re-sorts the table shifts rows
// across its range.
func (v Granules) Source(gi int) apriori.Source {
	return v.t.rowSource(v.starts[gi], v.starts[gi]+v.Counts[gi])
}

// All exposes the entire table as a mining source (the traditional,
// time-agnostic view). Like Granules.Source it fixes its row range when
// it is created: every scan delivers the rows its Len reports, however
// many are appended meanwhile. A late append that re-sorts the table
// shifts rows across that range, as it does across a granule's.
func (t *TxTable) All() apriori.Source {
	return t.AllBlocks(1)[0]
}

// AllBlocks is All cut into at most n contiguous row blocks of even
// length (apriori.Blocks), from one reading of the row count: laid end
// to end they are All's rows, in its order, so a miner can count them
// block by block on n workers.
func (t *TxTable) AllBlocks(n int) apriori.Slices {
	t.rlockSorted()
	rows := len(t.rows)
	t.mu.RUnlock()
	blocks := apriori.Blocks(rows, n)
	out := make(apriori.Slices, len(blocks))
	for b, blk := range blocks {
		out[b] = t.rowSource(blk[0], blk[1])
	}
	return out
}

// rowSource exposes rows [i, j) of the sorted table as a mining source.
func (t *TxTable) rowSource(i, j int) apriori.Source {
	return apriori.FuncSource{
		N: j - i,
		Scan: func(fn func(tx itemset.Set)) {
			t.rlockSorted()
			defer t.mu.RUnlock()
			for _, r := range t.rows[i:j] {
				fn(t.items(r))
			}
		},
	}
}

// TableStats is the shape of a table as CountStats reports it.
type TableStats struct {
	N           int   // transactions
	Items       int   // distinct items
	Occurrences int64 // item occurrences over all transactions
}

// CountStats scans the table for its shape. Nothing in the module reads
// it any more — benchmark/'s tdb.count_stats_ms probe is its one caller
// (ROADMAP item 4b drops the probe, then this method).
func (t *TxTable) CountStats() TableStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := TableStats{N: len(t.rows)}
	seen := make(map[itemset.Item]struct{})
	for _, r := range t.rows {
		s.Occurrences += int64(r.n)
		for _, x := range t.items(r) {
			seen[x] = struct{}{}
		}
	}
	s.Items = len(seen)
	return s
}

// EachInRange iterates, in time order, only the transactions whose
// granule at g lies in iv; fn returning false stops. It narrows the
// scan to the interval's row range by binary search, so iterating a
// sub-span costs proportionally to the sub-span, not the table.
func (t *TxTable) EachInRange(g timegran.Granularity, iv timegran.Interval, fn func(tx Tx) bool) {
	t.rlockSorted()
	defer t.mu.RUnlock()
	i, j := t.rowRange(g, iv)
	t.scan(t.rows[i:j], fn)
}

// Each iterates transactions in time order; fn returning false stops.
func (t *TxTable) Each(fn func(tx Tx) bool) {
	t.rlockSorted()
	defer t.mu.RUnlock()
	t.scan(t.rows, fn)
}

// scan materialises each of rows as a Tx for fn, until fn returns false.
// The Tx is built in the call, not by a helper: a 56-byte struct returned
// and then passed on is copied twice, which doubles the cost of a scan.
func (t *TxTable) scan(rows []row, fn func(tx Tx) bool) {
	for _, r := range rows {
		if !fn(Tx{ID: r.id, At: nanoTime(r.at), Items: t.items(r)}) {
			return
		}
	}
}
