package tdb

import (
	"cmp"
	"encoding/binary"
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
// instant. The temporal miners never look below this abstraction. A Tx
// handed out by a scan (Each, EachInRange) holds Items that are valid
// only until the scan's callback returns.
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
// A stored transaction is a 16-byte row in fixed row blocks plus its
// item count and items in an arena, 2 bytes an item in a block whose
// items all fit 16 bits and 4 otherwise: ≈ 37 B for a basket of ten.
// The WAL and the segment files hold the same {UnixNano, id, items} as
// varint deltas and item gaps (appendRow): 18–21 B. What is logged or
// saved is coded from the rows and arena at encode time, and what is
// read back is narrowed as it is stored. A
// Tx exists only at the scan callbacks. A timestamp is therefore kept
// as nanoseconds since the Unix epoch: one outside that range
// (CheckTime) is the instant its wrapped UnixNano names — in memory at
// once, as it always was after a restart — so whatever takes
// timestamps from outside the program (tarmd's append body, the CSV
// import) refuses it with CheckTime's error before it reaches a table.
// See DESIGN §tdb for the layout.
type TxTable struct {
	name string

	// dur is the owning database's storage engine; nil for tables
	// outside a durable database. Appenders take dur.gate.RLock before
	// mu (lock order, see durable.go) and log a WAL record inside the
	// critical section so per-table log order matches ID order.
	dur *durability

	mu sync.RWMutex
	// Rows in fixed blocks of 1<<rowShift, filled in order and never
	// reallocated: growing the table never copies it.
	rows     [][]row
	nrows    int
	rowShift uint
	// sorted is false after a late append; then rows [0, sortFrom) are
	// in order and no later than any row after them, and the next
	// reader stable-sorts rows [sortFrom, nrows) alone.
	sorted   bool
	sortFrom int
	nextID   int64
	epoch    int64

	// Item arena: fixed-size blocks of 1<<blockShift slots, filled in
	// append order and never reallocated, so there is no doubling slack
	// and a row's items stay put. A transaction is its item count then
	// its items (arenaBlock), and never straddles a block: one that does
	// not fit the current block's tail opens the next, and one larger
	// than a block gets a block of exactly its size that takes as many
	// consecutive slots (the rest empty) as it spans, which keeps
	// "slot = off >> blockShift" true for every row.
	blocks     []arenaBlock
	end        arenaEnd
	blockShift uint

	// Append change log: the UnixNano timestamp of every append, oldest
	// first. Epochs are consecutive, so the record at index i belongs to
	// epoch (epoch - len(log) + 1 + i) and needs no epoch of its own.
	// Bounded at changeLogCap; once trimmed, the oldest retained record
	// marks how far back DirtySince can answer.
	log []int64
}

// row is one stored transaction: its timestamp as UnixNano, its ID and
// the arena index of its item count. An out-of-order append re-sorts
// rows; items never move.
type row struct {
	at  int64
	id  uint32
	off uint32
}

// arenaBlock is one block of the item arena. A block opened for a
// transaction whose items all lie below 1<<16 stores uint16 slots
// (narrow), any other uint32 (wide); a narrow transaction goes into
// a wide block as it is, a wide one never into a narrow block. A
// transaction is stored as its item count followed by its items; in a
// narrow block a count of 0xFFFF or more is the escape 0xFFFF and then
// the count's low and high halves.
type arenaBlock struct {
	narrow []uint16
	wide   []itemset.Item
}

// arenaEnd is where the arena's next transaction goes: slots is how
// many slots the arena spans (a new block opens at that one), next the
// arena index of the last block's first free slot, free the slots left
// behind it and wide the last block's width.
type arenaEnd struct {
	slots int
	next  uint64
	free  int
	wide  bool
}

// countSlots is how many slots the item count of n items takes in a
// block of the given width.
func countSlots(n int, wide bool) int {
	if wide || n < 0xFFFF {
		return 1
	}
	return 3
}

// place returns the arena index at which a transaction of n items goes
// after e (wide when an item is 1<<16 or more), the arena end after it
// and, when it opens a block, that block's size (0 when it does not).
func (e arenaEnd) place(n int, wide bool, shift uint) (off uint64, after arenaEnd, open int) {
	if !wide || e.wide {
		if need := countSlots(n, e.wide) + n; need <= e.free {
			off = e.next
			e.next += uint64(need)
			e.free -= need
			return off, e, 0
		}
	}
	need := countSlots(n, wide) + n
	size := max(need, 1<<shift)
	off = uint64(e.slots) << shift
	e.slots += (size + 1<<shift - 1) >> shift
	e.next, e.free, e.wide = off+uint64(need), size-need, wide
	return off, e, size
}

// arenaBlockShift sizes the item arena's blocks, 16 Ki slots (32 KiB
// narrow, 64 KiB wide), and with it the row blocks, a quarter as many
// rows (4 Ki rows, 64 KiB).
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

// newTxTable is NewTxTable with the block size as a parameter, so tests
// can put arena and row block boundaries inside small tables.
func newTxTable(name string, blockShift uint) (*TxTable, error) {
	if name == "" {
		return nil, fmt.Errorf("tdb: empty transaction table name")
	}
	return &TxTable{name: name, sorted: true, blockShift: blockShift, rowShift: blockShift - min(blockShift, 2)}, nil
}

// Name returns the table name.
func (t *TxTable) Name() string { return t.name }

// Len returns the number of transactions.
func (t *TxTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nrows
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
// non-nil. A batch that would take the table past 2³² transaction IDs
// or past its 2³²-slot item arena is refused whole: nothing is stored
// or logged and firstID is -1. The items of every transaction are
// copied, so the caller may reuse its slices.
func (t *TxTable) AppendBatchDurable(txs []Tx) (firstID, epoch int64, err error) {
	return t.appendBatch(txs)
}

func (t *TxTable) appendBatch(txs []Tx) (firstID, epoch int64, err error) {
	// Canonicalise outside the lock, on a copy of the batch once a set
	// needs it: the caller's slice stays as it was.
	cloned := false
	for i := range txs {
		if !txs[i].Items.Valid() {
			if !cloned {
				txs, cloned = slices.Clone(txs), true
			}
			txs[i].Items = itemset.New(txs[i].Items...)
		}
	}
	d := t.dur
	if d != nil {
		d.gate.RLock()
		defer d.gate.RUnlock()
	}
	t.mu.Lock()
	// Room for the batch: IDs below 2³², and an arena whose blocks stay
	// within 2³² slots where the batch's transactions would be placed.
	e := t.end
	for i := range txs {
		_, e, _ = e.place(len(txs[i].Items), isWide(txs[i].Items), t.blockShift)
	}
	if t.nextID+int64(len(txs)) > 1<<32 || uint64(e.slots)<<t.blockShift > 1<<32 {
		epoch = t.epoch
		t.mu.Unlock()
		return -1, epoch, fmt.Errorf("tdb: table %q is full: it holds 2^32 transactions and 2^32 item slots, and a batch of %d more does not fit", t.name, len(txs))
	}
	firstID = t.nextID
	start := t.nrows
	for i := range txs {
		_ = t.appendLocked(txs[i].At.UnixNano(), txs[i].Items) // room checked above
	}
	epoch = t.epoch
	var lsn int64
	if d != nil && t.nrows > start {
		// Log straight from the table's own rows (stable under t.mu, and
		// exactly the {ID, UnixNano, canonical items} replay needs)
		// rather than from the caller's batch.
		lsn = d.logAppend(t, firstID, start, t.nrows)
	}
	t.mu.Unlock()
	if d != nil {
		err = d.wal.commit(lsn)
	}
	return firstID, epoch, err
}

// isWide reports whether the canonical set s holds an item of 1<<16 or
// more, which a narrow arena block cannot store.
func isWide(s itemset.Set) bool {
	return len(s) > 0 && s[len(s)-1] > math.MaxUint16
}

// appendLocked does the actual insert under the next ID; callers hold
// the write lock and have canonicalised items, which are copied.
func (t *TxTable) appendLocked(at int64, items itemset.Set) error {
	if err := t.storeRow(t.nextID, at, items); err != nil {
		return err
	}
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
	return nil
}

// storeRow appends one row, copying items into the arena. It is the
// part of an append that loading a checkpoint shares: no ID assignment,
// no epoch, no change log. Appends check their batch for room first;
// storeRow refuses an ID or a placement a table cannot address, which
// only a damaged checkpoint or log can ask for.
func (t *TxTable) storeRow(id, at int64, items itemset.Set) error {
	wide := isWide(items)
	off, e, open := t.end.place(len(items), wide, t.blockShift)
	if id < 0 || id > math.MaxUint32 || uint64(e.slots)<<t.blockShift > 1<<32 {
		return fmt.Errorf("tdb: table %q is full: transaction %d does not fit", t.name, id)
	}
	if n := t.nrows; n > 0 && t.row(n-1).at > at {
		// Late: the rows after the last one no later than at must be
		// re-sorted, and with them everything stored after them.
		bound := n
		if !t.sorted {
			bound = t.sortFrom
		}
		t.sortFrom = sort.Search(bound, func(k int) bool { return t.row(k).at > at })
		t.sorted = false
	}
	if t.nrows>>t.rowShift == len(t.rows) {
		t.rows = append(t.rows, make([]row, 1<<t.rowShift))
	}
	t.rows[t.nrows>>t.rowShift][t.nrows&(1<<t.rowShift-1)] = row{at: at, id: uint32(id), off: uint32(off)}
	t.nrows++

	if open > 0 {
		var b arenaBlock
		if wide {
			b.wide = make([]itemset.Item, open)
		} else {
			b.narrow = make([]uint16, open)
		}
		t.blocks = append(t.blocks, b)
		t.blocks = append(t.blocks, make([]arenaBlock, e.slots-len(t.blocks))...)
	}
	t.end = e
	b := &t.blocks[off>>t.blockShift]
	pos := int(off & (1<<t.blockShift - 1))
	if b.wide != nil {
		b.wide[pos] = itemset.Item(len(items))
		copy(b.wide[pos+1:], items)
		return nil
	}
	dst := b.narrow[pos:]
	if n := len(items); n < 0xFFFF {
		dst[0], dst = uint16(n), dst[1:]
	} else {
		dst[0], dst[1], dst[2], dst = 0xFFFF, uint16(n), uint16(n>>16), dst[3:]
	}
	for i, x := range items {
		dst[i] = uint16(x)
	}
	return nil
}

// row returns row i.
func (t *TxTable) row(i int) row {
	return t.rows[i>>t.rowShift][i&(1<<t.rowShift-1)]
}

// rowRun returns rows [k, j) up to the end of k's row block: a loop
// over a range takes it block by block.
func (t *TxTable) rowRun(k, j int) []row {
	rs := t.rows[k>>t.rowShift][k&(1<<t.rowShift-1):]
	return rs[:min(len(rs), j-k)]
}

// locate returns the arena block of r and where in it r's items lie:
// positions [lo, lo+n).
func (t *TxTable) locate(r row) (b *arenaBlock, lo, n int) {
	b = &t.blocks[r.off>>t.blockShift]
	pos := int(r.off & (1<<t.blockShift - 1))
	if b.wide != nil {
		return b, pos + 1, int(b.wide[pos])
	}
	if n = int(b.narrow[pos]); n == 0xFFFF {
		return b, pos + 3, int(b.narrow[pos+1]) | int(b.narrow[pos+2])<<16
	}
	return b, pos + 1, n
}

// itemCount is the number of r's items.
func (t *TxTable) itemCount(r row) int {
	_, _, n := t.locate(r)
	return n
}

// rowItems returns r's items, and the scratch to pass for the next row.
// A wide block's items are a capped view of the arena, so appending to
// them never reaches it; a narrow block's are widened into buf, which
// the next call reuses. With locate and the row coder (appendRow,
// rowLen), which codes items at either width without widening them, it
// is the one reader of a block's width, as storeRow is the one writer.
func (t *TxTable) rowItems(r row, buf itemset.Set) (items, scratch itemset.Set) {
	b, lo, n := t.locate(r)
	if b.wide != nil {
		return b.wide[lo : lo+n : lo+n], buf
	}
	src := b.narrow[lo : lo+n]
	buf = slices.Grow(buf[:0], len(src))[:len(src)]
	for i, x := range src {
		buf[i] = itemset.Item(x)
	}
	return buf, buf
}

// appendRow appends r in the gapRows coding (store.go) as the delta from
// prev, the row before it or the zero row: its timestamp, its ID when
// withID (segments; WAL rows are consecutive from the record's first
// ID), then its items, read from the arena at the block's width.
func (t *TxTable) appendRow(p []byte, r, prev row, withID bool) []byte {
	p = binary.AppendVarint(p, r.at-prev.at)
	if withID {
		p = binary.AppendVarint(p, int64(r.id)-int64(prev.id))
	}
	b, lo, n := t.locate(r)
	if b.wide != nil {
		return appendGaps(p, b.wide[lo:lo+n])
	}
	return appendGaps(p, b.narrow[lo:lo+n])
}

// rowLen is the length of appendRow's coding of r after prev.
func (t *TxTable) rowLen(r, prev row, withID bool) int {
	n := varintLen(r.at - prev.at)
	if withID {
		n += varintLen(int64(r.id) - int64(prev.id))
	}
	b, lo, k := t.locate(r)
	if b.wide != nil {
		return n + gapsLen(b.wide[lo:lo+k])
	}
	return n + gapsLen(b.narrow[lo:lo+k])
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
//
// Only rows [sortFrom, nrows) are sorted: the rows before them are no
// later than any of them and arrived before every one of them that has
// the same timestamp, so they keep their places.
func (t *TxTable) rlockSorted() {
	for {
		t.mu.RLock()
		if t.sorted {
			return
		}
		t.mu.RUnlock()
		t.mu.Lock()
		if !t.sorted {
			suffix := make([]row, 0, t.nrows-t.sortFrom)
			for k := t.sortFrom; k < t.nrows; k++ {
				suffix = append(suffix, t.row(k))
			}
			slices.SortStableFunc(suffix, func(a, b row) int { return cmp.Compare(a.at, b.at) })
			for k, r := range suffix {
				t.rows[(t.sortFrom+k)>>t.rowShift][(t.sortFrom+k)&(1<<t.rowShift-1)] = r
			}
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
	if t.nrows == 0 {
		return timegran.Interval{}, false
	}
	lo := timegran.GranuleOf(t.timeAt(0), g)
	hi := timegran.GranuleOf(t.timeAt(t.nrows-1), g)
	return timegran.Interval{Lo: lo, Hi: hi}, true
}

// MaxAt returns the newest transaction timestamp — the *stream clock*
// of continuous mining: a granule is closed once MaxAt passes its end
// instant (timegran.ClosedThrough). ok is false when the table is
// empty.
func (t *TxTable) MaxAt() (time.Time, bool) {
	t.rlockSorted()
	defer t.mu.RUnlock()
	if t.nrows == 0 {
		return time.Time{}, false
	}
	return t.timeAt(t.nrows - 1), true
}

// nanoTime is the instant a stored UnixNano names, as every Tx carries
// it (and as a restart reconstructs it): in UTC.
func nanoTime(at int64) time.Time { return time.Unix(0, at).UTC() }

// timeAt is row i's timestamp.
func (t *TxTable) timeAt(i int) time.Time { return nanoTime(t.row(i).at) }

// rowRange returns the half-open index range [i, j) of transactions
// whose granule at g lies in iv. Requires the table sorted.
func (t *TxTable) rowRange(g timegran.Granularity, iv timegran.Interval) (int, int) {
	return t.searchTime(timegran.Start(iv.Lo, g)), t.searchTime(timegran.Start(iv.Hi+1, g))
}

// searchTime returns the first row at or after instant at, which may
// lie outside the storable range: before it every row qualifies, after
// it none does. Requires the table sorted.
func (t *TxTable) searchTime(at time.Time) int {
	if CheckTime(at) != nil {
		if at.Before(time.Unix(0, 0)) {
			return 0
		}
		return t.nrows
	}
	return t.searchAt(0, t.nrows, at.UnixNano())
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
// at or past the granule's end, found by searchAt over the stored
// nanoseconds — two timestamp conversions per granule, not one per row
// or per probe. A granule ending past the storable range holds every
// row left. Requires the table sorted.
func (t *TxTable) eachGranuleRun(g timegran.Granularity, i, j int, fn func(n timegran.Granule, first, run int)) {
	for i < j {
		n := timegran.GranuleOf(t.timeAt(i), g)
		run := j - i
		if end := timegran.Start(n+1, g); CheckTime(end) == nil {
			run = t.searchAt(i, j, end.UnixNano()) - i
		}
		fn(n, i, run)
		i += run
	}
}

// searchAt returns the first of the sorted rows [i, j) at or after
// UnixNano ns, or j: it skips whole row blocks that end before ns and
// bisects the first that does not, so that a probe is one load.
func (t *TxTable) searchAt(i, j int, ns int64) int {
	for i < j {
		rs := t.rowRun(i, j)
		if rs[len(rs)-1].at >= ns {
			return i + sort.Search(len(rs), func(k int) bool { return rs[k].at >= ns })
		}
		i += len(rs)
	}
	return j
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
	if t.nrows == 0 {
		return Granules{}, false
	}
	lo := timegran.GranuleOf(t.timeAt(0), g)
	hi := timegran.GranuleOf(t.timeAt(t.nrows-1), g)
	v = Granules{Span: timegran.Interval{Lo: lo, Hi: hi}, t: t}
	v.Counts = make([]int, v.Span.Len())
	v.starts = make([]int, v.Span.Len())
	t.eachGranuleRun(g, 0, t.nrows, func(n timegran.Granule, first, run int) {
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
	rows := t.nrows
	t.mu.RUnlock()
	blocks := apriori.Blocks(rows, n)
	out := make(apriori.Slices, len(blocks))
	for b, blk := range blocks {
		out[b] = t.rowSource(blk[0], blk[1])
	}
	return out
}

// rowSource exposes rows [i, j) of the sorted table as a mining source,
// whose items rowItems reads into one scratch per scan.
func (t *TxTable) rowSource(i, j int) apriori.Source {
	return apriori.FuncSource{
		N: j - i,
		Scan: func(fn func(tx itemset.Set)) {
			t.rlockSorted()
			defer t.mu.RUnlock()
			var buf, items itemset.Set
			for k := i; k < j; {
				rs := t.rowRun(k, j)
				k += len(rs)
				for _, r := range rs {
					items, buf = t.rowItems(r, buf)
					fn(items)
				}
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
	s := TableStats{N: t.nrows}
	seen := make(map[itemset.Item]struct{})
	var buf, items itemset.Set
	for k := 0; k < t.nrows; k++ {
		items, buf = t.rowItems(t.row(k), buf)
		s.Occurrences += int64(len(items))
		for _, x := range items {
			seen[x] = struct{}{}
		}
	}
	s.Items = len(seen)
	return s
}

// EachInRange iterates, in time order, only the transactions whose
// granule at g lies in iv; fn returning false stops. It narrows the
// scan to the interval's row range by binary search, so iterating a
// sub-span costs proportionally to the sub-span, not the table. Items
// are handed out as by Each: valid only until fn returns.
func (t *TxTable) EachInRange(g timegran.Granularity, iv timegran.Interval, fn func(tx Tx) bool) {
	t.rlockSorted()
	defer t.mu.RUnlock()
	i, j := t.rowRange(g, iv)
	t.scan(i, j, fn)
}

// Each iterates transactions in time order; fn returning false stops.
// A Tx's Items are valid only until fn returns, as a mining source's
// are (apriori.Source): the scan reuses one scratch for them. A caller
// that keeps them copies them (Items.Clone()). Appending to them never
// reaches the table.
func (t *TxTable) Each(fn func(tx Tx) bool) {
	t.rlockSorted()
	defer t.mu.RUnlock()
	t.scan(0, t.nrows, fn)
}

// scan hands each of rows [i, j) to fn as a Tx, items read by rowItems,
// until fn returns false. The Tx is built in the call, not by a helper:
// a 56-byte struct returned and then passed on is copied twice, which
// doubles the cost of a scan.
func (t *TxTable) scan(i, j int, fn func(tx Tx) bool) {
	var buf, items itemset.Set
	for k := i; k < j; {
		rs := t.rowRun(k, j)
		k += len(rs)
		for _, r := range rs {
			items, buf = t.rowItems(r, buf)
			if !fn(Tx{ID: int64(r.id), At: nanoTime(r.at), Items: items}) {
				return
			}
		}
	}
}
