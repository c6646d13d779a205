package tdb

import (
	"fmt"
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
type TxTable struct {
	name string

	// dur is the owning database's storage engine; nil for tables
	// outside a durable database. Appenders take dur.gate.RLock before
	// mu (lock order, see durable.go) and log a WAL record inside the
	// critical section so per-table log order matches ID order.
	dur *durability

	mu     sync.RWMutex
	txs    []Tx
	sorted bool
	nextID int64
	epoch  int64

	// Append change log: one record per append, oldest first, epochs
	// strictly increasing. Bounded at changeLogCap; once trimmed, the
	// oldest retained record marks how far back DirtySince can answer.
	log []changeRec
}

// changeRec is one entry of the append change log: the epoch the append
// produced and the transaction timestamp, from which the touched
// granule at any granularity can be derived on demand.
type changeRec struct {
	epoch int64
	at    time.Time
}

// changeLogCap bounds the append change log. When the log fills, the
// oldest half is dropped; DirtySince then reports windows reaching past
// the retained prefix as uncovered, and callers fall back to a full
// rebuild. 64k records (~1.5 MB) covers far more appends than any
// cached hold table is worth delta-maintaining across.
const changeLogCap = 1 << 16

// NewTxTable creates an empty transaction table.
func NewTxTable(name string) (*TxTable, error) {
	if name == "" {
		return nil, fmt.Errorf("tdb: empty transaction table name")
	}
	return &TxTable{name: name, sorted: true}, nil
}

// Name returns the table name.
func (t *TxTable) Name() string { return t.name }

// Len returns the number of transactions.
func (t *TxTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.txs)
}

// Append stores a transaction and returns its assigned ID. The items
// are canonicalised defensively. Every append bumps the table's epoch
// and records the touched timestamp in the change log, so derived
// structures keyed on the epoch can either invalidate or delta-maintain
// themselves (see DirtySince).
func (t *TxTable) Append(at time.Time, items itemset.Set) int64 {
	if !items.Valid() {
		items = itemset.New(items...)
	}
	d := t.dur
	if d != nil {
		d.gate.RLock()
		defer d.gate.RUnlock()
	}
	t.mu.Lock()
	id := t.appendLocked(at, items)
	var lsn int64
	if d != nil {
		lsn = d.logAppend(t.name, id, []Tx{{ID: id, At: at.UTC(), Items: items}})
	}
	t.mu.Unlock()
	if d != nil {
		// Commit errors are sticky on the WAL; callers needing a per-
		// call verdict use AppendBatchDurable or DB.DurabilityErr.
		d.wal.commit(lsn)
	}
	return id
}

// AppendBatch appends a batch of transactions under a single lock
// acquisition and epoch-log update per row, in slice order. It returns
// the ID of the first appended transaction and the table epoch after
// the batch; with the write lock held throughout, the batch is atomic
// with respect to concurrent scans and epoch reads.
func (t *TxTable) AppendBatch(txs []Tx) (firstID, epoch int64) {
	firstID, epoch, _ = t.appendBatch(txs)
	return firstID, epoch
}

// AppendBatchDurable is AppendBatch with the durability verdict: on a
// durable table it returns only after the batch's WAL record is
// committed under the configured fsync policy, and the error reflects
// any WAL write/sync failure — callers acknowledging writes (tarmd)
// must not ack when it is non-nil. On a memory-only table the error is
// always nil.
func (t *TxTable) AppendBatchDurable(txs []Tx) (firstID, epoch int64, err error) {
	return t.appendBatch(txs)
}

func (t *TxTable) appendBatch(txs []Tx) (firstID, epoch int64, err error) {
	d := t.dur
	if d != nil {
		d.gate.RLock()
		defer d.gate.RUnlock()
	}
	t.mu.Lock()
	firstID = t.nextID
	start := len(t.txs)
	for _, tx := range txs {
		items := tx.Items
		if !items.Valid() {
			items = itemset.New(items...)
		}
		t.appendLocked(tx.At, items)
	}
	epoch = t.epoch
	var lsn int64
	if d != nil && len(t.txs) > start {
		// Log straight from the table's own entries (stable under t.mu,
		// and exactly the {ID, UTC time, canonical items} replay needs)
		// rather than building a parallel batch copy.
		lsn = d.logAppend(t.name, firstID, t.txs[start:])
	}
	t.mu.Unlock()
	if d != nil {
		err = d.wal.commit(lsn)
	}
	return firstID, epoch, err
}

// appendLocked does the actual insert; callers hold the write lock and
// have canonicalised items.
func (t *TxTable) appendLocked(at time.Time, items itemset.Set) int64 {
	id := t.nextID
	t.nextID++
	if n := len(t.txs); n > 0 && t.txs[n-1].At.After(at) {
		t.sorted = false
	}
	at = at.UTC()
	t.txs = append(t.txs, Tx{ID: id, At: at, Items: items})
	t.epoch++
	if len(t.log) >= changeLogCap {
		// Drop the oldest half; the retained suffix stays contiguous in
		// epoch, which is all DirtySince needs.
		keep := len(t.log) / 2
		copy(t.log, t.log[len(t.log)-keep:])
		t.log = t.log[:keep]
	}
	t.log = append(t.log, changeRec{epoch: t.epoch, at: at})
	return id
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
	if since > epoch || len(t.log) == 0 || t.log[0].epoch > since+1 {
		return nil, epoch, false
	}
	// Epochs in the log are strictly increasing: binary-search the first
	// record past since.
	i := sort.Search(len(t.log), func(i int) bool { return t.log[i].epoch > since })
	seen := make(map[timegran.Granule]struct{})
	for ; i < len(t.log); i++ {
		n := timegran.GranuleOf(t.log[i].at, g)
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

// ensureSorted sorts by timestamp if out-of-order appends happened.
// Callers must hold no lock; it takes the write lock itself.
func (t *TxTable) ensureSorted() {
	t.mu.RLock()
	ok := t.sorted
	t.mu.RUnlock()
	if ok {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.sorted {
		sort.SliceStable(t.txs, func(i, j int) bool { return t.txs[i].At.Before(t.txs[j].At) })
		t.sorted = true
	}
}

// Span returns the granule interval covered by the data at granularity
// g; ok is false when the table is empty.
func (t *TxTable) Span(g timegran.Granularity) (timegran.Interval, bool) {
	t.ensureSorted()
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.txs) == 0 {
		return timegran.Interval{}, false
	}
	lo := timegran.GranuleOf(t.txs[0].At, g)
	hi := timegran.GranuleOf(t.txs[len(t.txs)-1].At, g)
	return timegran.Interval{Lo: lo, Hi: hi}, true
}

// MaxAt returns the newest transaction timestamp — the *stream clock*
// of continuous mining: a granule is closed once MaxAt passes its end
// instant (timegran.ClosedThrough). ok is false when the table is
// empty.
func (t *TxTable) MaxAt() (time.Time, bool) {
	t.ensureSorted()
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.txs) == 0 {
		return time.Time{}, false
	}
	return t.txs[len(t.txs)-1].At, true
}

// rowRange returns the half-open index range [i, j) of transactions
// whose granule at g lies in iv. Requires the table sorted.
func (t *TxTable) rowRange(g timegran.Granularity, iv timegran.Interval) (int, int) {
	startT := timegran.Start(iv.Lo, g)
	endT := timegran.Start(iv.Hi+1, g)
	i := sort.Search(len(t.txs), func(i int) bool { return !t.txs[i].At.Before(startT) })
	j := sort.Search(len(t.txs), func(i int) bool { return !t.txs[i].At.Before(endT) })
	return i, j
}

// CountRange returns the number of transactions whose granule lies in
// iv at granularity g.
func (t *TxTable) CountRange(g timegran.Granularity, iv timegran.Interval) int {
	t.ensureSorted()
	t.mu.RLock()
	defer t.mu.RUnlock()
	i, j := t.rowRange(g, iv)
	return j - i
}

// GranuleCounts returns the transaction count of every granule in
// span, indexed by g - span.Lo. The temporal miners use it to size
// per-granule thresholds.
func (t *TxTable) GranuleCounts(g timegran.Granularity, span timegran.Interval) []int {
	t.ensureSorted()
	t.mu.RLock()
	defer t.mu.RUnlock()
	counts := make([]int, span.Len())
	i, j := t.rowRange(g, span)
	for ; i < j; i++ {
		n := timegran.GranuleOf(t.txs[i].At, g)
		counts[n-span.Lo]++
	}
	return counts
}

// RangeSource exposes the transactions of the granule interval iv as a
// mining source. The view is cheap (no copying) and repeatable.
func (t *TxTable) RangeSource(g timegran.Granularity, iv timegran.Interval) apriori.Source {
	t.ensureSorted()
	t.mu.RLock()
	i, j := t.rowRange(g, iv)
	t.mu.RUnlock()
	return apriori.FuncSource{
		N: j - i,
		Scan: func(fn func(tx itemset.Set)) {
			t.mu.RLock()
			defer t.mu.RUnlock()
			for k := i; k < j; k++ {
				fn(t.txs[k].Items)
			}
		},
	}
}

// GranuleSource exposes a single granule's transactions.
func (t *TxTable) GranuleSource(g timegran.Granularity, n timegran.Granule) apriori.Source {
	return t.RangeSource(g, timegran.Interval{Lo: n, Hi: n})
}

// All exposes the entire table as a mining source (the traditional,
// time-agnostic view).
func (t *TxTable) All() apriori.Source {
	t.ensureSorted()
	return apriori.FuncSource{
		N: t.Len(),
		Scan: func(fn func(tx itemset.Set)) {
			t.mu.RLock()
			defer t.mu.RUnlock()
			for _, tx := range t.txs {
				fn(tx.Items)
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
	s := TableStats{N: len(t.txs)}
	seen := make(map[itemset.Item]struct{})
	for _, tx := range t.txs {
		s.Occurrences += int64(len(tx.Items))
		for _, x := range tx.Items {
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
	t.ensureSorted()
	t.mu.RLock()
	defer t.mu.RUnlock()
	i, j := t.rowRange(g, iv)
	for ; i < j; i++ {
		if !fn(t.txs[i]) {
			return
		}
	}
}

// Each iterates transactions in time order; fn returning false stops.
func (t *TxTable) Each(fn func(tx Tx) bool) {
	t.ensureSorted()
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, tx := range t.txs {
		if !fn(tx) {
			return
		}
	}
}
