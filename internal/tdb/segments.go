package tdb

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/timegran"
)

// Segmented persistence: a transaction table is split into fixed-width
// time segments, one checksummed file per segment plus a manifest.
// Appending new data and saving again rewrites only the segments whose
// contents changed — on an append-mostly table that is the final
// segment — pairing with core.(*HoldTable).ExtendContext for an
// end-to-end incremental pipeline.
//
// Layout of a segment directory:
//
//	<dir>/manifest           (TDBM: granularity, width, table name, per-segment counts)
//	<dir>/00000000042.seg    (TDBS: the transactions of segment 42)
//
// A segment covers granules [index·width, (index+1)·width) at the
// manifest's granularity. Segment indices may be negative (pre-epoch
// data); file names use a +1e9 offset to stay sortable and positive.

const (
	magicManifest = "TDBM"
	magicSegment  = "TDBS"
	segNameOffset = int64(1_000_000_000)
	manifestFile  = "manifest"
)

// The segment grid every table is saved on: 32-day segments. A
// manifest records the grid it was written on; a save refuses a
// directory on another grid, because skipping a segment by its count is
// sound only when both saves cut the table the same way.
const (
	segmentGran  = timegran.Day
	segmentWidth = 32
)

// segIndex maps an instant to its segment.
func segIndex(at time.Time) int64 {
	g := timegran.GranuleOf(at, segmentGran)
	if g >= 0 {
		return g / segmentWidth
	}
	return (g - segmentWidth + 1) / segmentWidth
}

func segFileName(idx int64) string {
	return fmt.Sprintf("%011d.seg", idx+segNameOffset)
}

// SegmentSaveStats reports what a segmented save did.
type SegmentSaveStats struct {
	Written, Skipped int
}

// SaveTxTableSegmented writes t into dir on the segment grid. Segments
// whose transaction count matches the manifest are skipped (old
// segments of an append-only table never change, so count equality
// identifies them); changed or new segments are rewritten atomically,
// and the manifest is updated last.
func SaveTxTableSegmented(t *TxTable, dir string) (SegmentSaveStats, error) {
	var stats SegmentSaveStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return stats, fmt.Errorf("tdb: segment dir %s: %w", dir, err)
	}

	// Previous manifest (absent on first save). The counts of one
	// written before gapRows are not used: every segment it lists is
	// fixed-width, so every one is rewritten.
	oldCounts := map[int64]int64{}
	manifestPath := filepath.Join(dir, manifestFile)
	if _, err := os.Stat(manifestPath); err == nil {
		m, err := loadManifest(manifestPath)
		if err != nil {
			return stats, err
		}
		if m.gran != segmentGran || m.width != segmentWidth {
			return stats, fmt.Errorf("tdb: segment dir %s uses %v×%d, save requested %v×%d",
				dir, m.gran, m.width, segmentGran, segmentWidth)
		}
		if m.version == gapRows {
			oldCounts = m.counts
		}
	}

	// Walk the segments (table order is time order), writing the ones
	// whose count changed straight from the table's rows.
	newCounts := map[int64]int64{}
	err := t.eachSegment(func(idx int64, lo, hi int) error {
		newCounts[idx] = int64(hi - lo)
		if oldCounts[idx] == int64(hi-lo) {
			stats.Skipped++
			return nil
		}
		stats.Written++
		return writeSegment(filepath.Join(dir, segFileName(idx)), idx, t, lo, hi)
	})
	if err != nil {
		return stats, err
	}
	// Segments that vanished (data deleted) are removed.
	for idx := range oldCounts {
		if _, ok := newCounts[idx]; !ok {
			if err := removeIfExists(filepath.Join(dir, segFileName(idx))); err != nil {
				return stats, err
			}
		}
	}
	if err := writeManifest(manifestPath, t.Name(), t.nextIDSnapshot(), segmentGran, segmentWidth, newCounts); err != nil {
		return stats, err
	}
	return stats, nil
}

// eachSegment calls fn, in time order, with the row range [lo, hi) of
// every segment that holds transactions. The table's read lock is held
// throughout.
func (t *TxTable) eachSegment(fn func(idx int64, lo, hi int) error) error {
	t.rlockSorted()
	defer t.mu.RUnlock()
	for lo := 0; lo < t.nrows; {
		idx := segIndex(t.timeAt(lo))
		hi := lo + 1
		for hi < t.nrows && segIndex(t.timeAt(hi)) == idx {
			hi++
		}
		if err := fn(idx, lo, hi); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// nextIDSnapshot reads the id counter under the lock.
func (t *TxTable) nextIDSnapshot() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nextID
}

// LoadTxTableSegmented reads a segment directory back into a table.
// Every referenced segment must be present and pass its checksum.
//
// A segment holding more rows than its manifest count is one a
// checkpoint rewrote before a crash kept it from writing the manifest:
// its rows from the manifest's next ID on are appends the WAL still
// holds and replays, so they are dropped, and the rest must match the
// count. A segment whose count agrees is read whole.
func LoadTxTableSegmented(dir string) (*TxTable, error) {
	m, err := loadManifest(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, err
	}
	tbl, err := NewTxTable(m.table)
	if err != nil {
		return nil, err
	}
	idxs := make([]int64, 0, len(m.counts))
	for idx := range m.counts {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	for _, idx := range idxs {
		n, err := tbl.loadSegment(filepath.Join(dir, segFileName(idx)), idx, m.counts[idx], m.nextID)
		if err != nil {
			return nil, err
		}
		if int64(n) != m.counts[idx] {
			return nil, fmt.Errorf("tdb: segment %d has %d transactions, manifest says %d",
				idx, n, m.counts[idx])
		}
	}
	tbl.nextID = m.nextID
	tbl.epoch = int64(tbl.nrows)
	return tbl, nil
}

type manifest struct {
	version uint32 // gapRows, or fixedRows for segments written before it
	table   string
	nextID  int64
	gran    timegran.Granularity // the grid it was written on
	width   int
	counts  map[int64]int64
}

func writeManifest(path, table string, nextID int64, gran timegran.Granularity, width int, counts map[int64]int64) error {
	e := &encoder{}
	e.buf.WriteString(magicManifest)
	e.u32(gapRows)
	e.str(table)
	e.i64(nextID)
	e.u8(uint8(gran))
	e.u32(uint32(width))
	idxs := make([]int64, 0, len(counts))
	for idx := range counts {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	e.u32(uint32(len(idxs)))
	for _, idx := range idxs {
		e.i64(idx)
		e.i64(counts[idx])
	}
	return writeAtomic(path, e.buf.Bytes())
}

func loadManifest(path string) (*manifest, error) {
	d, version, err := readChecked(path, magicManifest, gapRows)
	if err != nil {
		return nil, err
	}
	m := &manifest{version: version, counts: map[int64]int64{}}
	m.table = d.str()
	m.nextID = d.i64()
	m.gran = timegran.Granularity(d.u8())
	m.width = int(d.u32())
	n := int(d.u32())
	for i := 0; i < n && d.err == nil; i++ {
		idx := d.i64()
		m.counts[idx] = d.i64()
	}
	if d.err != nil {
		return nil, d.err
	}
	if !m.gran.Valid() {
		return nil, fmt.Errorf("tdb: %s: segment granularity %d invalid", path, int(m.gran))
	}
	if m.width < 1 {
		return nil, fmt.Errorf("tdb: %s: segment width %d must be ≥ 1", path, m.width)
	}
	return m, nil
}

// writeSegment writes rows [lo, hi) of t — the transactions of segment
// idx, in time order — as one segment file.
func writeSegment(path string, idx int64, t *TxTable, lo, hi int) error {
	return writeAtomic(path, t.encodeSegment(idx, lo, hi))
}

// encodeSegment is the body of a segment file holding rows [lo, hi):
// its index, the row count and the rows in the gapRows coding. The
// caller holds the read lock with the rows sorted.
func (t *TxTable) encodeSegment(idx int64, lo, hi int) []byte {
	e := &encoder{}
	e.buf.WriteString(magicSegment)
	e.u32(gapRows)
	e.i64(idx)
	e.u64(uint64(hi - lo))
	var prev row
	for i := lo; i < hi; i++ {
		r := t.row(i)
		e.buf.Write(t.appendRow(e.buf.AvailableBuffer(), r, prev, true))
		prev = r
	}
	return e.buf.Bytes()
}

// loadSegment appends the transactions of one segment file to t, which
// no one else can see yet, and returns how many it stored. A segment
// holding more than count, its manifest's, gives up its rows from
// nextID on. On an error t holds a prefix of the segment and is to be
// discarded.
func (t *TxTable) loadSegment(path string, wantIdx, count, nextID int64) (int, error) {
	d, version, err := readChecked(path, magicSegment, gapRows)
	if err != nil {
		return 0, err
	}
	below := int64(math.MaxInt64)
	if head := *d; head.i64() == wantIdx && head.u64() > uint64(count) && head.err == nil {
		below = nextID // rewritten past its manifest: see LoadTxTableSegmented
	}
	n, err := t.decodeSegment(d, version, wantIdx, below)
	if err != nil {
		return 0, fmt.Errorf("tdb: %s: %w", path, err)
	}
	return n, nil
}

// decodeSegment stores the rows of a segment body whose IDs are below
// below, d positioned after its version, and returns how many it
// stored. Every row is decoded and checked. A gapRows segment's rows
// must be in time order, as the writer leaves them; fixedRows rows are
// stored in any order.
func (t *TxTable) decodeSegment(d *decoder, version uint32, wantIdx, below int64) (int, error) {
	if idx := d.i64(); idx != wantIdx {
		return 0, fmt.Errorf("segment index %d, want %d", idx, wantIdx)
	}
	n := d.u64()
	if d.err == nil && n > uint64(len(d.b)-d.off) {
		return 0, fmt.Errorf("implausible transaction count %d", n)
	}
	var items itemset.Set // decode scratch; storeRow copies it
	var id, at int64
	stored := 0
	for i := uint64(0); i < n && d.err == nil; i++ {
		var err error
		if version == fixedRows {
			id, at = d.i64(), d.i64()
			items, err = d.items(items[:0])
		} else {
			prevAt := at
			at += d.varint()
			id += d.varint()
			if i > 0 && at < prevAt && d.err == nil {
				return 0, fmt.Errorf("transaction %d: earlier than the row before it", id)
			}
			items, err = d.gaps(items[:0])
		}
		if d.err != nil {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("transaction %d: %w", id, err)
		}
		if id >= below {
			continue
		}
		if err := t.storeRow(id, at, items); err != nil {
			return 0, err
		}
		stored++
	}
	if d.err != nil {
		return 0, d.err
	}
	if d.off != len(d.b) {
		return 0, fmt.Errorf("%d trailing bytes", len(d.b)-d.off)
	}
	return stored, nil
}
