package apriori

import (
	"context"
	"fmt"
	"sync"

	"github.com/tarm-project/tarm/internal/itemset"
)

// SliceCounter is the counting primitive every miner in this repository
// rests on: given one level of sorted k-candidates and a transaction
// source cut into consecutive slices, Count returns count[cand][slice],
// the number of transactions of each slice that contain each candidate.
// Whole-table Apriori passes one slice; the temporal hold table passes
// one slice per granule of its span (an inactive granule is an empty
// slice); incremental maintenance passes only the dirty granules.
//
// The vertical driver serves every mine: it ingests the slices into a
// TID index once — slice s owns the consecutive rows
// bounds[s]..bounds[s+1] — then intersects each candidate once and cuts
// the intersection into slice counts by range-count. The backend picks
// the index (flat words, roaring containers). The horizontal driver is
// the naive reference: it tests every candidate against every row of a
// slice.
//
// A SliceCounter serves one mining run, level after level, so the
// vertical index is built by the first Count and reused by the rest. It
// is not safe for concurrent use.
type SliceCounter struct {
	backend Backend
	slices  []Source
	keep    *itemset.Ranks
	workers int
	rows    int // transactions over all slices

	index  verticalIndex // vertical backends: built by the first Count
	bounds []int         // slice s is rows [bounds[s], bounds[s+1]) of index
}

// NewSliceCounter prepares counting over slices on the given backend.
// keep, when non-nil, names the only items candidates can contain — the
// ingest filter of the vertical indexes — and must not be added to
// afterwards. workers > 1 fans a Count out: over contiguous blocks of
// slices on the horizontal driver and in the flat index's ingest, over
// prefix-aligned candidate chunks on the vertical driver's
// intersections. Counts are identical at any worker count.
//
// BackendAuto is resolved here, the one place that sees both inputs of
// the rule, and nowhere else: Backend reports what it became.
func NewSliceCounter(backend Backend, slices []Source, keep *itemset.Ranks, workers int) *SliceCounter {
	c := &SliceCounter{backend: backend, slices: slices, keep: keep, workers: workers}
	for _, s := range slices {
		c.rows += s.Len()
	}
	if backend == BackendAuto {
		items := 0 // no keep: nothing names the items an index would hold
		if keep != nil {
			items = keep.Len()
		}
		c.backend = resolveAuto(c.rows, items)
	}
	return c
}

// maxBitmapBytes caps the memory auto will spend on a flat bitmap
// index: one row of ⌈rows/64⌉ words per kept item.
const maxBitmapBytes = 512 << 20

// resolveAuto is the whole of BackendAuto. It is a rule, not a model:
// the flat bitmap won every full mine and hold-table build measured —
// dense and sparse, 10⁴ to 10⁶ rows, up to 20 000 items (EXPERIMENTS.md
// E14) — so there is nothing to price. Below a word of rows the index is
// one word per item; with no keep set the index ranks the items itself
// (NewBitmapIndex). Roaring is the one vertical index that still fits
// once the flat one would not.
func resolveAuto(rows, items int) Backend {
	if float64(items)*float64((rows+63)/64)*8 <= maxBitmapBytes {
		return BackendBitmap
	}
	return BackendRoaring
}

// Backend reports the backend the counter counts on; never BackendAuto.
func (c *SliceCounter) Backend() Backend { return c.backend }

// FlatIndex returns the flat bitmap index Count intersects, and the row
// bounds of the slices in it, ingesting the index now if no Count has
// yet: a caller that decides over the index before counting shares the
// one ingest. It returns nil unless the counter counts on BackendBitmap
// over some rows, and when the ingest was cancelled.
func (c *SliceCounter) FlatIndex(ctx context.Context) (*BitmapIndex, []int) {
	if c.backend != BackendBitmap || c.rows == 0 {
		return nil, nil
	}
	if c.index == nil {
		c.ingest(ctx)
	}
	ix, _ := c.index.(*BitmapIndex)
	if ix == nil {
		return nil, nil
	}
	return ix, c.bounds
}

// Count returns count[cand][slice] for one level of candidates, which
// must share one length k ≥ 1 and arrive in canonical sorted order.
//
// Cancellation is sampled at slice and candidate-block boundaries only,
// never per transaction; a cancelled Count returns partial counts, which
// the caller must discard after checking ctx.Err().
func (c *SliceCounter) Count(ctx context.Context, cands []itemset.Set) (*Counts, error) {
	if !c.backend.Valid() {
		return nil, fmt.Errorf("apriori: invalid counting backend %d", int(c.backend))
	}
	m := newCounts(len(cands), len(c.slices))
	if len(cands) == 0 || c.rows == 0 {
		return m, nil // no rows: no index to build, nothing occurs
	}
	k := len(cands[0])
	for _, cand := range cands {
		if len(cand) != k || k < 1 {
			return nil, fmt.Errorf("apriori: candidate %v has length %d, want %d ≥ 1", cand, len(cand), k)
		}
	}
	if c.backend == BackendNaive {
		c.countHorizontal(ctx, cands, m)
	} else {
		c.countVertical(ctx, cands, m)
	}
	return m, nil
}

// Counts is the result of a Count: count[cand][slice], sparse by row — a
// candidate that occurs in no slice has a nil row, never an allocated
// zero one, so a large level counted over a few small slices stays
// cheap. Over a single slice there are no row headers at all, only one
// count per candidate: a whole-table level costs one allocation.
type Counts struct {
	rows  [][]int32 // several slices: allocated on a row's first nonzero cell
	flat  []int32   // one slice: row i is flat[i:i+1], or nil while zero
	width int
}

func newCounts(nCands, width int) *Counts {
	if width == 1 {
		return &Counts{flat: make([]int32, nCands), width: 1}
	}
	return &Counts{rows: make([][]int32, nCands), width: width}
}

// Row returns candidate i's count in every slice, or nil when it occurs
// in none. The vector is shared: callers must not modify it, and over a
// single slice keeping it keeps the level's counts alive.
func (m *Counts) Row(i int) []int32 {
	if m.flat == nil {
		return m.rows[i]
	}
	if m.flat[i] == 0 {
		return nil
	}
	return m.flat[i : i+1 : i+1]
}

// set stores a nonzero count. Concurrent callers must own distinct rows.
func (m *Counts) set(i, s, n int) {
	if m.flat != nil {
		m.flat[i] = int32(n)
		return
	}
	if m.rows[i] == nil {
		m.rows[i] = make([]int32, m.width)
	}
	m.rows[i][s] = int32(n)
}

// --- horizontal driver ----------------------------------------------

// countHorizontal is the naive reference: a direct subset test of every
// candidate against every transaction of each slice, flushed into the
// slice's column. The property tests anchor the vertical indexes to it.
// Slices are independent, so workers take contiguous blocks of them,
// each with tallies of its own.
func (c *SliceCounter) countHorizontal(ctx context.Context, cands []itemset.Set, m *Counts) {
	blocks := Blocks(len(c.slices), c.workers)
	if len(blocks) > 1 {
		// Workers own columns and share rows, so no worker may allocate
		// one: all of them exist before the fan-out, and the untouched
		// ones are dropped after it.
		for i := range m.rows {
			m.rows[i] = make([]int32, m.width)
		}
	}
	fanOut(blocks, func(_, lo, hi int) {
		counts := make([]int, len(cands))
		for s := lo; s < hi && ctx.Err() == nil; s++ {
			c.slices[s].ForEach(func(tx itemset.Set) {
				for i, cand := range cands {
					if tx.ContainsAll(cand) {
						counts[i]++
					}
				}
			})
			for i, n := range counts {
				if n != 0 {
					m.set(i, s, n)
					counts[i] = 0
				}
			}
		}
	})
	if len(blocks) > 1 {
		for i, v := range m.rows {
			if allZero(v) {
				m.rows[i] = nil
			}
		}
	}
}

func allZero(v []int32) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// --- vertical driver ------------------------------------------------

// verticalIndex is the vertical driver's parameter: a TID index over
// the ingested rows. fill computes each candidate's intersection once
// and cuts it into slice counts — one range-count over
// [bounds[s], bounds[s+1]) per slice — stored as rows base.. of m.
type verticalIndex interface {
	fill(m *Counts, base int, cands []itemset.Set, bounds []int)
}

// cancelBlock is the number of candidates the vertical driver counts
// between cancellation checks: large enough to keep the check off the
// intersection hot path and to preserve prefix reuse within the block,
// small enough to stop a big level promptly.
const cancelBlock = 512

func (c *SliceCounter) countVertical(ctx context.Context, cands []itemset.Set, m *Counts) {
	if c.index == nil {
		c.ingest(ctx)
	}
	if c.index == nil {
		return // the ingest was cancelled
	}
	// Chunks fall on (k-1)-prefix run boundaries, so prefix reuse keeps
	// working inside each and no run pays its prefix intersection twice;
	// workers write disjoint rows.
	fanOut(PrefixRunChunks(cands, min(c.workers, len(cands))), func(_, lo, hi int) {
		for b := lo; b < hi && ctx.Err() == nil; b += cancelBlock {
			e := min(b+cancelBlock, hi)
			c.index.fill(m, b, cands[b:e], c.bounds)
		}
	})
}

// ingest builds the index over the slices in order, so that each owns a
// contiguous row range; the flat index shards it over c.workers. A
// cancelled ingest is dropped, not kept half built.
func (c *SliceCounter) ingest(ctx context.Context) {
	var ix verticalIndex
	if c.backend == BackendBitmap {
		bix := NewBitmapIndex(ctx, c.slices, c.keep, c.workers)
		if bix == nil {
			return
		}
		ix = bix
	} else {
		ix = NewRoaringIndex(FuncSource{N: c.rows, Scan: func(fn func(tx itemset.Set)) {
			for _, sl := range c.slices {
				if ctx.Err() != nil {
					return
				}
				sl.ForEach(fn)
			}
		}}, c.keep)
	}
	if ctx.Err() == nil {
		c.index, c.bounds = ix, sliceBounds(c.slices)
	}
}

// --- fan-out ----------------------------------------------------------

// Blocks splits [0, n) into at most workers contiguous, non-empty
// blocks [lo, hi); workers ≤ 1 yields the single block [0, n).
func Blocks(n, workers int) [][2]int {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return [][2]int{{0, n}}
	}
	blocks := make([][2]int, 0, workers)
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		blocks = append(blocks, [2]int{lo, min(lo+chunk, n)})
	}
	return blocks
}

// fanOut runs fn on every range — inline when there is only one, else
// one goroutine each — and returns when all are done.
func fanOut(ranges [][2]int, fn func(r, lo, hi int)) {
	if len(ranges) == 1 {
		fn(0, ranges[0][0], ranges[0][1])
		return
	}
	var wg sync.WaitGroup
	for r, rg := range ranges {
		wg.Add(1)
		go func(r, lo, hi int) {
			defer wg.Done()
			fn(r, lo, hi)
		}(r, rg[0], rg[1])
	}
	wg.Wait()
}
