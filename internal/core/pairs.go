package core

import (
	"context"
	"math"
	"math/bits"
	"sync"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/itemset"
)

// The level-2 decision: which pairs of L1 items are frequent in at least
// h.floor active granules (one, unless the build is scoped). It is the
// build's largest pass — the join is every pair of L1, a few percent of
// which survive — so no pair gets a count vector until it is decided,
// and each granule is decided on the kernel that is cheap for it. See
// DESIGN §"The level-2 pair decision".

// pairRoutes counts the granules each route decided. Granules where
// fewer than two L1 items are frequent hold no frequent pair and take
// neither.
type pairRoutes struct{ vertical, horizontal int }

// frequentPairs returns, in canonical order, the level-2 candidates
// that are frequent in at least h.floor of the given granules, and how
// many granules each route decided. slices are the counter's slices:
// slices[j] is granule cols[j] of the span, cols ascending. The build
// decides every granule; Maintain decides its dirty ones, where a pair
// untracked before can have become frequent.
//
// A pair can be frequent in granule g only if both its items are, so g
// is decided over its local items: the L1 items whose frequency words
// have g set. When the counter counts on the flat bitmap index and g
// has at most verticalItems local items, the vertical route decides g
// from that index — the one ingest the counter makes — by AND + popcount
// of each local pair's words over g's row range. Every other granule
// goes to the horizontal route, a triangular counter scan (markPairRows).
// Both mark one triangle of cells, rowStart[i] + (j-i-1) for the ranks
// i < j, and the survivors are read off it in rank order. A mark counts
// the granules the pair is frequent in, saturating at the floor.
//
// ranks must rank the L1 items in item order — h.ByK[1]'s order, so a
// rank indexes h.freq[1] too. workers > 1 shards each route over blocks
// of its granules; each worker marks its own triangle and the triangles
// are summed, saturating, so any worker count selects the same pairs. A
// cancelled decision leaves partial marks: the caller checks ctx.Err()
// before using the result.
func (h *HoldTable) frequentPairs(ctx context.Context, slices []apriori.Source, cols []int, counter *apriori.SliceCounter, ranks *itemset.Ranks, workers, pairCells, verticalItems int) ([]itemset.Set, pairRoutes) {
	m := ranks.Len()
	tri := apriori.NewPairTriangle(ranks)
	rowStart := tri.RowStart
	// A mark saturates at the floor, capped at what a uint16 holds: a
	// floor above the cap is still applied exactly, by the keep loop.
	sat := uint16(min(h.floor, math.MaxUint16))
	marks := make([]uint16, rowStart[m])
	local := h.itemsByGranule(cols)
	minCounts := make([]int, len(cols)) // slice j's threshold
	for j, gi := range cols {
		minCounts[j] = h.MinCounts[gi]
	}
	flat := counter.Backend() == apriori.BackendBitmap
	var vertical, horizontal []int // slice indexes, in span order
	for j := range cols {
		switch f := local.off[j+1] - local.off[j]; {
		case f < 2: // no pair can be frequent here
		case flat && f <= verticalItems:
			vertical = append(vertical, j)
		default:
			horizontal = append(horizontal, j)
		}
	}
	routes := pairRoutes{vertical: len(vertical), horizontal: len(horizontal)}
	if len(vertical) > 0 {
		ix, bounds := counter.FlatIndex(ctx)
		if ix == nil {
			return nil, routes // the ingest was cancelled
		}
		markVertical(ctx, ix, bounds, local, minCounts, vertical, rowStart, marks, sat, workers)
	}
	if len(horizontal) > 0 {
		markHorizontal(ctx, slices, minCounts, tri, horizontal, marks, sat, workers, pairCells)
	}

	n := 0
	for _, marked := range marks {
		if marked >= sat {
			n++
		}
	}
	items := ranks.Items()
	slab := make([]itemset.Item, 0, 2*n) // one allocation for every survivor
	out := make([]itemset.Set, 0, n)
	for i := 0; i < m-1; i++ {
		for d, marked := range marks[rowStart[i]:rowStart[i+1]] {
			if marked >= sat {
				slab = append(slab, items[i], items[i+1+d])
				out = append(out, itemset.Set(slab[len(slab)-2:len(slab):len(slab)]))
			}
		}
	}
	return out, routes
}

// localItems lists, per decided granule, the ranks of the L1 items
// frequent in it, ascending: slice j's are rank[off[j]:off[j+1]].
type localItems struct {
	off  []int
	rank []int32
}

// itemsByGranule transposes the L1 frequency words at the granules cols
// (ascending offsets in the span) into per-granule lists, indexed by
// position in cols.
func (h *HoldTable) itemsByGranule(cols []int) localItems {
	w := len(h.Active)
	mask := make([]uint64, w) // the granules of cols
	pos := make([]int32, h.NGranules())
	for j, gi := range cols {
		setBit(mask, gi)
		pos[gi] = int32(j)
	}
	l1 := h.freq[1]
	m := len(h.ByK[1])
	off := make([]int, len(cols)+1)
	for r := range m {
		for wi, x := range l1[r*w : (r+1)*w] {
			for x &= mask[wi]; x != 0; x &= x - 1 {
				off[pos[wi<<6+bits.TrailingZeros64(x)]+1]++
			}
		}
	}
	for j := range cols {
		off[j+1] += off[j]
	}
	rank := make([]int32, off[len(cols)])
	next := make([]int, len(cols))
	copy(next, off)
	for r := range m {
		for wi, x := range l1[r*w : (r+1)*w] {
			for x &= mask[wi]; x != 0; x &= x - 1 {
				j := pos[wi<<6+bits.TrailingZeros64(x)]
				rank[next[j]] = int32(r)
				next[j]++
			}
		}
	}
	return localItems{off: off, rank: rank}
}

// shardMarks runs mark over contiguous blocks of granules — granules[lo:hi]
// for each block of apriori.Blocks — each block into its own triangle,
// and sums the triangles into marks, saturating at sat. One block marks
// marks in place.
func shardMarks(granules []int, workers int, marks []uint16, sat uint16, mark func(granules []int, marks []uint16)) {
	blocks := apriori.Blocks(len(granules), workers)
	if len(blocks) == 1 {
		mark(granules, marks)
		return
	}
	parts := make([][]uint16, len(blocks))
	var wg sync.WaitGroup
	for b, blk := range blocks {
		wg.Add(1)
		go func(b, lo, hi int) {
			defer wg.Done()
			parts[b] = make([]uint16, len(marks))
			mark(granules[lo:hi], parts[b])
		}(b, blk[0], blk[1])
	}
	wg.Wait()
	for _, part := range parts {
		for c, marked := range part {
			marks[c] = uint16(min(int(marks[c])+int(marked), int(sat)))
		}
	}
}

// markVertical is the vertical route. For each of its granules — slice
// indexes, as are local's lists and the index's bounds — it copies the
// local items' words over the granule's rows into a dense f × W
// scratch, masked to the row range, then marks every local pair whose
// AND popcounts to the granule's threshold, minCounts[j]. Cancellation
// is sampled at each granule.
func markVertical(ctx context.Context, ix *apriori.BitmapIndex, bounds []int, local localItems, minCounts []int, granules []int, rowStart []int, marks []uint16, sat uint16, workers int) {
	shardMarks(granules, workers, marks, sat, func(granules []int, marks []uint16) {
		var scratch []uint64
		for _, j := range granules {
			if ctx.Err() != nil {
				return
			}
			rs := local.rank[local.off[j]:local.off[j+1]]
			lo, hi := bounds[j], bounds[j+1]
			nw := (hi-1)>>6 - lo>>6 + 1
			if need := len(rs) * nw; cap(scratch) < need {
				scratch = make([]uint64, need)
			}
			for a, r := range rs {
				ix.RangeWords(scratch[a*nw:(a+1)*nw], int(r), lo, hi)
			}
			thr := minCounts[j]
			for a, i := range rs[:len(rs)-1] {
				row := scratch[a*nw : (a+1)*nw]
				cell0 := rowStart[i] - int(i) - 1 // + j is the cell of (i, j)
				for b, j := range rs[a+1:] {
					other := scratch[(a+1+b)*nw : (a+2+b)*nw]
					n := 0
					for w := range row {
						n += bits.OnesCount64(row[w] & other[w])
					}
					if cell := cell0 + int(j); n >= thr && marks[cell] < sat {
						marks[cell]++
					}
				}
			}
		}
	})
}

// markHorizontal is the horizontal route: the triangle scan over its
// granules, slice indexes with thresholds minCounts. When the triangle
// exceeds pairCells its rows are split into blocks that fit
// (apriori.PairTriangle.RowBlocks) and the granules are scanned once
// per block.
func markHorizontal(ctx context.Context, slices []apriori.Source, minCounts []int, tri *apriori.PairTriangle, granules []int, marks []uint16, sat uint16, workers, pairCells int) {
	perWorker := pairCells / len(apriori.Blocks(len(granules), workers))
	for _, rows := range tri.RowBlocks(perWorker) {
		if ctx.Err() != nil {
			return
		}
		r0, r1 := rows[0], rows[1]
		rowMarks := marks[tri.RowStart[r0]:tri.RowStart[r1]]
		shardMarks(granules, workers, rowMarks, sat, func(granules []int, marks []uint16) {
			markPairRows(ctx, slices, minCounts, tri, r0, r1, granules, marks, sat)
		})
	}
}

// markPairRows is one scan of the horizontal route: it counts the pairs
// whose lower rank lies in rows [r0, r1) over the given granules, with
// the triangle kernel the whole-table miner uses, and adds one to
// marks[cell - RowStart[r0]], saturating at sat, for each pair that
// reaches a granule's threshold. The flush sweeps the whole array: at
// these sizes that beats keeping a list of touched cells, whose
// bookkeeping sits on the increment path. Filtering a basket down to
// its granule's local items was measured too, and cost as much as the
// increments it saved. Cancellation is sampled at each granule.
func markPairRows(ctx context.Context, slices []apriori.Source, minCounts []int, tri *apriori.PairTriangle, r0, r1 int, granules []int, marks []uint16, sat uint16) {
	cells := make([]int32, tri.RowStart[r1]-tri.RowStart[r0])
	add := tri.Adder(r0, r1, cells)
	for _, j := range granules {
		if ctx.Err() != nil {
			return
		}
		slices[j].ForEach(add)
		thr := int32(minCounts[j])
		for c, v := range cells {
			if v >= thr && marks[c] < sat {
				marks[c]++
			}
		}
		clear(cells)
	}
}

// jointlyFrequent filters a level's candidates, k ≥ 3, to those whose
// (k-1)-subsets are frequent together in at least h.floor granules: the
// AND of their stored frequency words (h's top level) has that many
// bits. A candidate is frequent only where all its subsets are, so the
// rest would count to vectors the keep loop drops. It filters cands in place.
// Cancellation is sampled every keepCheckEvery candidates; a cancelled
// filter returns what it kept so far, and the caller checks ctx.Err().
func (h *HoldTable) jointlyFrequent(ctx context.Context, cands []itemset.Set) []itemset.Set {
	w := len(h.Active)
	and := make([]uint64, w)
	var sub itemset.Set
	out := cands[:0]
	for ci, c := range cands {
		if ci > 0 && ci%keepCheckEvery == 0 && ctx.Err() != nil {
			return out
		}
		live := true
		for drop := range c {
			sub = append(append(sub[:0], c[:drop]...), c[drop+1:]...)
			f := h.freqOf(sub)
			if f == nil {
				live = false // defensive: the join's prune keeps only frequent subsets
				break
			}
			if drop == 0 {
				copy(and, f)
				continue
			}
			if live = andInPlace(and, f) >= h.floor; !live {
				break
			}
		}
		if live {
			out = append(out, c)
		}
	}
	return out
}

// andInPlace sets a &= b and returns the number of bits left.
func andInPlace(a, b []uint64) int {
	left := 0
	for i := range a {
		a[i] &= b[i]
		left += bits.OnesCount64(a[i])
	}
	return left
}
