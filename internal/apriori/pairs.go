package apriori

import (
	"context"

	"github.com/tarm-project/tarm/internal/itemset"
)

// MaxPairCells caps a triangle's counter scratch, summed over workers:
// 64 MiB of int32 cells, a whole triangle for up to 5 793 items on one
// worker. Past it a pair count scans its source once per block of
// triangle rows (PairTriangle.RowBlocks) instead of allocating
// m(m-1)/2 cells.
const MaxPairCells = 1 << 24

// MaxVerticalItems is the level-2 route crossover. A block of rows in
// which f of the L1 items are frequent costs the vertical kernel
// f(f-1)/2 intersections of its rows/64 words on the flat bitmap index,
// and the triangle a dispatch per basket plus the basket's local pairs
// and a sweep of its cells. The second grows with f more slowly, so
// past the crossover the block goes to the triangle. The block is a
// granule of a hold-table build, or the whole table of MineContext.
// Calibrated on the year × 300 tx/day Quest table at day, week and
// month granularity, supports 0.03–0.08 (EXPERIMENTS E11h): a day at
// 0.04 has f ≈ 84 and takes the vertical kernel; month and week at 0.03
// have f ≈ 150–180 and stay on the triangle, where an all-vertical
// build ran 33 % slower.
const MaxVerticalItems = 112

// PairTriangle lays the pairs of m ranked items out as one triangle of
// cells: the pair of ranks i < j is cell RowStart[i] + (j-i-1), so row
// i holds rank i's pairs with every higher rank. It is the level-2
// kernel of the whole-table miner and of the hold-table build's
// horizontal route: one scan adds each transaction's local pairs to
// their cells, with no candidate list and no intersection per pair.
// The ranks must order items as itemset order does, so that a
// transaction's ranks ascend and a row-major sweep of the cells visits
// the pairs in canonical order.
type PairTriangle struct {
	ranks    *itemset.Ranks
	RowStart []int // len m+1; RowStart[m] is the number of cells
}

// NewPairTriangle lays out the triangle over ranks, which must not be
// added to afterwards.
func NewPairTriangle(ranks *itemset.Ranks) *PairTriangle {
	m := ranks.Len()
	rowStart := make([]int, m+1)
	for i := 0; i < m; i++ {
		rowStart[i+1] = rowStart[i] + m - 1 - i
	}
	return &PairTriangle{ranks: ranks, RowStart: rowStart}
}

// RowBlocks splits the rows holding pairs into consecutive blocks
// [r0, r1) of at most perBlock cells each; a row longer than perBlock
// is a block of its own.
func (t *PairTriangle) RowBlocks(perBlock int) [][2]int {
	m := len(t.RowStart) - 1
	var blocks [][2]int
	for r0 := 0; r0 < m-1; {
		r1 := r0 + 1
		for r1 < m-1 && t.RowStart[r1+1]-t.RowStart[r0] <= perBlock {
			r1++
		}
		blocks = append(blocks, [2]int{r0, r1})
		r0 = r1
	}
	return blocks
}

// Adder returns a scan function that adds one to cells[c-RowStart[r0]]
// for every pair c of a transaction whose lower rank lies in [r0, r1);
// items the ranks do not hold are skipped. The function keeps scratch
// of its own: one goroutine uses it.
func (t *PairTriangle) Adder(r0, r1 int, cells []int32) func(tx itemset.Set) {
	base, rowStart := t.RowStart[r0], t.RowStart
	var txRanks []int
	return func(tx itemset.Set) {
		txRanks = txRanks[:0]
		for _, x := range tx {
			if r := t.ranks.Rank(x); r >= 0 {
				txRanks = append(txRanks, r)
			}
		}
		for a, i := range txRanks {
			if i < r0 {
				continue
			}
			if i >= r1 {
				break
			}
			row := cells[rowStart[i]-base : rowStart[i+1]-base]
			for _, j := range txRanks[a+1:] {
				row[j-i-1]++
			}
		}
	}
}

// frequentPairs is the whole-table level 2: the pairs of the ranked L1
// items that occur in at least minCount transactions of slices, in
// canonical order with their counts. Each of the slice blocks of Blocks
// counts the triangle into cells of its own and the cells are summed,
// so any worker count finds the same pairs; past pairCells, summed over
// the blocks, the triangle is counted one block of rows at a time.
// Cancellation is sampled between slices; a cancelled count returns nil
// and the caller checks ctx.Err().
func frequentPairs(ctx context.Context, slices []Source, ranks *itemset.Ranks, minCount, workers, pairCells int) []ItemsetCount {
	tri := NewPairTriangle(ranks)
	items := ranks.Items()
	blocks := Blocks(len(slices), workers)
	parts := make([][]int32, len(blocks))
	var level []ItemsetCount
	for _, rows := range tri.RowBlocks(pairCells / len(blocks)) {
		r0, r1 := rows[0], rows[1]
		base := tri.RowStart[r0]
		fanOut(blocks, func(b, lo, hi int) {
			cells := make([]int32, tri.RowStart[r1]-base)
			add := tri.Adder(r0, r1, cells)
			for s := lo; s < hi && ctx.Err() == nil; s++ {
				slices[s].ForEach(add)
			}
			parts[b] = cells
		})
		if ctx.Err() != nil {
			return nil
		}
		cells := parts[0]
		for _, part := range parts[1:] {
			for c, n := range part {
				cells[c] += n
			}
		}
		for i := r0; i < r1; i++ {
			for d, n := range cells[tri.RowStart[i]-base : tri.RowStart[i+1]-base] {
				if int(n) >= minCount {
					level = append(level, ItemsetCount{Set: itemset.Set{items[i], items[i+1+d]}, Count: int(n)})
				}
			}
		}
	}
	return level
}
