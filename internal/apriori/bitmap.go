package apriori

import (
	"context"
	"math/bits"
	"sync"

	"github.com/tarm-project/tarm/internal/itemset"
)

// BitmapIndex is the vertical (Eclat-style) transaction representation:
// one TID bitmap per item, one bit per transaction, packed into uint64
// words. A candidate k-itemset is counted by intersecting its items'
// bitmaps and popcounting the result, which turns support counting into
// word-parallel AND + POPCNT instead of a per-transaction subset walk.
//
// The index is built once per mining run (one scan of the source) and
// then serves every level; it is immutable after construction, so any
// number of goroutines may count against it concurrently. Intersection
// scratch comes from bitmapScratchPool, not from the index: a sync.Pool
// inside the index would register the index with the runtime and keep
// it reachable for two collections after its last use.
type BitmapIndex struct {
	n     int
	words int
	ranks *itemset.Ranks // item → row of bits
	bits  [][]uint64     // one row per ranked item, all-zero if it never occurred
	zero  []uint64       // shared all-zero bitmap for items absent from the index
}

// bitmapScratch is the pooled accumulator of one intersection chain:
// row d holds the intersection of a candidate's items [0..d+1].
type bitmapScratch struct{ acc [][]uint64 }

// bitmapScratchPool holds accumulators of any index; getScratch fits
// one to the index it is drawn for, so steady-state EachIntersection
// calls against one index allocate nothing.
var bitmapScratchPool sync.Pool // *bitmapScratch

func (ix *BitmapIndex) getScratch(levels int) *bitmapScratch {
	sc, _ := bitmapScratchPool.Get().(*bitmapScratch)
	if sc == nil {
		sc = &bitmapScratch{}
	}
	for len(sc.acc) < levels {
		sc.acc = append(sc.acc, nil)
	}
	for d, row := range sc.acc[:levels] {
		if cap(row) < ix.words {
			row = make([]uint64, ix.words)
		}
		sc.acc[d] = row[:ix.words]
	}
	return sc
}

// NewBitmapIndex ingests slices once, in order, assigning transaction
// IDs in scan order: slice s owns the consecutive IDs
// sliceBounds(slices)[s] up to [s+1]. keep == nil indexes every item;
// otherwise only the items keep ranks get a bitmap — the level-wise
// miner passes its frequent 1-itemsets, since an infrequent item can
// never appear in a candidate. keep is retained and must not be added
// to afterwards.
//
// The rows live in one slab, and the ingest's item loop has no branch
// on whether an item is kept: an item outside keep sets its bit in a
// discard entry that is never stored (ingestBlock). Without keep, which
// only tests and benchmarks pass, every item is ranked as met by a
// level-1 scan first, so there is one ingest.
//
// workers > 1 shards the ingest over the contiguous slice blocks of
// Blocks — the blocks of a hold-table build's level-1 scan, or the row
// blocks of a whole-table mine — each block setting the bits of its own
// ID range into the slab allocated before the fan-out. Blocks own
// disjoint ID ranges, so only a block's first word can also hold the
// bits of the block before it: the block sets that word in a private
// row, ORed in after the join, and the index is bit-identical at any
// worker count. A single slice, or workers ≤ 1, is one block.
//
// Cancellation is sampled at slice boundaries; a cancelled ingest
// returns nil, never a half-built index.
func NewBitmapIndex(ctx context.Context, slices []Source, keep *itemset.Ranks, workers int) *BitmapIndex {
	if keep == nil {
		items, _ := CountLevel1(ctx, slices, workers)
		keep = new(itemset.Ranks)
		for _, x := range items {
			keep.Add(x)
		}
	}
	bounds := sliceBounds(slices)
	n := bounds[len(slices)]
	words := (n + 63) / 64
	ix := &BitmapIndex{
		n:     n,
		words: words,
		ranks: keep,
		zero:  make([]uint64, words),
	}
	slab := make([]uint64, keep.Len()*words)
	ix.bits = make([][]uint64, keep.Len())
	for r := range ix.bits {
		ix.bits[r] = slab[r*words : (r+1)*words : (r+1)*words]
	}
	blocks := Blocks(len(slices), workers)
	edges := make([]blockEdge, len(blocks))
	fanOut(blocks, func(b, lo, hi int) {
		edges[b] = ix.ingestBlock(ctx, slab, slices, bounds, lo, hi)
	})
	if ctx.Err() != nil {
		return nil
	}
	for _, e := range edges {
		for r, v := range e.bits {
			slab[r*words+e.w] |= v
		}
	}
	return ix
}

// blockEdge is the one word an ingest block may share with the block
// before it: bits[r] is item rank r's word w. The first block, and a
// block without rows, has none (nil bits).
type blockEdge struct {
	w    int
	bits []uint64
}

// ingestBlock sets the bits of slices [lo, hi) into the slab. It
// collects one word of rows at a time in a column, one entry per kept
// item plus a discard entry: an item sets its bit at col[rank+1], so an
// item outside keep (rank -1) sets the discard entry, and the item loop
// has no branch. Each item's write lands in that small column, not in
// its own row of the slab, a page or more from the next. When the rows
// move on to the next word the column's set entries, less the discard
// entry, are stored into the slab: the column is read in order, but
// the slab, whose rows are a page or more apart, is written only where
// the word has a bit, so a wide keep set costs its sequential read, not
// a scattered write per kept item. The block's first word is the
// exception: a block after the first returns it as its edge, since the
// block before may store that word too. Every other word of the block's
// rows, its last included, is the block's alone, so no word is stored
// in place by two blocks.
func (ix *BitmapIndex) ingestBlock(ctx context.Context, slab []uint64, slices []Source, bounds []int, lo, hi int) blockEdge {
	var e blockEdge
	if bounds[lo] == bounds[hi] {
		return e
	}
	ranks, words := ix.ranks, ix.words
	col := make([]uint64, ranks.Len()+1)
	w := bounds[lo] >> 6
	shared := lo > 0 // w, the first word, may hold the previous block's rows
	store := func() {
		if shared {
			e.w, e.bits = w, append([]uint64(nil), col[1:]...)
			shared = false
		} else {
			for r, v := range col[1:] {
				if v != 0 {
					slab[r*words+w] = v
				}
			}
		}
		clear(col)
	}
	eachRow(ctx, slices, bounds, lo, hi, func(row int, tx itemset.Set) {
		if row>>6 != w {
			store()
			w = row >> 6
		}
		bit := uint64(1) << uint(row&63)
		for _, x := range tx {
			col[ranks.Rank(x)+1] |= bit
		}
	})
	store()
	return e
}

// eachRow hands fn every transaction of slices [lo, hi) with its row
// number, sampling ctx between slices.
func eachRow(ctx context.Context, slices []Source, bounds []int, lo, hi int, fn func(row int, tx itemset.Set)) {
	var row, end int
	each := func(tx itemset.Set) {
		if row >= end {
			return // defensive: the slice delivered more rows than its Len()
		}
		fn(row, tx)
		row++
	}
	for s := lo; s < hi && ctx.Err() == nil; s++ {
		row, end = bounds[s], bounds[s+1]
		slices[s].ForEach(each)
	}
}

// sliceBounds returns the row offsets of slices laid end to end: slice s
// is rows [bounds[s], bounds[s+1]).
func sliceBounds(slices []Source) []int {
	bounds := make([]int, len(slices)+1)
	for s, sl := range slices {
		bounds[s+1] = bounds[s] + sl.Len()
	}
	return bounds
}

// N returns the number of transactions indexed.
func (ix *BitmapIndex) N() int { return ix.n }

// itemBits returns x's bitmap, or the shared zero bitmap when x is not
// ranked (it never occurred, or was filtered at ingest).
func (ix *BitmapIndex) itemBits(x itemset.Item) []uint64 {
	if r := ix.ranks.Rank(x); r >= 0 {
		return ix.bits[r]
	}
	return ix.zero
}

// RangeWords copies the words of rank r's row that hold rows [lo, hi)
// — words lo>>6 through (hi-1)>>6, which dst must hold exactly — and
// clears the bits outside [lo, hi), so AndCount over two such copies is
// the pair's count in that row range. r ranks an item of the keep set
// the index was built with.
func (ix *BitmapIndex) RangeWords(dst []uint64, r, lo, hi int) {
	first, last := lo>>6, (hi-1)>>6
	copy(dst, ix.bits[r][first:last+1])
	dst[0] &= ^uint64(0) << uint(lo&63)
	dst[last-first] &= ^uint64(0) >> uint(63-(hi-1)&63)
}

// The word kernels below are shared by the flat and roaring backends
// and by the temporal miners of internal/core, whose per-granule
// vectors (hold sequences, activity, feature masks) are the same packed
// words at one bit per granule. Operands of one call have equal length;
// bits past the logical end of a vector are zero.

// AndInto sets dst = a & b, word by word.
func AndInto(dst, a, b []uint64) {
	_ = dst[len(a)-1] // eliminate bounds checks in the loop
	for w := range a {
		dst[w] = a[w] & b[w]
	}
}

// OrInto sets dst |= src, word by word.
func OrInto(dst, src []uint64) {
	_ = dst[len(src)-1]
	for w := range src {
		dst[w] |= src[w]
	}
}

// AndCount returns popcount(a & b) without materialising the
// intersection.
func AndCount(a, b []uint64) int {
	n := 0
	_ = b[len(a)-1]
	for w := range a {
		n += bits.OnesCount64(a[w] & b[w])
	}
	return n
}

// FillRange sets bits [lo, hi) of w.
func FillRange(w []uint64, lo, hi int) {
	if lo >= hi {
		return
	}
	first, last := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << uint(lo&63)
	hiMask := ^uint64(0) >> uint(63-(hi-1)&63)
	if first == last {
		w[first] |= loMask & hiMask
		return
	}
	w[first] |= loMask
	for wi := first + 1; wi < last; wi++ {
		w[wi] = ^uint64(0)
	}
	w[last] |= hiMask
}

// PopcountRange counts the set bits of words in bit positions [lo, hi).
// The temporal miners use it to slice one intersection into per-granule
// counts: granules cover contiguous transaction-ID ranges, so a single
// AND pass serves every granule.
func PopcountRange(words []uint64, lo, hi int) int {
	if lo >= hi {
		return 0
	}
	loW, hiW := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << uint(lo&63)
	hiMask := ^uint64(0) >> uint(63-((hi-1)&63))
	if loW == hiW {
		return bits.OnesCount64(words[loW] & loMask & hiMask)
	}
	n := bits.OnesCount64(words[loW] & loMask)
	for _, w := range words[loW+1 : hiW] { // one bounds check, not one per word
		n += bits.OnesCount64(w)
	}
	return n + bits.OnesCount64(words[hiW]&hiMask)
}

// EachIntersection visits the TID-bitmap intersection of every
// candidate, in order. All candidates must share one length k ≥ 1 and
// arrive sorted in canonical order: sorting maximises prefix reuse —
// the (k-1)-prefix intersection computed for one candidate is kept and
// reused for every following candidate that shares the prefix, so a run
// of same-prefix candidates costs a single AND each. The slice passed to
// fn is scratch, valid only during the call.
func (ix *BitmapIndex) EachIntersection(cands []itemset.Set, fn func(i int, words []uint64)) {
	if len(cands) == 0 {
		return
	}
	if len(cands[0]) == 1 {
		for i, c := range cands {
			fn(i, ix.itemBits(c[0]))
		}
		return
	}
	sc := ix.getScratch(1)
	defer bitmapScratchPool.Put(sc)
	out := sc.acc[0]
	ix.eachPrefix(cands, func(i int, prefix, last []uint64) {
		AndInto(out, prefix, last)
		fn(i, out)
	})
}

// eachPrefix visits every candidate of a sorted same-length list with
// the intersection of its first k-1 items and its last item's bitmap,
// reusing a prefix intersection for as long as the following candidates
// share it. For k == 1 the prefix is the item's own bitmap, so
// prefix & last is the item's bitmap at any k. Both slices are valid
// only during fn.
func (ix *BitmapIndex) eachPrefix(cands []itemset.Set, fn func(i int, prefix, last []uint64)) {
	if len(cands) == 0 {
		return
	}
	k := len(cands[0])
	if k <= 2 {
		for i, c := range cands {
			fn(i, ix.itemBits(c[0]), ix.itemBits(c[k-1]))
		}
		return
	}
	// acc[j-1] holds the intersection of the current candidate's items
	// [0..j]; it stays valid while the next candidate shares those
	// first j+1 items. The rows come from a pool, so steady-state calls
	// allocate nothing.
	sc := ix.getScratch(k - 2)
	defer bitmapScratchPool.Put(sc)
	acc := sc.acc
	var prev itemset.Set
	for i, c := range cands {
		shared := 0
		for shared < len(prev) && c[shared] == prev[shared] {
			shared++
		}
		// acc[j-1] involves items [0..j]: valid while j+1 ≤ shared.
		for j := max(shared, 1); j < k-1; j++ {
			left := ix.itemBits(c[0])
			if j > 1 {
				left = acc[j-2]
			}
			AndInto(acc[j-1], left, ix.itemBits(c[j]))
		}
		fn(i, acc[k-3], ix.itemBits(c[k-1]))
		prev = c
	}
}

// fill implements verticalIndex: one AND chain per candidate over its
// first k-1 items, then the last item ANDed straight into each slice's
// range popcount, so the full intersection is never written out and
// read back.
func (ix *BitmapIndex) fill(m *Counts, base int, cands []itemset.Set, bounds []int) {
	ix.eachPrefix(cands, func(i int, prefix, last []uint64) {
		for s := 0; s+1 < len(bounds); s++ {
			if n := andPopcountRange(prefix, last, bounds[s], bounds[s+1]); n != 0 {
				m.set(base+i, s, n)
			}
		}
	})
}

// andPopcountRange is PopcountRange over a & b, without materialising
// the intersection.
func andPopcountRange(a, b []uint64, lo, hi int) int {
	if lo >= hi {
		return 0
	}
	loW, hiW := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << uint(lo&63)
	hiMask := ^uint64(0) >> uint(63-((hi-1)&63))
	if loW == hiW {
		return bits.OnesCount64(a[loW] & b[loW] & loMask & hiMask)
	}
	n := bits.OnesCount64(a[loW] & b[loW] & loMask)
	mid := b[loW+1 : hiW]
	for w, x := range a[loW+1 : hiW] { // one bounds check each, not one per word
		n += bits.OnesCount64(x & mid[w])
	}
	return n + bits.OnesCount64(a[hiW]&b[hiW]&hiMask)
}

// samePrefixK1 reports whether a and b share their first len(a)-1
// items — i.e. belong to one (k-1)-prefix run of a sorted same-length
// candidate list.
func samePrefixK1(a, b itemset.Set) bool {
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// PrefixRunChunks splits a sorted same-length candidate list into at
// most workers contiguous [lo, hi) chunks whose boundaries fall on
// (k-1)-prefix run boundaries where possible: a tentative even split
// point advances past any candidates sharing the previous one's
// prefix. A split inside a run would make both workers recompute the
// run's shared prefix intersection. k ≤ 1 candidates have no prefix to
// preserve and split evenly. Runs longer than an even chunk reduce the
// chunk count rather than split.
func PrefixRunChunks(cands []itemset.Set, workers int) [][2]int {
	if len(cands) == 0 {
		return nil
	}
	if workers <= 1 || len(cands[0]) <= 1 {
		return Blocks(len(cands), workers)
	}
	chunk := (len(cands) + workers - 1) / workers
	chunks := make([][2]int, 0, workers)
	lo := 0
	for lo < len(cands) {
		hi := lo + chunk
		if hi > len(cands) {
			hi = len(cands)
		}
		for hi < len(cands) && samePrefixK1(cands[hi-1], cands[hi]) {
			hi++
		}
		chunks = append(chunks, [2]int{lo, hi})
		lo = hi
	}
	return chunks
}
