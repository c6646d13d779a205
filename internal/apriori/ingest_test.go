package apriori

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/tarm-project/tarm/internal/itemset"
)

// ingestShape is one slicing of a test table for the sharded ingest:
// slice s holds lens[s] consecutive rows.
type ingestShape struct {
	name string
	lens []int
}

// ingestShapes lists the slicings the sharded ingest must get right:
// granules shorter than a word, so a block starts and ends inside one;
// empty (inactive) granules exactly at the block edges Blocks cuts for
// 2, 3 and 8 workers; fewer slices than workers; and random mixes.
func ingestShapes(rng *rand.Rand) []ingestShape {
	shapes := []ingestShape{
		{"one slice", []int{150}},
		{"short granules", []int{5, 17, 3, 30, 9, 1, 40, 12, 7, 22, 13, 2}},
		// 12 slices: blocks of 6 (2 workers), 4 (3) and 2 (8) rows each
		// start at slices 2, 4, 6, 8 and 10; an empty granule sits on
		// one or both sides of every such edge.
		{"empty at edges", []int{20, 0, 0, 21, 0, 11, 0, 0, 33, 0, 0, 18}},
		{"empty ends", []int{0, 0, 70, 5, 64, 0, 0}},
		{"fewer slices than workers", []int{37, 90, 2}},
		{"all empty", []int{0, 0, 0, 0}},
		{"no slices", nil},
	}
	for i := 0; i < 20; i++ {
		lens := make([]int, 1+rng.Intn(30))
		for s := range lens {
			if rng.Intn(4) != 0 {
				lens[s] = rng.Intn(3 + rng.Intn(80))
			}
		}
		shapes = append(shapes, ingestShape{fmt.Sprintf("random %d", i), lens})
	}
	return shapes
}

// sliceTable draws random transactions for a shape and cuts them into
// its slices.
func sliceTable(rng *rand.Rand, lens []int, universe int) (Transactions, []Source) {
	n := 0
	for _, l := range lens {
		n += l
	}
	txs := randomTransactions(rng, n, universe, 6)
	slices := make([]Source, len(lens))
	row := 0
	for s, l := range lens {
		slices[s] = txs[row : row+l]
		row += l
	}
	return txs, slices
}

// referenceBits is the index the ingest must build, computed row by
// row: item x's bitmap over all rows, for the items keep admits (all
// when nil).
func referenceBits(txs Transactions, keep *itemset.Ranks) map[itemset.Item][]uint64 {
	words := (len(txs) + 63) / 64
	bits := map[itemset.Item][]uint64{}
	for row, tx := range txs {
		for _, x := range tx {
			if keep != nil && keep.Rank(x) < 0 {
				continue
			}
			if bits[x] == nil {
				bits[x] = make([]uint64, words)
			}
			bits[x][row>>6] |= 1 << uint(row&63)
		}
	}
	return bits
}

// bigKept and bigMissed are item ids past any dense rank table, so
// Ranks holds them in its map: the ingest's keep filter ranks the first
// and drops the second there.
const (
	bigKept   = itemset.Item(1 << 30)
	bigMissed = itemset.Item(1<<30 + 1)
)

// missKeep rewrites a sliced table for the keep filter's edge cases.
// Every transaction in an even word of rows, and the first and last of
// each slice, keeps only odd items — none of which the test's keep
// ranks — so whole words, and the words at any block's edges, hold
// transactions that all miss keep. Some transactions gain bigMissed and
// some of the others bigKept.
func missKeep(txs Transactions, lens []int) {
	edge := map[int]bool{}
	row := 0
	for _, l := range lens {
		if l > 0 {
			edge[row], edge[row+l-1] = true, true
		}
		row += l
	}
	for row, tx := range txs {
		items := append([]itemset.Item(nil), tx...)
		if row>>6%2 == 0 || edge[row] {
			for i := range items {
				items[i] |= 1
			}
		}
		switch {
		case row%5 == 0:
			items = append(items, bigMissed)
		case row%3 == 0:
			items = append(items, bigKept)
		}
		txs[row] = itemset.New(items...)
	}
}

// TestIngestShardedMatchesSequential holds the sharded flat-bitmap
// ingest to a row-by-row reference and to itself: at workers 1, 2, 3
// and 8 the index — ranks, every row, its length — is bit-identical,
// with and without a keep filter, and the count vectors a SliceCounter
// cuts from it are identical too. The table has items outside keep,
// ids past the dense rank table, and transactions that all miss keep
// in whole words and at every slice's first and last row (missKeep).
func TestIngestShardedMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	const universe = 12
	for _, shape := range ingestShapes(rng) {
		txs, slices := sliceTable(rng, shape.lens, universe)
		missKeep(txs, shape.lens)
		keeps := map[string]*itemset.Ranks{"all items": nil, "kept": new(itemset.Ranks)}
		for x := 0; x < universe; x += 2 {
			keeps["kept"].Add(itemset.Item(x))
		}
		keeps["kept"].Add(itemset.Item(universe + 3)) // never occurs
		keeps["kept"].Add(bigKept)
		for keepName, keep := range keeps {
			label := fmt.Sprintf("%s/%s", shape.name, keepName)
			want := referenceBits(txs, keep)
			cands := randomCandidates(rng, 40, 1+rng.Intn(3), universe)
			var seq *BitmapIndex
			var seqCounts *Counts
			for _, workers := range []int{1, 2, 3, 8} {
				ix := NewBitmapIndex(context.Background(), slices, keep, workers)
				if ix.N() != len(txs) {
					t.Fatalf("%s/workers=%d: N = %d, want %d", label, workers, ix.N(), len(txs))
				}
				for _, x := range append(itemsUpTo(universe+4), bigKept, bigMissed) {
					got, w := ix.itemBits(x), want[x]
					if w == nil {
						w = make([]uint64, (len(txs)+63)/64)
					}
					if !reflect.DeepEqual(got, w) {
						t.Fatalf("%s/workers=%d: item %d bits %x, want %x", label, workers, x, got, w)
					}
				}
				counts, err := NewSliceCounter(BackendBitmap, slices, keep, workers).Count(context.Background(), cands)
				if err != nil {
					t.Fatal(err)
				}
				if workers == 1 {
					seq, seqCounts = ix, counts
					continue
				}
				if !reflect.DeepEqual(ix.ranks.Items(), seq.ranks.Items()) || !reflect.DeepEqual(ix.bits, seq.bits) {
					t.Errorf("%s/workers=%d: index differs from the one-block ingest", label, workers)
				}
				for i := range cands {
					if !reflect.DeepEqual(counts.Row(i), seqCounts.Row(i)) {
						t.Errorf("%s/workers=%d: %v counts %v, one block counted %v", label, workers, cands[i], counts.Row(i), seqCounts.Row(i))
					}
				}
			}
		}
	}
}

// itemsUpTo lists the items 0, 1, …, n-1.
func itemsUpTo(n int) []itemset.Item {
	items := make([]itemset.Item, n)
	for i := range items {
		items[i] = itemset.Item(i)
	}
	return items
}

// cancelOnScan is a slice that cancels the ingest's context as soon as
// it is scanned: the cancel lands mid-ingest, with other blocks at work.
type cancelOnScan struct {
	Source
	cancel context.CancelFunc
}

func (c cancelOnScan) ForEach(fn func(tx itemset.Set)) {
	c.cancel()
	c.Source.ForEach(fn)
}

// TestIngestCancelInstallsNoIndex cancels a sharded ingest from inside
// one of its blocks: NewBitmapIndex returns nil, a SliceCounter reports
// the cancellation and keeps no index, and its next Count under a live
// context ingests afresh and counts exactly.
func TestIngestCancelInstallsNoIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lens := []int{40, 0, 70, 15, 0, 64, 33, 9, 0, 51, 28, 6}
	_, clean := sliceTable(rng, lens, 10)
	keep := ranksOf(10)
	cands := randomCandidates(rng, 30, 2, 10)
	for _, workers := range []int{1, 2, 3, 8} {
		for _, at := range []int{0, 5, len(lens) - 1} {
			ctx, cancel := context.WithCancel(context.Background())
			slices := append([]Source(nil), clean...)
			slices[at] = cancelOnScan{clean[at], cancel}
			label := fmt.Sprintf("workers=%d/cancel at slice %d", workers, at)
			if ix := NewBitmapIndex(ctx, slices, keep, workers); ix != nil {
				t.Errorf("%s: NewBitmapIndex returned an index", label)
			}

			ctx, cancel = context.WithCancel(context.Background())
			slices[at] = cancelOnScan{clean[at], cancel}
			c := NewSliceCounter(BackendBitmap, slices, keep, workers)
			if _, err := c.Count(ctx, cands); err != nil {
				t.Fatal(err)
			}
			if ctx.Err() == nil || c.index != nil {
				t.Fatalf("%s: ctx.Err() = %v, index installed = %v; want cancelled, none", label, ctx.Err(), c.index != nil)
			}
			got, err := c.Count(context.Background(), cands)
			if err != nil {
				t.Fatal(err)
			}
			for s, sl := range clean {
				want := referenceCounts(sl, cands)
				for i := range cands {
					var n int32
					if v := got.Row(i); v != nil {
						n = v[s]
					}
					if int(n) != want[i] {
						t.Fatalf("%s: recount of %v in slice %d = %d, want %d", label, cands[i], s, n, want[i])
					}
				}
			}
		}
	}
}
