package apriori

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/tarm-project/tarm/internal/obs"
)

// rowBlocks cuts txs into contiguous row blocks of the given lengths,
// which must sum to len(txs).
func rowBlocks(txs Transactions, lens ...int) Slices {
	out := make(Slices, len(lens))
	row := 0
	for b, l := range lens {
		out[b] = txs[row : row+l]
		row += l
	}
	return out
}

// TestMineSlicedMatchesWhole holds the whole-table miner's sharding and
// its level-2 triangle to the naive reference: MineContext over 1, 2
// and 7 row blocks (an empty one among them) finds exactly what it
// finds over one Source, and what the naive backend finds, on every
// backend, at workers {1, 2, 4} and MaxK {0, 2, 3}. One support lands
// exactly on a pair's count, so the pair is frequent by an equality.
// The flat bitmap backend runs both level-2 routes (the crossover at
// MaxVerticalItems and at 0), and the small cell cap forces the
// triangle's row-blocked path.
func TestMineSlicedMatchesWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	txs := randomTransactions(rng, 450, 40, 8)
	n := len(txs)
	sources := map[string]Source{
		"one source": txs,
		"1 block":    rowBlocks(txs, n),
		"2 blocks":   rowBlocks(txs, 213, n-213),
		"7 blocks":   rowBlocks(txs, 1, 64, 100, 0, 150, 35, n-350),
	}
	// The count of the 20th most frequent pair, as a support:
	// ceil(support·n) is exactly that count, so the pair is frequent by
	// an equality.
	pairs := octaveLevels(40)[1]
	counts := referenceCounts(txs, pairs)
	order := make([]int, len(pairs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return counts[order[a]] > counts[order[b]] })
	boundary := pairs[order[19]]
	// The level-2 routes each backend can take: the triangle, whole and
	// row-blocked, and on the flat bitmap also the intersected join.
	type route struct{ pairCells, verticalItems int }
	triangle := []route{{MaxPairCells, 0}, {50, 0}}
	routes := map[Backend][]route{
		BackendAuto:    {{MaxPairCells, MaxVerticalItems}, {50, 0}},
		BackendNaive:   {{MaxPairCells, 0}},
		BackendBitmap:  append([]route{{MaxPairCells, MaxVerticalItems}}, triangle...),
		BackendRoaring: triangle,
	}
	for _, support := range []float64{float64(counts[order[19]]) / float64(n), 0.05} {
		for _, maxK := range []int{0, 2, 3} {
			ref, err := Mine(txs, Config{MinSupport: support, MaxK: maxK, Backend: BackendNaive})
			if err != nil {
				t.Fatal(err)
			}
			if support != 0.05 && !ref.Contains(boundary) {
				t.Fatalf("support %g: the boundary pair %v is not frequent in the reference", support, boundary)
			}
			want := fmt.Sprint(ref.ByK)
			for name, src := range sources {
				for _, backend := range []Backend{BackendAuto, BackendNaive, BackendBitmap, BackendRoaring} {
					for _, workers := range []int{1, 2, 4} {
						for _, route := range routes[backend] {
							cfg := Config{MinSupport: support, MaxK: maxK, Backend: backend, Workers: workers}
							got, err := mineContext(context.Background(), src, cfg, route.pairCells, route.verticalItems)
							if err != nil {
								t.Fatal(err)
							}
							label := fmt.Sprintf("support %g/MaxK %d/%s/%v/workers %d/route %v", support, maxK, name, backend, workers, route)
							if got.N != ref.N || got.MinCount != ref.MinCount || fmt.Sprint(got.ByK) != want {
								t.Fatalf("%s: N %d, min count %d, levels %v; want %d, %d, %v", label, got.N, got.MinCount, got.ByK, ref.N, ref.MinCount, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestMineLevel2Route: the whole-table miner routes level 2 by the
// build's rule. The flat bitmap backend intersects the join while at
// most verticalItems items are frequent and counts the triangle past
// that; roaring always counts the triangle, and naive counts the join.
// The pass:L2 span records the route as one granule, vertical or
// horizontal.
func TestMineLevel2Route(t *testing.T) {
	txs := randomTransactions(rand.New(rand.NewSource(7)), 300, 30, 6)
	ref, err := Mine(txs, Config{MinSupport: 0.02, Backend: BackendNaive})
	if err != nil {
		t.Fatal(err)
	}
	l1 := len(ref.ByK[1])
	if l1 < 3 {
		t.Fatalf("only %d frequent items", l1)
	}
	for _, backend := range []Backend{BackendNaive, BackendBitmap, BackendRoaring} {
		for _, verticalItems := range []int{0, l1 - 1, l1, MaxVerticalItems} {
			trace := obs.NewTrace("")
			cfg := Config{MinSupport: 0.02, MaxK: 2, Backend: backend, Workers: 2, Tracer: trace}
			if _, err := mineContext(context.Background(), rowBlocks(txs, 150, 150), cfg, MaxPairCells, verticalItems); err != nil {
				t.Fatal(err)
			}
			var want [2]int64 // vertical, horizontal
			switch {
			case backend == BackendNaive:
			case backend == BackendBitmap && l1 <= verticalItems:
				want[0] = 1
			default:
				want[1] = 1
			}
			st := obs.Summarize(trace.Tree())
			if got := [2]int64{st.PairVertical, st.PairHorizontal}; got != want {
				t.Errorf("%v, |L1| %d, crossover %d: routes (vertical, horizontal) %v, want %v", backend, l1, verticalItems, got, want)
			}
		}
	}
}

// TestPairTriangleRowBlocks: the row blocks tile the rows that hold
// pairs, in order, each within the cap unless it is a single row.
func TestPairTriangleRowBlocks(t *testing.T) {
	for _, m := range []int{0, 1, 2, 3, 10, 41} {
		tri := NewPairTriangle(ranksOf(m))
		if cells := tri.RowStart[m]; cells != m*(m-1)/2 {
			t.Fatalf("m=%d: %d cells, want %d", m, cells, m*(m-1)/2)
		}
		for _, per := range []int{1, 5, 17, 1 << 20} {
			next := 0
			for _, b := range tri.RowBlocks(per) {
				r0, r1 := b[0], b[1]
				if r0 != next || r1 <= r0 {
					t.Fatalf("m=%d per=%d: block %v after row %d", m, per, b, next)
				}
				if size := tri.RowStart[r1] - tri.RowStart[r0]; size > per && r1 > r0+1 {
					t.Fatalf("m=%d per=%d: block %v holds %d cells", m, per, b, size)
				}
				next = r1
			}
			if want := max(m-1, 0); next != want {
				t.Fatalf("m=%d per=%d: blocks end at row %d, want %d", m, per, next, want)
			}
		}
	}
}

// TestFillSplitsAtSliceBounds holds the fused AND + range popcount of
// the flat index's fill to a per-slice reference at levels 1–3, over
// slices whose bounds fall mid-word, on word edges and inside one word,
// with empty slices among them, and at the index's ends.
func TestFillSplitsAtSliceBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	txs := randomTransactions(rng, 300, 10, 6)
	for _, lens := range [][]int{
		{300},
		{70, 0, 58, 3, 0, 64, 105},
		{0, 1, 62, 1, 64, 172, 0},
		{5, 6, 7, 8, 9, 265},
	} {
		var slices []Source
		row := 0
		for _, l := range lens {
			slices = append(slices, txs[row:row+l])
			row += l
		}
		ix := NewBitmapIndex(context.Background(), slices, nil, 1)
		bounds := sliceBounds(slices)
		for li, cands := range octaveLevels(10) {
			m := newCounts(len(cands), len(slices))
			ix.fill(m, 0, cands, bounds)
			for s, sl := range slices {
				for i, n := range referenceCounts(sl, cands) {
					var got int32
					if v := m.Row(i); v != nil {
						got = v[s]
					}
					if int(got) != n {
						t.Fatalf("slices %v, level %d: %v counts %d in slice %d, want %d", lens, li+1, cands[i], got, s, n)
					}
				}
			}
		}
	}
}
