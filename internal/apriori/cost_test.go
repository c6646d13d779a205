package apriori

// BackendAuto is a rule resolved inside NewSliceCounter from the rows
// and kept items it is handed; these tests pin the rule on archetypal
// table shapes and at its two boundaries.

import (
	"testing"

	"github.com/tarm-project/tarm/internal/itemset"
)

// ranksOf is an ingest filter of n items.
func ranksOf(n int) *itemset.Ranks {
	keep := new(itemset.Ranks)
	for i := 0; i < n; i++ {
		keep.Add(itemset.Item(i))
	}
	return keep
}

// autoFor is what BackendAuto resolves to over the given slice lengths
// and kept-item count. Resolution reads only Len, so the slices carry
// no transactions.
func autoFor(items int, rows ...int) Backend {
	slices := make([]Source, len(rows))
	for i, n := range rows {
		slices[i] = FuncSource{N: n}
	}
	return NewSliceCounter(BackendAuto, slices, ranksOf(items), 0).Backend()
}

func TestChooseBackendDense(t *testing.T) {
	if got := autoFor(64, 1<<17); got != BackendBitmap {
		t.Errorf("dense table chose %v, want bitmap", got)
	}
}

// The retired cost model sent this shape — 2²⁰ rows, every item near
// density 1/4096 — to roaring. Measured, bitmap wins it: a full mine to
// k = 3 over 2²⁰ rows × 20 000 items at minsup 0.001 took 8.7 s on
// bitmap against 20.9 s on roaring, and bitmap won every other sparse
// shape tried by 1.6–2.0× (EXPERIMENTS.md E14).
func TestChooseBackendSparse(t *testing.T) {
	if got := autoFor(256, 1<<20); got != BackendBitmap {
		t.Errorf("sparse table chose %v, want bitmap", got)
	}
}

func TestChooseBackendGuards(t *testing.T) {
	// Under a word of rows the flat index is one word per item: it still
	// fits, so auto counts on it. Rows are summed over the slices.
	for _, rows := range [][]int{{1}, {32, 31}, {5, 0, 30}, {70}, {32, 0, 32}} {
		if got := autoFor(5, rows...); got != BackendBitmap {
			t.Errorf("%v rows chose %v, want bitmap", rows, got)
		}
	}
	// No kept items, or no keep set at all: the index ranks the items it
	// meets (NewBitmapIndex), so the cap has nothing to price.
	if got := autoFor(0, 1<<20); got != BackendBitmap {
		t.Errorf("empty item set chose %v, want bitmap", got)
	}
	if got := NewSliceCounter(BackendAuto, []Source{FuncSource{N: 1 << 20}}, nil, 0).Backend(); got != BackendBitmap {
		t.Errorf("nil item filter chose %v, want bitmap", got)
	}
	// Past the cap, even under a word of rows, roaring (the rule itself:
	// a keep set that large is not worth building here).
	if got := resolveAuto(63, maxBitmapBytes/8+1); got != BackendRoaring {
		t.Errorf("63 rows past the cap chose %v, want roaring", got)
	}
	// A forced backend is never second-guessed, and auto never survives.
	for b := BackendNaive; b <= BackendRoaring; b++ {
		if got := NewSliceCounter(b, []Source{FuncSource{N: 10}}, ranksOf(5), 0).Backend(); got != b {
			t.Errorf("forced %v became %v", b, got)
		}
	}
	for _, rows := range []int{0, 1, 1 << 10, 1 << 30} {
		if got := autoFor(8, rows); got == BackendAuto || got == BackendNaive {
			t.Errorf("auto over %d rows resolved to %v", rows, got)
		}
	}
}

func TestBitmapCostCapacityGuard(t *testing.T) {
	// A universe whose bitmap index would exceed maxBitmapBytes goes to
	// roaring, the one vertical index that still fits.
	if got := autoFor(2000, 1<<28); got != BackendRoaring {
		t.Errorf("oversized bitmap index chose %v, want roaring", got)
	}
	// 2²⁰ rows are 2¹⁴ words = 2¹⁷ bytes per item: 4096 items fill the
	// 512 MiB cap exactly, one more overflows it.
	if got := autoFor(4096, 1<<20); got != BackendBitmap {
		t.Errorf("index of exactly maxBitmapBytes chose %v, want bitmap", got)
	}
	if got := autoFor(4097, 1<<20); got != BackendRoaring {
		t.Errorf("index one item past maxBitmapBytes chose %v, want roaring", got)
	}
}
