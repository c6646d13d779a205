package apriori

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/tarm-project/tarm/internal/itemset"
)

// referenceCounts is the tests' own whole-source counter: it shares no
// code with the counting drivers, not even the subset test.
func referenceCounts(src Source, cands []itemset.Set) []int {
	counts := make([]int, len(cands))
	src.ForEach(func(tx itemset.Set) {
		has := make(map[itemset.Item]bool, len(tx))
		for _, x := range tx {
			has[x] = true
		}
	next:
		for i, c := range cands {
			for _, x := range c {
				if !has[x] {
					continue next
				}
			}
			counts[i]++
		}
	})
	return counts
}

// rowRange is one slice of a test table: rows [lo, hi).
type rowRange struct{ lo, hi int }

// representations lists the seam's backends as functions that count
// cands over slices: the horizontal driver's naive reference and the
// vertical driver under each index.
func representations(cands []itemset.Set, keep *itemset.Ranks) map[string]func(slices []Source, workers int) (*Counts, error) {
	count := func(b Backend) func([]Source, int) (*Counts, error) {
		return func(slices []Source, workers int) (*Counts, error) {
			return NewSliceCounter(b, slices, keep, workers).Count(context.Background(), cands)
		}
	}
	return map[string]func([]Source, int) (*Counts, error){
		"naive":   count(BackendNaive),
		"bitmap":  count(BackendBitmap),
		"roaring": count(BackendRoaring),
	}
}

// checkSeam asserts that every representation × workers {0, 1, 3, 4} counts
// cands over the given row ranges of txs exactly as referenceCounts
// does range by range, with a nil vector — not an allocated zero one —
// for every candidate that occurs in none of them.
func checkSeam(t *testing.T, label string, txs Transactions, cands []itemset.Set, ranges []rowRange, keep *itemset.Ranks) {
	t.Helper()
	slices := make([]Source, len(ranges))
	want := make([][]int32, len(cands))
	for s, r := range ranges {
		slices[s] = txs[r.lo:r.hi]
		for i, n := range referenceCounts(slices[s], cands) {
			if n != 0 {
				if want[i] == nil {
					want[i] = make([]int32, len(ranges))
				}
				want[i][s] = int32(n)
			}
		}
	}
	for name, count := range representations(cands, keep) {
		for _, workers := range []int{0, 1, 3, 4} {
			got, err := count(slices, workers)
			if err != nil {
				t.Fatalf("%s %s/workers=%d: %v", label, name, workers, err)
			}
			for i := range cands {
				if v := got.Row(i); (v == nil) != (want[i] == nil) || fmt.Sprint(v) != fmt.Sprint(want[i]) {
					t.Fatalf("%s %s/workers=%d: %v over %v = %v, want %v", label, name, workers, cands[i], ranges, v, want[i])
				}
			}
		}
	}
}

// randomCandidates draws up to n distinct sorted k-candidates over
// items [0, universe).
func randomCandidates(rng *rand.Rand, n, k, universe int) []itemset.Set {
	seen := map[string]bool{}
	var cands []itemset.Set
	for try := 0; try < 20*n && len(cands) < n; try++ {
		items := make([]itemset.Item, k)
		for j := range items {
			items[j] = itemset.Item(rng.Intn(universe))
		}
		if s := itemset.New(items...); s.Len() == k && !seen[s.Key()] {
			seen[s.Key()] = true
			cands = append(cands, s)
		}
	}
	itemset.SortSets(cands)
	return cands
}

// randomRanges cuts [0, n) into consecutive row ranges of one of the
// shapes callers pass the seam: the whole table, a cover by ranges some
// of which are empty, ranges with rows skipped between them (inactive
// granules), and a short list over a long table (a dirty region).
func randomRanges(rng *rand.Rand, n int) (ranges []rowRange, covers bool) {
	shape := rng.Intn(4)
	if shape == 0 || n == 0 {
		return []rowRange{{0, n}}, true
	}
	if shape == 3 {
		lo := rng.Intn(n)
		mid := lo + rng.Intn(min(4, n-lo)+1)
		return []rowRange{{lo, mid}, {mid, min(mid+rng.Intn(4), n)}}, false
	}
	pos := 0
	for pos < n || rng.Intn(3) == 0 {
		if shape == 2 && rng.Intn(3) == 0 {
			pos = min(pos+1+rng.Intn(10), n) // skipped rows
		}
		hi := pos
		if rng.Intn(4) != 0 { // else an empty range
			hi = min(pos+1+rng.Intn(1+n/4), n)
		}
		ranges = append(ranges, rowRange{pos, hi})
		pos = hi
	}
	return ranges, shape == 1
}

// TestCountSlicesMatchesReference is the seam's property test: random
// tables, k ∈ 1..4, random slicings, every representation and worker
// count against a reference computed from the raw transactions; and,
// where the slices cover the table, whole-table count = Σ slice counts.
func TestCountSlicesMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300)
		if seed%10 == 0 {
			n = rng.Intn(3) // tables of 0, 1, 2 rows
		}
		txs := randomTransactions(rng, n, 10, 7)
		k := 1 + rng.Intn(4)
		// Candidates range over more items than the table holds, so some
		// occur nowhere; keep, when given, admits exactly their items.
		cands := randomCandidates(rng, 1+rng.Intn(60), k, 13)
		var keep *itemset.Ranks
		if rng.Intn(2) == 0 {
			keep = new(itemset.Ranks)
			for _, c := range cands {
				for _, x := range c {
					keep.Add(x)
				}
			}
		}
		ranges, covers := randomRanges(rng, n)
		label := fmt.Sprintf("seed=%d n=%d k=%d", seed, n, k)
		checkSeam(t, label, txs, cands, ranges, keep)
		if !covers {
			continue
		}
		whole := referenceCounts(txs, cands)
		got, err := NewSliceCounter(BackendRoaring, slicesOf(txs, ranges), keep, 0).Count(context.Background(), cands)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cands {
			sum := 0
			for _, c := range got.Row(i) {
				sum += int(c)
			}
			if sum != whole[i] {
				t.Fatalf("%s: %v sums to %d over %v, whole table has %d", label, cands[i], sum, ranges, whole[i])
			}
		}
	}
}

func slicesOf(txs Transactions, ranges []rowRange) []Source {
	out := make([]Source, len(ranges))
	for s, r := range ranges {
		out[s] = txs[r.lo:r.hi]
	}
	return out
}

// TestCountSlicesFixedInputs runs the seam check on the inputs the
// per-index equivalence tests used to count: every triple over 20 items
// at density 1/4, and levels 1–3 over items whose densities span
// several octaves, whole and sliced.
func TestCountSlicesFixedInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var dense Transactions
	for i := 0; i < 300; i++ {
		var items []itemset.Item
		for x := 0; x < 20; x++ {
			if rng.Intn(4) == 0 {
				items = append(items, itemset.Item(x))
			}
		}
		dense = append(dense, itemset.New(items...))
	}
	var triples []itemset.Set
	for a := 0; a < 20; a++ {
		for b := a + 1; b < 20; b++ {
			for c := b + 1; c < 20; c++ {
				triples = append(triples, itemset.New(itemset.Item(a), itemset.Item(b), itemset.Item(c)))
			}
		}
	}
	checkSeam(t, "triples/whole", dense, triples, []rowRange{{0, 300}}, nil)
	checkSeam(t, "triples/sliced", dense, triples, []rowRange{{0, 64}, {64, 64}, {70, 200}, {200, 300}}, nil)

	// A backend outside the enum is an error, not a silent default run.
	if _, err := NewSliceCounter(BackendRoaring+1, []Source{dense}, nil, 0).Count(context.Background(), triples); err == nil {
		t.Error("Count on an out-of-range backend succeeded, want an invalid-backend error")
	}

	// Under one word of rows, the flat index's smallest shape: several
	// slices inside one word, empty ones, single rows and skipped rows,
	// every k-subset of 8 items up to k = 6, with and without a keep set.
	var short Transactions
	for i := 0; i < 40; i++ {
		var items []itemset.Item
		for x := 0; x < 8; x++ {
			if i%5 == 0 || rng.Intn(3) != 0 {
				items = append(items, itemset.Item(x))
			}
		}
		short = append(short, itemset.New(items...))
	}
	all8 := new(itemset.Ranks)
	for x := 0; x < 8; x++ {
		all8.Add(itemset.Item(x))
	}
	for k := 1; k <= 6; k++ {
		cands := subsetsOf(8, k)
		for _, keep := range []*itemset.Ranks{nil, all8} {
			label := fmt.Sprintf("sub-word k=%d keep=%v", k, keep != nil)
			checkSeam(t, label+"/one row", short, cands, []rowRange{{3, 4}}, keep)
			checkSeam(t, label+"/sliced", short, cands, []rowRange{{0, 0}, {0, 1}, {1, 1}, {1, 9}, {12, 30}, {30, 31}, {31, 40}}, keep)
		}
	}

	for _, seed := range []int64{1, 2, 3} {
		src := randomSource(seed, 2000, 24)
		for li, cands := range octaveLevels(24) {
			label := fmt.Sprintf("octaves seed=%d level=%d", seed, li+1)
			checkSeam(t, label+"/whole", src, cands, []rowRange{{0, 2000}}, nil)
			checkSeam(t, label+"/sliced", src, cands, []rowRange{{0, 500}, {500, 1100}, {1300, 2000}}, nil)
		}
	}
}

// octaveLevels returns sorted 1-, 2- and 3-item candidates over items
// [0, items): every single and pair, and the triples whose third item
// follows the second within three.
func octaveLevels(items int) [3][]itemset.Set {
	var lv [3][]itemset.Set
	for a := 0; a < items; a++ {
		lv[0] = append(lv[0], itemset.New(itemset.Item(a)))
		for b := a + 1; b < items; b++ {
			lv[1] = append(lv[1], itemset.New(itemset.Item(a), itemset.Item(b)))
			for c := b + 1; c < items && c < b+4; c++ {
				lv[2] = append(lv[2], itemset.New(itemset.Item(a), itemset.Item(b), itemset.Item(c)))
			}
		}
	}
	for _, cands := range lv {
		itemset.SortSets(cands)
	}
	return lv
}

// subsetsOf returns every k-subset of items [0, n), sorted.
func subsetsOf(n, k int) []itemset.Set {
	var out []itemset.Set
	var pick func(start int, chosen []itemset.Item)
	pick = func(start int, chosen []itemset.Item) {
		if len(chosen) == k {
			out = append(out, itemset.New(chosen...))
			return
		}
		for x := start; x < n; x++ {
			pick(x+1, append(chosen, itemset.Item(x)))
		}
	}
	pick(0, nil)
	itemset.SortSets(out)
	return out
}
