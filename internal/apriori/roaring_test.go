package apriori

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/itemset"
)

// containerFromVals builds a container of the requested kind holding
// exactly vals (sorted, deduplicated low-bits).
func containerFromVals(vals []uint16, kind containerKind) *container {
	c := &container{kind: kind, card: len(vals)}
	switch kind {
	case kindArray:
		c.arr = append([]uint16(nil), vals...)
	case kindWords:
		c.words = make([]uint64, containerWords)
		for _, v := range vals {
			c.words[v>>6] |= 1 << uint(v&63)
		}
	case kindRuns:
		c.runs = arrayToRuns(vals, nil)
	}
	return c
}

// genVals draws a sorted deduplicated value set with the given shape:
// "sparse" scatters few values, "dense" many, "runs" clusters values
// into bursts, "edges" hugs container boundaries.
func genVals(rng *rand.Rand, shape string) []uint16 {
	set := make(map[uint16]bool)
	switch shape {
	case "empty":
	case "sparse":
		for i := 0; i < 1+rng.Intn(50); i++ {
			set[uint16(rng.Intn(containerBits))] = true
		}
	case "dense":
		n := containerBits/4 + rng.Intn(containerBits/4)
		for i := 0; i < n; i++ {
			set[uint16(rng.Intn(containerBits))] = true
		}
	case "runs":
		for b := 0; b < 1+rng.Intn(8); b++ {
			start := rng.Intn(containerBits - 300)
			length := 1 + rng.Intn(300)
			for v := start; v < start+length; v++ {
				set[uint16(v)] = true
			}
		}
	case "edges":
		for _, v := range []int{0, 1, 62, 63, 64, 65, 127, 128, containerBits - 2, containerBits - 1} {
			if rng.Intn(2) == 0 {
				set[uint16(v)] = true
			}
		}
	}
	vals := make([]uint16, 0, len(set))
	for v := range set {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

func intersectValsNaive(a, b []uint16) []uint16 {
	in := make(map[uint16]bool, len(a))
	for _, v := range a {
		in[v] = true
	}
	var out []uint16
	for _, v := range b {
		if in[v] {
			out = append(out, v)
		}
	}
	return out
}

// accValues extracts the sorted values of an accSlot's result.
func accValues(t *testing.T, s *accSlot) []uint16 {
	t.Helper()
	var out []uint16
	c := &s.c
	switch c.kind {
	case kindArray:
		out = append(out, c.arr...)
	case kindWords:
		for v := 0; v < containerBits; v++ {
			if c.words[v>>6]&(1<<uint(v&63)) != 0 {
				out = append(out, uint16(v))
			}
		}
	case kindRuns:
		for _, r := range c.runs {
			for v := int(r.start); v <= int(r.last); v++ {
				out = append(out, uint16(v))
			}
		}
	}
	if len(out) != c.card {
		t.Fatalf("container card %d but %d materialised values", c.card, len(out))
	}
	return out
}

func equalU16(a, b []uint16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestContainerKernels checks every (kind × kind) intersection kernel,
// count-only and materialising, against a naive reference over many
// value-set shapes.
func TestContainerKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := []string{"empty", "sparse", "dense", "runs", "edges"}
	kinds := []containerKind{kindArray, kindWords, kindRuns}
	for trial := 0; trial < 40; trial++ {
		va := genVals(rng, shapes[trial%len(shapes)])
		vb := genVals(rng, shapes[(trial/len(shapes))%len(shapes)])
		want := intersectValsNaive(va, vb)
		for _, ka := range kinds {
			for _, kb := range kinds {
				if (ka == kindArray && len(va) > arrayMaxCard) ||
					(kb == kindArray && len(vb) > arrayMaxCard) {
					continue
				}
				ca := containerFromVals(va, ka)
				cb := containerFromVals(vb, kb)
				if ca.card == 0 || cb.card == 0 {
					continue // kernels are never called on empty containers
				}
				if got := intersectCard(ca, cb); got != len(want) {
					t.Fatalf("trial %d %v∧%v: intersectCard=%d want %d", trial, ka, kb, got, len(want))
				}
				var slot accSlot
				intersectInto(&slot, ca, cb)
				if got := accValues(t, &slot); !equalU16(got, want) {
					t.Fatalf("trial %d %v∧%v: intersectInto %d values, want %d", trial, ka, kb, len(got), len(want))
				}
				// Reuse the same slot: results must not depend on stale state.
				intersectInto(&slot, cb, ca)
				if got := accValues(t, &slot); !equalU16(got, want) {
					t.Fatalf("trial %d %v∧%v (swapped, reused slot): wrong result", trial, ka, kb)
				}
			}
		}
	}
}

// TestContainerRangeCount checks per-kind rangeCount against counting
// the naive value list.
func TestContainerRangeCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range []string{"sparse", "dense", "runs", "edges"} {
		vals := genVals(rng, shape)
		if len(vals) == 0 {
			continue
		}
		for _, kind := range []containerKind{kindArray, kindWords, kindRuns} {
			if kind == kindArray && len(vals) > arrayMaxCard {
				continue
			}
			c := containerFromVals(vals, kind)
			for trial := 0; trial < 50; trial++ {
				lo := rng.Intn(containerBits)
				hi := lo + rng.Intn(containerBits-lo) + 1
				want := 0
				for _, v := range vals {
					if int(v) >= lo && int(v) < hi {
						want++
					}
				}
				if got := c.rangeCount(lo, hi); got != want {
					t.Fatalf("%s/%v rangeCount(%d,%d)=%d want %d", shape, kind, lo, hi, got, want)
				}
			}
		}
	}
}

// TestRoaringBuilder checks the ascending-TID builder and finalize's
// representation choices across container shapes.
func TestRoaringBuilder(t *testing.T) {
	n := 3 * containerBits / 2
	r := &Roaring{n: n, cs: make([]*container, 2)}
	var tids []int
	// container 0: a long run (should finalize to runs)
	for v := 100; v < 9000; v++ {
		tids = append(tids, v)
	}
	// container 1: scattered sparse values (should stay array)
	for v := 0; v < 200; v++ {
		tids = append(tids, containerBits+37*v)
	}
	for _, tid := range tids {
		r.add(tid)
	}
	r.finalize()
	if r.card != len(tids) {
		t.Fatalf("card=%d want %d", r.card, len(tids))
	}
	if got := r.cs[0].kind; got != kindRuns {
		t.Errorf("container 0 kind %v, want runs", got)
	}
	if got := r.cs[1].kind; got != kindArray {
		t.Errorf("container 1 kind %v, want array", got)
	}
	// dense random container converts array→words during add
	r2 := &Roaring{n: containerBits, cs: make([]*container, 1)}
	rng := rand.New(rand.NewSource(3))
	prev := -1
	var count int
	for v := 0; v < containerBits; v++ {
		if rng.Intn(3) == 0 {
			r2.add(v)
			count++
			prev = v
		}
	}
	_ = prev
	r2.finalize()
	if r2.card != count {
		t.Fatalf("dense card=%d want %d", r2.card, count)
	}
	if got := r2.cs[0].kind; got != kindWords {
		t.Errorf("dense container kind %v, want words", got)
	}
	// RangeCount across the container boundary
	if got, want := r.RangeCount(0, n), len(tids); got != want {
		t.Errorf("RangeCount(full)=%d want %d", got, want)
	}
	if got := r.RangeCount(8999, containerBits+38); got != 1+2 {
		// tids 8999 (last of the run) and containerBits+0, containerBits+37
		t.Errorf("RangeCount(boundary)=%d want 3", got)
	}
}

func TestGallopSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		vals := genVals(rng, "sparse")
		if trial%3 == 0 {
			vals = genVals(rng, "runs")
		}
		v := uint16(rng.Intn(containerBits))
		lo := 0
		if len(vals) > 0 {
			lo = rng.Intn(len(vals) + 1)
		}
		want := lo
		for want < len(vals) && vals[want] < v {
			want++
		}
		if got := gallopSearch(vals, lo, v); got != want {
			t.Fatalf("gallopSearch(%v, lo=%d, v=%d)=%d want %d", vals, lo, v, got, want)
		}
	}
}

// randomSource generates a reproducible transaction list where item
// densities span several octaves, including ultra-sparse tail items.
func randomSource(seed int64, n, items int) Transactions {
	rng := rand.New(rand.NewSource(seed))
	txs := make([]itemset.Set, n)
	for i := range txs {
		var s []itemset.Item
		for x := 0; x < items; x++ {
			// item x appears with density ~ 1/(x+2)
			if rng.Intn(x+2) == 0 {
				s = append(s, itemset.Item(x))
			}
		}
		txs[i] = itemset.New(s...)
	}
	return Transactions(txs)
}

// TestRoaringIndexMatchesBitmap cross-checks the compressed index's
// accumulators against the flat bitmap's intersections: Card and
// RangeCount against PopcountRange. (Count equivalence of the two
// indexes is the seam test's, TestCountSlicesFixedInputs.)
func TestRoaringIndexMatchesBitmap(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		src := randomSource(seed, 2000, 24)
		bix := NewBitmapIndex(context.Background(), []Source{src}, nil, 1)
		rix := NewRoaringIndex(src, nil)
		if bix.N() != rix.N() {
			t.Fatalf("N mismatch: %d vs %d", bix.N(), rix.N())
		}
		lvl2 := octaveLevels(24)[1]
		bWords := make([][]uint64, len(lvl2))
		bix.EachIntersection(lvl2, func(i int, words []uint64) {
			bWords[i] = append([]uint64(nil), words...)
		})
		rng := rand.New(rand.NewSource(seed))
		rix.EachIntersection(lvl2, func(i int, acc *RoaringAcc) {
			if got, want := acc.Card(), PopcountRange(bWords[i], 0, bix.N()); got != want {
				t.Fatalf("seed %d cand %v: acc.Card=%d want %d", seed, lvl2[i], got, want)
			}
			for trial := 0; trial < 5; trial++ {
				lo := rng.Intn(rix.N())
				hi := lo + rng.Intn(rix.N()-lo) + 1
				if got, want := acc.RangeCount(lo, hi), PopcountRange(bWords[i], lo, hi); got != want {
					t.Fatalf("seed %d cand %v RangeCount(%d,%d)=%d want %d", seed, lvl2[i], lo, hi, got, want)
				}
			}
		})
	}
}

// TestRoaringIndexLargeUniverse covers multi-container indexes (n >
// 2^16) so cross-container iteration and range counting are exercised.
func TestRoaringIndexLargeUniverse(t *testing.T) {
	if testing.Short() {
		t.Skip("large universe test")
	}
	n := containerBits + containerBits/2
	rng := rand.New(rand.NewSource(5))
	txs := make([]itemset.Set, n)
	for i := range txs {
		var s []itemset.Item
		for x := 0; x < 6; x++ {
			if rng.Intn(1<<uint(x)) == 0 {
				s = append(s, itemset.Item(x))
			}
		}
		txs[i] = itemset.New(s...)
	}
	src := Transactions(txs)
	bix := NewBitmapIndex(context.Background(), []Source{src}, nil, 1)
	rix := NewRoaringIndex(src, nil)
	// Slices that end inside, on and across the container boundary.
	pairs := octaveLevels(6)[1]
	checkSeam(t, "large/whole", src, pairs, []rowRange{{0, n}}, nil)
	checkSeam(t, "large/sliced", src, pairs, []rowRange{{0, 40000}, {40000, containerBits}, {containerBits, containerBits + 9}, {containerBits + 500, n}}, nil)
	for _, x := range []int{0, 3, 5} {
		r := rix.itemBits(itemset.Item(x))
		w := bix.itemBits(itemset.Item(x))
		for trial := 0; trial < 40; trial++ {
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo) + 1
			if gotC, wantC := r.RangeCount(lo, hi), PopcountRange(w, lo, hi); gotC != wantC {
				t.Fatalf("item %d RangeCount(%d,%d)=%d want %d", x, lo, hi, gotC, wantC)
			}
		}
	}
}

// TestPrefixRunChunks checks the chunking properties: full coverage in
// order, no chunk boundary inside a (k-1)-prefix run, and plain even
// splitting for k ≤ 1.
func TestPrefixRunChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		var cands []itemset.Set
		nRuns := 1 + rng.Intn(20)
		for r := 0; r < nRuns; r++ {
			runLen := 1 + rng.Intn(6)
			a, b := itemset.Item(r), itemset.Item(100+rng.Intn(50))
			for j := 0; j < runLen; j++ {
				cands = append(cands, itemset.New(a, b, itemset.Item(200+r*10+j)))
			}
		}
		itemset.SortSets(cands)
		workers := 1 + rng.Intn(8)
		chunks := PrefixRunChunks(cands, workers)
		pos := 0
		for _, ch := range chunks {
			if ch[0] != pos {
				t.Fatalf("trial %d: chunk starts at %d, want %d", trial, ch[0], pos)
			}
			if ch[1] <= ch[0] {
				t.Fatalf("trial %d: empty chunk %v", trial, ch)
			}
			pos = ch[1]
			if ch[1] < len(cands) && samePrefixK1(cands[ch[1]-1], cands[ch[1]]) {
				t.Fatalf("trial %d: boundary %d splits a prefix run", trial, ch[1])
			}
		}
		if pos != len(cands) {
			t.Fatalf("trial %d: chunks cover %d of %d", trial, pos, len(cands))
		}
	}
	// k == 1: no prefixes; must still split evenly and cover.
	var ones []itemset.Set
	for i := 0; i < 10; i++ {
		ones = append(ones, itemset.New(itemset.Item(i)))
	}
	chunks := PrefixRunChunks(ones, 3)
	if len(chunks) != 3 {
		t.Fatalf("k=1: got %d chunks, want 3", len(chunks))
	}
	if chunks[2][1] != 10 {
		t.Fatalf("k=1: chunks do not cover the list: %v", chunks)
	}
}

// TestBitmapEachIntersectionZeroAlloc asserts the accumulator drawn
// from bitmapScratchPool keeps steady-state EachIntersection calls
// allocation-free.
func TestBitmapEachIntersectionZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are nondeterministic under the race detector")
	}
	src := randomSource(1, 1000, 12)
	ix := NewBitmapIndex(context.Background(), []Source{src}, nil, 1)
	var cands []itemset.Set
	for a := 0; a < 12; a++ {
		for b := a + 1; b < 12; b++ {
			cands = append(cands, itemset.New(itemset.Item(a), itemset.Item(b)))
		}
	}
	itemset.SortSets(cands)
	sink := 0
	// warm the pool
	ix.EachIntersection(cands, func(i int, words []uint64) { sink += PopcountRange(words, 0, ix.N()) })
	avg := testing.AllocsPerRun(20, func() {
		ix.EachIntersection(cands, func(i int, words []uint64) { sink += PopcountRange(words, 0, ix.N()) })
	})
	// < 1 tolerates a rare pool refill after a GC between runs.
	if avg >= 1 {
		t.Errorf("EachIntersection allocates %.1f per call in steady state, want 0", avg)
	}
	_ = sink
}

// TestRoaringCountSetsZeroAlloc asserts the same for the compressed
// index's batched counting path and roaringScratchPool (output slice
// aside).
func TestRoaringCountSetsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are nondeterministic under the race detector")
	}
	src := randomSource(2, 1000, 12)
	ix := NewRoaringIndex(src, nil)
	var cands []itemset.Set
	for a := 0; a < 12; a++ {
		for b := a + 1; b < 12; b++ {
			for c := b + 1; c < 12; c++ {
				cands = append(cands, itemset.New(itemset.Item(a), itemset.Item(b), itemset.Item(c)))
			}
		}
	}
	itemset.SortSets(cands)
	counts := make([]int32, len(cands))
	ix.countInto(cands, counts) // warm the pool
	avg := testing.AllocsPerRun(20, func() {
		ix.countInto(cands, counts)
	})
	if avg >= 1 {
		t.Errorf("countInto allocates %.1f per call in steady state, want 0", avg)
	}
}

// collectedByOneGC reports whether what use builds, counts against and
// then drops is garbage after a single collection: use sets a finalizer
// that closes freed and returns with no reference to its object left,
// and one runtime.GC() must queue that finalizer.
func collectedByOneGC(t *testing.T, use func(freed chan struct{})) {
	t.Helper()
	freed := make(chan struct{})
	use(freed)
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Error("still reachable after one GC: something the runtime holds points into the index")
	}
}

// TestIndexNotPinnedByScratch pins the scratch ownership: an index that
// served an intersection must not stay reachable through what the
// intersection used. A sync.Pool field would do that — first use puts
// the pool, an interior pointer of the index, on the runtime's pool
// list for the next two collections — and so would a pooled working set
// that kept its directory of the index's bitmaps.
func TestIndexNotPinnedByScratch(t *testing.T) {
	src := randomSource(3, 1000, 12)
	pairs := []itemset.Set{itemset.New(1, 2), itemset.New(1, 3), itemset.New(2, 3)}
	t.Run("bitmap", func(t *testing.T) {
		collectedByOneGC(t, func(freed chan struct{}) {
			ix := NewBitmapIndex(context.Background(), []Source{src}, nil, 1)
			ix.EachIntersection(pairs, func(int, []uint64) {})
			runtime.SetFinalizer(ix, func(*BitmapIndex) { close(freed) })
		})
	})
	t.Run("roaring", func(t *testing.T) {
		collectedByOneGC(t, func(freed chan struct{}) {
			ix := NewRoaringIndex(src, nil)
			ix.EachIntersection(pairs, func(int, *RoaringAcc) {})
			ix.countInto(pairs, make([]int32, len(pairs))) // fills the scratch's last-item directory
			// On a bitmap, not the index: the index reaches it, so this
			// covers both, and finalizers run in dependency order — with
			// one on each, a single collection would queue the index's only.
			runtime.SetFinalizer(ix.itemBits(3), func(*Roaring) { close(freed) })
		})
	})
}
