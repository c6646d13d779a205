package apriori

// Cost-model tests: the model's job is ranking, not absolute accuracy,
// so the assertions pin the picks on archetypal table shapes and the
// structural invariants (bucketing, monotonicity, guard rails) rather
// than exact word-op figures.

import "testing"

func TestDensityBucket(t *testing.T) {
	cases := []struct {
		count, n, want int
	}{
		{100, 100, 0},                    // density 1 → bucket 0
		{60, 100, 0},                     // > 1/2
		{50, 100, 1},                     // exactly 1/2 is the top of (1/4, 1/2]
		{26, 100, 1},                     // (1/4, 1/2]
		{13, 100, 2},                     // (1/8, 1/4]
		{1, 1 << 20, densityBuckets - 1}, // clamped to last bucket
		{0, 100, densityBuckets - 1},     // degenerate
		{5, 0, densityBuckets - 1},       // degenerate
		{200, 100, 0},                    // count clamped to n
	}
	for _, c := range cases {
		if got := densityBucket(c.count, c.n); got != c.want {
			t.Errorf("densityBucket(%d, %d) = %d, want %d", c.count, c.n, got, c.want)
		}
	}
}

func TestCountStatsAddItem(t *testing.T) {
	s := CountStats{N: 1000}
	s.AddItem(600) // bucket 0
	s.AddItem(300) // bucket 1
	s.AddItem(2)   // deep bucket
	if s.Items != 3 || s.Occurrences != 902 {
		t.Fatalf("Items=%d Occurrences=%d, want 3, 902", s.Items, s.Occurrences)
	}
	if s.DensityHist[0] != 1 || s.DensityHist[1] != 1 {
		t.Fatalf("histogram = %v, want one item in each of buckets 0 and 1", s.DensityHist)
	}
	sum := 0
	for _, c := range s.DensityHist {
		sum += c
	}
	if sum != s.Items {
		t.Fatalf("histogram sums to %d, want Items=%d", sum, s.Items)
	}
}

// denseStats and sparseStats build archetypal shapes: many transactions
// with items either near density 1/4 (dense) or near 1/4096 (sparse).
func denseStats(n, items int) CountStats {
	s := CountStats{N: n, Granules: 1}
	for i := 0; i < items; i++ {
		s.AddItem(n / 4)
	}
	return s
}

func sparseStats(n, items int) CountStats {
	s := CountStats{N: n, Granules: 1}
	for i := 0; i < items; i++ {
		s.AddItem(n / 4096)
	}
	return s
}

func TestChooseBackendDense(t *testing.T) {
	got, costs := ChooseBackend(denseStats(1<<17, 64))
	if got != BackendBitmap {
		t.Errorf("dense table chose %v, want bitmap (costs %v)", got, costs)
	}
}

func TestChooseBackendSparse(t *testing.T) {
	got, costs := ChooseBackend(sparseStats(1<<20, 256))
	if got != BackendRoaring {
		t.Errorf("sparse table chose %v, want roaring (costs %v)", got, costs)
	}
}

func TestChooseBackendGuards(t *testing.T) {
	// Tiny inputs and empty item sets short-circuit to the hash tree.
	if got, _ := ChooseBackend(CountStats{N: 10}); got != BackendHashTree {
		t.Errorf("tiny table chose %v, want hashtree", got)
	}
	if got, _ := ChooseBackend(CountStats{N: 1 << 20}); got != BackendHashTree {
		t.Errorf("empty item set chose %v, want hashtree", got)
	}
	tiny := CountStats{N: 32, Granules: 1}
	for i := 0; i < 5; i++ {
		tiny.AddItem(19)
	}
	if got, _ := ChooseBackend(tiny); got != BackendHashTree {
		t.Errorf("tiny dense table chose %v, want hashtree", got)
	}
	// naive is never an auto pick, whatever the shape.
	for _, s := range []CountStats{denseStats(1<<16, 8), sparseStats(1<<16, 8)} {
		if got, _ := ChooseBackend(s); got == BackendNaive {
			t.Errorf("auto picked naive for %+v", s)
		}
	}
}

func TestPredictCostsCoverAllBackends(t *testing.T) {
	pred := Predict(denseStats(1<<16, 32))
	seen := map[Backend]bool{}
	for _, c := range pred.Costs {
		if c.Cost < 0 {
			t.Errorf("negative cost for %v: %g", c.Backend, c.Cost)
		}
		seen[c.Backend] = true
	}
	for _, b := range []Backend{BackendNaive, BackendHashTree, BackendBitmap, BackendRoaring} {
		if !seen[b] {
			t.Errorf("no predicted cost for %v", b)
		}
		if b != BackendAuto && pred.Cost(b) <= 0 {
			t.Errorf("Prediction.Cost(%v) = %g, want > 0", b, pred.Cost(b))
		}
	}
	if pred.Cost(BackendAuto) != 0 {
		t.Errorf("Prediction.Cost(auto) = %g, want 0 (not costed)", pred.Cost(BackendAuto))
	}
}

func TestRoaringTracksDensity(t *testing.T) {
	// The roaring prediction must fall as the same table gets sparser;
	// the uncompressed bitmap's per-candidate term must not.
	n := 1 << 18
	var prev float64
	for i, count := range []int{n / 4, n / 64, n / 1024, n / 16384} {
		s := CountStats{N: n, Granules: 1}
		for j := 0; j < 64; j++ {
			s.AddItem(count)
		}
		p := Predict(s)
		r := p.Cost(BackendRoaring)
		if i > 0 && r >= prev {
			t.Errorf("roaring cost did not fall with density: count=%d cost=%g prev=%g", count, r, prev)
		}
		prev = r
	}
}

func TestBitmapCostCapacityGuard(t *testing.T) {
	// A universe whose bitmap index would exceed maxBitmapBytes must
	// price bitmap out of contention entirely.
	s := CountStats{N: 1 << 28, Granules: 1}
	for i := 0; i < 2000; i++ {
		s.AddItem(1 << 20)
	}
	p := Predict(s)
	if p.Choice == BackendBitmap {
		t.Errorf("oversized bitmap index still chosen (cost %g)", p.Cost(BackendBitmap))
	}
	if p.Cost(BackendBitmap) < 1e300 {
		t.Errorf("oversized bitmap cost = %g, want ~inf", p.Cost(BackendBitmap))
	}
}
