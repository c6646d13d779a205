package apriori

import "math/bits"

// The counting cost model. BackendAuto used to be a single hard-coded
// density cutoff (items present in < 1/512 of transactions → hash
// tree, else bitmap); with four backends that one number cannot rank
// them. Instead the resolver summarises the table into CountStats —
// n, item cardinality, a per-item density histogram and the granule
// count — predicts an abstract per-run cost for every backend in
// "word-op" units (one uint64 AND+POPCNT ≈ 1), and picks the argmin.
// The prediction and the observed counting time both surface in
// EXPLAIN and as counting_* metrics, so a wrong pick is visible, not
// silent.

// densityBuckets is the number of octave buckets in the density
// histogram: bucket b holds items with density in (2^-(b+1), 2^-b],
// the last bucket everything sparser than 2^-densityBuckets.
const densityBuckets = 16

// CountStats summarises the shape of a transaction table for the cost
// model. Populate N (and Granules, if temporal) first, then AddItem
// once per distinct item.
type CountStats struct {
	// N is the number of transactions.
	N int
	// Items is the number of distinct (candidate-eligible) items.
	Items int
	// Occurrences is the total number of item occurrences retained.
	Occurrences int64
	// Granules is the number of time granules the counts are sliced
	// into; 1 (or 0) for non-temporal mining.
	Granules int
	// DensityHist counts items per density octave (see densityBuckets).
	DensityHist [densityBuckets]int
}

// AddItem records one distinct item occurring count times, updating
// Items, Occurrences and the density histogram. N must be set first.
func (s *CountStats) AddItem(count int) {
	s.Items++
	s.Occurrences += int64(count)
	s.DensityHist[densityBucket(count, s.N)]++
}

// densityBucket maps an item count to its octave bucket: 0 for density
// > 1/2, b for density in (2^-(b+1), 2^-b], clamped to the last bucket.
func densityBucket(count, n int) int {
	if count <= 0 || n <= 0 {
		return densityBuckets - 1
	}
	if count > n {
		count = n
	}
	b := bits.Len(uint(n/count)) - 1
	if b >= densityBuckets {
		b = densityBuckets - 1
	}
	return b
}

// CountCost is one backend's predicted cost in word-op units.
type CountCost struct {
	Backend Backend
	Cost    float64
}

// Prediction is the cost model's output for one mining run: the stats
// it read, the backend it picked, and every backend's predicted cost.
type Prediction struct {
	Stats  CountStats
	Choice Backend
	Costs  []CountCost
}

// Cost returns b's predicted cost, or 0 if b was not costed.
func (p *Prediction) Cost(b Backend) float64 {
	if p == nil {
		return 0
	}
	for _, c := range p.Costs {
		if c.Backend == b {
			return c.Cost
		}
	}
	return 0
}

// nominalCandidateLoad estimates the total candidates a run will count
// across levels. The true count is unknowable before mining; since it
// multiplies every backend's per-candidate term identically, ranking
// only needs a common plausible scale. Twice the frequent-item count
// approximates the post-prune level-2 load that dominates most runs.
func nominalCandidateLoad(items int) float64 {
	c := 2 * items
	if c < 1 {
		c = 1
	}
	return float64(c)
}

// PredictCosts predicts each backend's cost for a run over a table
// shaped like s. Units are abstract word-ops; only ratios matter.
func PredictCosts(s CountStats) []CountCost {
	n := float64(s.N)
	if n < 1 {
		n = 1
	}
	words := float64((s.N + 63) / 64)
	meanLen := float64(s.Occurrences) / n
	if meanLen < 1 {
		meanLen = 1
	}
	granules := float64(s.Granules)
	if granules < 1 {
		granules = 1
	}
	cands := nominalCandidateLoad(s.Items)

	// naive: every candidate × every transaction, a subset probe
	// costing ~mean transaction length each.
	naive := cands * n * meanLen

	// hashtree: one pass per level over the transactions; each
	// transaction of length t hashes ~t²/2 item pairs down the tree at
	// the dominant level 2, plus leaf probes ~t per visited leaf.
	hashtree := n * meanLen * (meanLen/2 + 4)

	// bitmap: flat AND+POPCNT over the full universe per candidate —
	// density-blind — plus the index build (one pass to set bits, one
	// allocation-and-clear per item bitmap). Slicing per-granule counts
	// reads the intersection a second time.
	sliceFactor := 1.0
	if s.Granules > 1 {
		sliceFactor = 2.0
	}
	bitmap := cands*words*sliceFactor + float64(s.Occurrences) + float64(s.Items)*words
	if float64(s.Items)*words*8 > maxBitmapBytes {
		bitmap = inf()
	}

	// roaring: per-candidate cost follows the sparser operand of each
	// container pair — ~3 ops per element of the smaller side for
	// array kernels, capped by the word-AND cost for dense pairs. The
	// expectation is taken over the density histogram (an item pair
	// drawn per the per-item distribution), plus ~1 op per granule for
	// count slicing and a build of ~2 ops per occurrence.
	roaring := cands*(expectedPairCost(&s, n, words)+granules) +
		2*float64(s.Occurrences)

	return []CountCost{
		{BackendNaive, naive},
		{BackendHashTree, hashtree},
		{BackendBitmap, bitmap},
		{BackendRoaring, roaring},
	}
}

func inf() float64 { return 1e308 }

// expectedPairCost is the density-histogram expectation of one
// candidate intersection's cost under the roaring kernels.
func expectedPairCost(s *CountStats, n, words float64) float64 {
	if s.Items == 0 {
		return words
	}
	total := float64(s.Items)
	cost := 0.0
	for b1, c1 := range s.DensityHist {
		if c1 == 0 {
			continue
		}
		d1 := bucketDensity(b1)
		for b2, c2 := range s.DensityHist {
			if c2 == 0 {
				continue
			}
			d2 := bucketDensity(b2)
			dmin := d1
			if d2 < dmin {
				dmin = d2
			}
			pair := 3 * dmin * n
			if pair > words {
				pair = words
			}
			w := (float64(c1) / total) * (float64(c2) / total)
			cost += w * pair
		}
	}
	return cost
}

// bucketDensity is the representative density of octave bucket b: the
// geometric midpoint of (2^-(b+1), 2^-b].
func bucketDensity(b int) float64 {
	d := 1.0
	for i := 0; i <= b; i++ {
		d /= 2
	}
	return d * 1.414
}

// ChooseBackend picks the cheapest backend for a table shaped like s
// and returns every backend's predicted cost alongside. Tiny inputs
// (n < 64) and empty item sets short-circuit to the hash tree — at
// that scale the model's constants dominate and the tree is never a
// bad pick.
func ChooseBackend(s CountStats) (Backend, []CountCost) {
	costs := PredictCosts(s)
	if s.N < 64 || s.Items == 0 {
		return BackendHashTree, costs
	}
	best := costs[0]
	for _, c := range costs[1:] {
		// naive is the property-test reference, never an auto pick.
		if c.Backend == BackendNaive {
			continue
		}
		if c.Cost < best.Cost || best.Backend == BackendNaive {
			best = c
		}
	}
	return best.Backend, costs
}

// Predict runs the cost model and packages the full prediction.
func Predict(s CountStats) Prediction {
	choice, costs := ChooseBackend(s)
	return Prediction{Stats: s, Choice: choice, Costs: costs}
}
