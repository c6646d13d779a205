package apriori

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/obs"
)

// Config tunes a mining run. The zero value is not usable: MinSupport
// must be set.
type Config struct {
	// MinSupport is the minimum support as a fraction of transactions
	// in [0,1]. A candidate is frequent when its count is at least
	// ceil(MinSupport * N).
	MinSupport float64
	// MaxK bounds the size of itemsets mined; 0 means unbounded.
	MaxK int
	// Backend selects the support-counting strategy; the zero value
	// (BackendAuto) is bitmap wherever its index fits in memory.
	Backend Backend
	// Workers fans the bitmap and roaring backends' candidate counting
	// out over a worker pool; 0 or 1 counts sequentially (as the naive
	// backend always does over a whole table, which is a single slice).
	// Counts are identical at any worker count.
	Workers int
	// Tracer receives per-pass telemetry (candidates generated, pruned,
	// counted, frequent survivors, backend, wall time). Nil disables
	// tracing at no measurable cost; see internal/obs.
	Tracer obs.Tracer
}

// minCount resolves the absolute threshold for n transactions.
func (c Config) minCount(n int) (int, error) {
	if c.MinSupport <= 0 || c.MinSupport > 1 {
		return 0, fmt.Errorf("apriori: MinSupport %v outside (0,1]", c.MinSupport)
	}
	return CeilCount(c.MinSupport, n), nil
}

// CeilCount is ceil(frac·n), at least 1, computed with a relative
// epsilon so that products the caller means to be integral do not round
// up a whole count: 0.15·20 evaluates to 3.0000000000000004 in float64,
// and a naive ceiling would demand 4 of 20 transactions instead of 3.
// Exact-integer products stay exact: CeilCount(0.25, 8) == 2 and
// CeilCount(1, n) == n.
//
// The ≥1 clamp defines the degenerate corners: frac == 0 and n == 0
// both yield 1, so a threshold over an empty population (or a zero
// support) still demands at least one supporting transaction — nothing
// becomes "frequent" vacuously.
func CeilCount(frac float64, n int) int {
	v := frac * float64(n)
	// The epsilon is relative so ulp-scale product noise is absorbed at
	// any magnitude, but capped below one whole count: past ~5e8 a
	// relative 1e-9 exceeds 1.0 and would swallow a legitimate unit
	// (CeilCount(1, 1<<30) must be 1<<30, not one less).
	eps := 1e-9 * math.Max(1, v)
	if eps > 0.5 {
		eps = 0.5
	}
	c := int(math.Ceil(v - eps))
	if c < 1 {
		c = 1
	}
	return c
}

// ItemsetCount pairs a frequent itemset with its absolute support
// count.
type ItemsetCount struct {
	Set   itemset.Set
	Count int
}

// Frequent is the result of a mining run: all frequent itemsets,
// grouped by size, plus enough bookkeeping to look supports up during
// rule generation.
type Frequent struct {
	// N is the number of transactions scanned.
	N int
	// MinCount is the absolute threshold that was applied.
	MinCount int
	// ByK[k] holds the frequent k-itemsets (ByK[0] is unused and nil).
	// Each level is sorted in canonical itemset order.
	ByK [][]ItemsetCount

	counts map[string]int
}

// Support returns the absolute count of s, or 0 if s is not frequent.
func (f *Frequent) Support(s itemset.Set) int { return f.counts[s.Key()] }

// SupportFrac returns the support of s as a fraction of N.
func (f *Frequent) SupportFrac(s itemset.Set) float64 {
	if f.N == 0 {
		return 0
	}
	return float64(f.counts[s.Key()]) / float64(f.N)
}

// Contains reports whether s was found frequent.
func (f *Frequent) Contains(s itemset.Set) bool {
	_, ok := f.counts[s.Key()]
	return ok
}

// TotalItemsets returns the number of frequent itemsets of all sizes.
func (f *Frequent) TotalItemsets() int {
	n := 0
	for _, level := range f.ByK {
		n += len(level)
	}
	return n
}

// All returns every frequent itemset in canonical order.
func (f *Frequent) All() []ItemsetCount {
	out := make([]ItemsetCount, 0, f.TotalItemsets())
	for _, level := range f.ByK {
		out = append(out, level...)
	}
	return out
}

// ErrEmptySource is returned when the source has no transactions.
var ErrEmptySource = errors.New("apriori: source has no transactions")

// Mine runs the level-wise algorithm over src and returns all frequent
// itemsets under cfg.
func Mine(src Source, cfg Config) (*Frequent, error) {
	return MineContext(context.Background(), src, cfg)
}

// MineContext is Mine under a context. Cancellation is observed at
// pass boundaries, between the blocks of a Slices source and, on the
// vertical backends, between candidate blocks of a pass — never per
// transaction.
//
// A Slices source is counted block by block on cfg.Workers; any other
// source is one block. Level 2 takes the route a hold-table build's
// granule would: on the flat bitmap index with at most MaxVerticalItems
// frequent items the join of L1 is counted by intersection, as every
// level is; on any other backend but the naive reference, or past the
// crossover, one triangular pair count over the frequent items (see
// PairTriangle), exact over the whole table, decides it, so the join is
// neither materialised nor counted pair by pair. Levels 3 and up count
// on the configured backend.
func MineContext(ctx context.Context, src Source, cfg Config) (*Frequent, error) {
	return mineContext(ctx, src, cfg, MaxPairCells, MaxVerticalItems)
}

// mineContext is MineContext with the triangle's cell cap and the route
// crossover as parameters, so tests can force the triangle's row-blocked
// path on small tables and either route on any backend that has both.
func mineContext(ctx context.Context, src Source, cfg Config, pairCells, verticalItems int) (*Frequent, error) {
	if !cfg.Backend.Valid() {
		return nil, fmt.Errorf("apriori: invalid counting backend %d", int(cfg.Backend))
	}
	if cfg.MaxK < 0 {
		return nil, fmt.Errorf("apriori: MaxK %d negative", cfg.MaxK)
	}
	n := src.Len()
	if n == 0 {
		return nil, ErrEmptySource
	}
	minCount, err := cfg.minCount(n)
	if err != nil {
		return nil, err
	}
	slices, ok := src.(Slices)
	if !ok {
		slices = Slices{src}
	}
	res := &Frequent{
		N:        n,
		MinCount: minCount,
		ByK:      [][]ItemsetCount{nil},
	}
	tr := obs.OrNop(cfg.Tracer)
	trace := tr.Enabled()
	if trace {
		tr.StartTask("apriori.Mine")
		defer tr.EndTask()
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Level 1: one pass with a plain counter per item, ranked as met.
	var t0 time.Time
	if trace {
		tr.StartPass(1)
		t0 = time.Now()
	}
	items, c1 := CountLevel1(ctx, slices, cfg.Workers)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var l1 []ItemsetCount
	for r, v := range c1 {
		if cnt := sumRow(v); cnt >= minCount {
			l1 = append(l1, ItemsetCount{Set: itemset.Set{items[r]}, Count: cnt})
		}
	}
	sort.Slice(l1, func(i, j int) bool { return l1[i].Set.Compare(l1[j].Set) < 0 })
	res.ByK = append(res.ByK, l1)
	if trace {
		tr.EndPass(obs.PassStats{
			Level: 1, Generated: len(c1), Counted: len(c1), Frequent: len(l1),
			Rows: int64(n), Backend: "scan", Duration: time.Since(t0),
		})
	}
	// Pre-size the lookup map from the L1 level: most frequent itemsets
	// are pairs of frequent items, so 2·|L1| is a cheap lower-variance
	// guess that avoids the early growth rehashes.
	res.counts = make(map[string]int, 2*len(l1))
	for _, ic := range l1 {
		res.counts[ic.Set.Key()] = ic.Count
	}

	// The counting seam resolves BackendAuto. keep ranks L1 in item
	// order: the triangle's rows and the vertical indexes' filter.
	keep := keepItems(l1)
	counter := NewSliceCounter(cfg.Backend, slices, keep, cfg.Workers)
	backend := counter.Backend()
	onTriangle := backend != BackendNaive && len(l1) > 1 &&
		(backend != BackendBitmap || len(l1) > verticalItems)
	var countingNS int64
	prev := l1
	for k := 2; len(prev) > 0 && (cfg.MaxK == 0 || k <= cfg.MaxK); k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if trace {
			tr.StartPass(k)
			t0 = time.Now()
		}
		var level []ItemsetCount
		var nGen, nPruned int
		if k == 2 && onTriangle {
			// The join of L1 is every pair of it, pruning none, and the
			// pass reports all of it as counted. The pass span says which
			// route decided it, as a hold-table build's does.
			nGen = len(l1) * (len(l1) - 1) / 2
			tc0 := time.Now()
			level = frequentPairs(ctx, slices, keep, minCount, cfg.Workers, pairCells)
			countingNS += time.Since(tc0).Nanoseconds()
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if trace {
				tr.Counter(obs.MetricPairGranulesHorizontal, 1)
			}
		} else {
			var cands []itemset.Set
			cands, nGen, nPruned, err = GenerateCandidatesCounted(ctx, prev)
			if err != nil {
				return nil, err
			}
			if len(cands) == 0 {
				if trace {
					tr.EndPass(obs.PassStats{
						Level: k, Generated: nGen, Pruned: nPruned,
						Backend: backend.String(), Duration: time.Since(t0),
					})
				}
				break
			}
			tc0 := time.Now()
			counts, err := counter.Count(ctx, cands)
			if err != nil {
				return nil, err
			}
			countingNS += time.Since(tc0).Nanoseconds()
			// A cancelled count is partial: discard it.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for i, c := range cands {
				if total := sumRow(counts.Row(i)); total >= minCount {
					level = append(level, ItemsetCount{Set: c, Count: total})
				}
			}
			if k == 2 && backend == BackendBitmap && trace {
				tr.Counter(obs.MetricPairGranulesVertical, 1)
			}
		}
		for _, ic := range level {
			res.counts[ic.Set.Key()] = ic.Count
		}
		res.ByK = append(res.ByK, level)
		prev = level
		if trace {
			tr.EndPass(obs.PassStats{
				Level: k, Generated: nGen, Pruned: nPruned, Counted: nGen - nPruned,
				Frequent: len(level), Rows: int64(n),
				Backend: backend.String(), Duration: time.Since(t0),
			})
		}
	}
	if trace {
		tr.Counter(obs.MetricItemsetsFrequent, int64(res.TotalItemsets()))
		tr.Gauge(obs.MetricCountingObservedNS, float64(countingNS))
	}
	return res, nil
}

// sumRow totals a candidate's counts over the slices.
func sumRow(v []int32) int {
	n := 0
	for _, c := range v {
		n += int(c)
	}
	return n
}

// CountLevel1 is the level-1 scan: the distinct items of slices,
// ranked as met, and by the same index each one's count vector, one
// count per slice, allocated as a counter's rows are (newRow). The
// slice blocks of Blocks are scanned concurrently, each ranking its own
// items, and merged in block order; blocks own disjoint slices, so the
// items and vectors are those of one sequential scan at any worker
// count.
//
// Cancellation is sampled between slices: a cancelled scan stops, and
// the caller checks ctx.Err() before using the (partial) counts.
func CountLevel1(ctx context.Context, slices []Source, workers int) ([]itemset.Item, [][]int32) {
	n := len(slices)
	blocks := Blocks(n, workers)
	if len(blocks) == 1 {
		return countLevel1Range(ctx, slices, 0, n)
	}
	partItems := make([][]itemset.Item, len(blocks))
	partVecs := make([][][]int32, len(blocks))
	fanOut(blocks, func(b, lo, hi int) {
		partItems[b], partVecs[b] = countLevel1Range(ctx, slices, lo, hi)
	})
	var ranks itemset.Ranks
	var vecs [][]int32
	for b, blk := range blocks {
		for i, x := range partItems[b] {
			r := ranks.Add(x)
			if r == len(vecs) {
				vecs = append(vecs, newRow(n))
			}
			copy(vecs[r][blk[0]:blk[1]], partVecs[b][i])
		}
	}
	return ranks.Items(), vecs
}

// countLevel1Range is the level-1 scan of slices [lo, hi), with vectors
// hi-lo wide. Items are ranked as they are met, so an occurrence costs
// one table load and one increment, not a map access.
func countLevel1Range(ctx context.Context, slices []Source, lo, hi int) ([]itemset.Item, [][]int32) {
	var ranks itemset.Ranks
	var vecs [][]int32
	s := lo
	count := func(tx itemset.Set) { // one closure for the scan, not one per slice
		for _, x := range tx {
			r := ranks.Rank(x)
			if r < 0 {
				r = ranks.Add(x)
				vecs = append(vecs, newRow(hi-lo))
			}
			vecs[r][s-lo]++
		}
	}
	done := ctx.Done()
	for ; s < hi; s++ {
		if done != nil {
			select {
			case <-done:
				return ranks.Items(), vecs
			default:
			}
		}
		slices[s].ForEach(count)
	}
	return ranks.Items(), vecs
}

// joinCheckEvery is the number of joined candidates between two
// cancellation checks of GenerateCandidatesCounted: a candidate costs an
// allocation and k-2 subset probes, so a check costs nothing against a
// block of them, and a block is well under a millisecond of work.
const joinCheckEvery = 1024

// GenerateCandidatesCounted produces the (k+1)-candidates from the
// sorted frequent k-level: prefix join followed by the Apriori prune
// (every k-subset of a candidate must itself be frequent). The input
// must be in canonical order, as produced by Mine. It also reports how
// many candidates the join produced (generated) and how many the subset
// prune removed (pruned); len(out) == generated-pruned.
//
// A join can run to millions of candidates, so ctx is sampled every
// joinCheckEvery of them; once it is done the partial join is dropped
// and ctx.Err() returned.
func GenerateCandidatesCounted(ctx context.Context, level []ItemsetCount) (out []itemset.Set, generated, pruned int, err error) {
	if len(level) < 2 {
		return nil, 0, 0, nil
	}
	// Both subsets of a pair are its join parents, so a level of single
	// items has nothing to probe and needs no key set.
	var freq map[string]bool
	if len(level[0].Set) > 1 {
		freq = make(map[string]bool, len(level))
		for _, ic := range level {
			freq[ic.Set.Key()] = true
		}
	}
	// One key buffer for every subset probe of the pass: the prune
	// loop's map lookups must not allocate a key string per subset.
	keyBuf := make([]byte, 0, 4*len(level[0].Set))
	for i := 0; i < len(level); i++ {
		for j := i + 1; j < len(level); j++ {
			cand, ok := level[i].Set.JoinPrefix(level[j].Set)
			if !ok {
				// The level is sorted, so once the prefix diverges no
				// later j can share it either.
				break
			}
			if generated%joinCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return nil, 0, 0, err
				}
			}
			generated++
			if aprioriPruned(cand, freq, keyBuf) {
				pruned++
				continue
			}
			out = append(out, cand)
		}
	}
	return out, generated, pruned, nil
}

// aprioriPruned reports whether cand has a (k-1)-subset that is not
// frequent. Dropping one of the last two items gives the join parents,
// which are frequent by construction, so only the k-2 subsets dropping
// an earlier item are probed — none for a pair.
func aprioriPruned(cand itemset.Set, freq map[string]bool, keyBuf []byte) bool {
	for drop := 0; drop < len(cand)-2; drop++ {
		if !freq[string(cand[drop+1:].AppendKey(cand[:drop].AppendKey(keyBuf[:0])))] {
			return true
		}
	}
	return false
}
