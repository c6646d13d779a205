// Package gen generates the synthetic workloads the experiments run
// on. The base generator re-implements the IBM Quest scheme of Agrawal
// & Srikant (VLDB'94) — the datasets named T10.I4.D100K in the
// association-mining literature — and the temporal layer plants rules
// with controlled temporal features (valid periods, cycles, calendar
// patterns) so recovery experiments can be scored against ground truth.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/tarm-project/tarm/internal/itemset"
)

// QuestConfig parametrises the base (time-agnostic) generator. The
// conventional name T⟨AvgTxLen⟩.I⟨AvgPatLen⟩.D⟨n⟩ describes a draw of n
// transactions from it.
type QuestConfig struct {
	// NItems is the size of the item universe (paper default 1000).
	NItems int
	// NPatterns is the number of potentially frequent itemsets seeded
	// into the generator (paper default 2000; smaller here for laptop
	// scale).
	NPatterns int
	// AvgTxLen is the mean transaction size |T| (Poisson).
	AvgTxLen float64
	// AvgPatLen is the mean pattern size |I| (Poisson, min 1).
	AvgPatLen float64
	// Corr is the correlation between consecutive patterns: the
	// fraction of a pattern's items drawn from the previous pattern
	// (paper default 0.5).
	Corr float64
	// Corrupt is the mean corruption level: the probability that items
	// of a chosen pattern are dropped from a transaction (paper default
	// 0.5).
	Corrupt float64
}

// normalise fills defaults and validates.
func (c QuestConfig) normalise() (QuestConfig, error) {
	if c.NItems == 0 {
		c.NItems = 1000
	}
	if c.NPatterns == 0 {
		c.NPatterns = 200
	}
	if c.AvgTxLen == 0 {
		c.AvgTxLen = 10
	}
	if c.AvgPatLen == 0 {
		c.AvgPatLen = 4
	}
	if c.Corr == 0 {
		c.Corr = 0.5
	}
	if c.Corrupt == 0 {
		c.Corrupt = 0.5
	}
	switch {
	case c.NItems < 2:
		return c, fmt.Errorf("gen: NItems %d too small", c.NItems)
	case c.NPatterns < 1:
		return c, fmt.Errorf("gen: NPatterns %d too small", c.NPatterns)
	case c.AvgTxLen < 1:
		return c, fmt.Errorf("gen: AvgTxLen %v too small", c.AvgTxLen)
	case c.AvgPatLen < 1:
		return c, fmt.Errorf("gen: AvgPatLen %v too small", c.AvgPatLen)
	case c.Corr < 0 || c.Corr > 1:
		return c, fmt.Errorf("gen: Corr %v outside [0,1]", c.Corr)
	case c.Corrupt < 0 || c.Corrupt >= 1:
		return c, fmt.Errorf("gen: Corrupt %v outside [0,1)", c.Corrupt)
	}
	return c, nil
}

// Quest is an instantiated generator: a fixed pattern table plus a
// random stream of transactions drawn from it.
type Quest struct {
	cfg      QuestConfig
	patterns [][]itemset.Item
	weights  []float64 // cumulative, normalised
	corrupt  []float64 // per-pattern corruption level
	r        *rand.Rand
}

// NewQuest builds the pattern table deterministically from the seed.
func NewQuest(cfg QuestConfig, seed int64) (*Quest, error) {
	cfg, err := cfg.normalise()
	if err != nil {
		return nil, err
	}
	q := &Quest{cfg: cfg, r: rand.New(rand.NewSource(seed))}

	q.patterns = make([][]itemset.Item, cfg.NPatterns)
	q.corrupt = make([]float64, cfg.NPatterns)
	raw := make([]float64, cfg.NPatterns)
	var prev []itemset.Item
	for i := range q.patterns {
		size := q.poisson(cfg.AvgPatLen - 1)
		if size < 1 {
			size = 1
		}
		seen := make(map[itemset.Item]bool, size)
		var items []itemset.Item
		// A fraction Corr of items comes from the previous pattern,
		// modelling that frequent itemsets share items.
		for len(items) < size {
			var it itemset.Item
			if len(prev) > 0 && q.r.Float64() < cfg.Corr {
				it = prev[q.r.Intn(len(prev))]
			} else {
				it = itemset.Item(q.r.Intn(cfg.NItems))
			}
			if !seen[it] {
				seen[it] = true
				items = append(items, it)
			}
		}
		q.patterns[i] = items
		prev = items
		raw[i] = q.r.ExpFloat64() // exponential pattern weights
		// Corruption level per pattern: clipped normal(mean, 0.1).
		cl := cfg.Corrupt + q.r.NormFloat64()*0.1
		if cl < 0 {
			cl = 0
		}
		if cl > 0.9 {
			cl = 0.9
		}
		q.corrupt[i] = cl
	}
	// Cumulative weights for pattern selection.
	q.weights = make([]float64, cfg.NPatterns)
	sum := 0.0
	for _, w := range raw {
		sum += w
	}
	acc := 0.0
	for i, w := range raw {
		acc += w / sum
		q.weights[i] = acc
	}
	q.weights[cfg.NPatterns-1] = 1
	return q, nil
}

// poissonExactMax is the largest mean poisson draws by Knuth's method:
// exp(-mean) is still a normal double there, and above it underflows
// toward zero, which caps the draw near 745 whatever the mean.
const poissonExactMax = 700

// poisson draws from Poisson(mean): by Knuth's method up to
// poissonExactMax, above it by the normal approximation N(mean, mean)
// rounded and clamped at 0 (the Poisson's skew, 1/√mean, is under 0.04
// there).
func (q *Quest) poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > poissonExactMax {
		return max(0, int(math.Round(mean+math.Sqrt(mean)*q.r.NormFloat64())))
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= q.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// pickPattern selects a pattern index by weight.
func (q *Quest) pickPattern() int {
	x := q.r.Float64()
	lo, hi := 0, len(q.weights)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if q.weights[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Transaction draws one transaction: patterns are packed in until the
// target size is met, each pattern dropping items according to its
// corruption level; half-fitting final patterns are included with
// probability proportional to the fit, per the original scheme.
func (q *Quest) Transaction() itemset.Set {
	target := q.poisson(q.cfg.AvgTxLen - 1)
	if target < 1 {
		target = 1
	}
	seen := make(map[itemset.Item]bool, target+4)
	var items []itemset.Item
	for len(items) < target {
		pi := q.pickPattern()
		var kept []itemset.Item
		for _, it := range q.patterns[pi] {
			if q.r.Float64() >= q.corrupt[pi] {
				kept = append(kept, it)
			}
		}
		if len(kept) == 0 {
			continue
		}
		if overflow := len(items) + len(kept) - target; overflow > 0 {
			// Keep the oversized pattern only half the time, as in the
			// original generator; otherwise retry.
			if q.r.Float64() < 0.5 {
				break
			}
		}
		for _, it := range kept {
			if !seen[it] {
				seen[it] = true
				items = append(items, it)
			}
		}
	}
	if len(items) == 0 {
		items = []itemset.Item{itemset.Item(q.r.Intn(q.cfg.NItems))}
	}
	return itemset.New(items...)
}

// Transactions draws n transactions.
func (q *Quest) Transactions(n int) []itemset.Set {
	out := make([]itemset.Set, n)
	for i := range out {
		out[i] = q.Transaction()
	}
	return out
}

// Name returns the conventional dataset name, e.g. "T10.I4.D100K".
func Name(cfg QuestConfig, d int) string {
	c, _ := cfg.normalise()
	ds := fmt.Sprintf("%d", d)
	if d >= 1000 && d%1000 == 0 {
		ds = fmt.Sprintf("%dK", d/1000)
	}
	return fmt.Sprintf("T%.0f.I%.0f.D%s", c.AvgTxLen, c.AvgPatLen, ds)
}
