package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/timegran"
)

// PeriodConfig tunes Task I, the discovery of valid time periods.
type PeriodConfig struct {
	// MinLen is the minimum number of *active* granules a valid period
	// must span to be reported; 0 defaults to 2 (a single good day is
	// not a period).
	MinLen int
}

func (p PeriodConfig) normalise() (PeriodConfig, error) {
	if p.MinLen < 0 {
		return p, fmt.Errorf("core: MinLen %d negative", p.MinLen)
	}
	if p.MinLen == 0 {
		p.MinLen = 2
	}
	return p, nil
}

// PeriodRule is a Task I result: a rule together with one maximal valid
// period.
type PeriodRule struct {
	TemporalRule
	// Interval is the valid period as a granule interval.
	Interval timegran.Interval
}

// MineValidPeriodsFromTableContext runs Task I over a built hold table:
// for every rule above the per-granule thresholds somewhere, report the
// maximal intervals during which it holds in at least MinFreq of the
// active granules, with both endpoints holding. Cancellation is sampled
// every few hundred candidates.
func MineValidPeriodsFromTableContext(ctx context.Context, h *HoldTable, pcfg PeriodConfig) ([]PeriodRule, error) {
	pcfg, err := pcfg.normalise()
	if err != nil {
		return nil, err
	}
	var pos []holdPos // scratch, refilled per candidate
	var ivs []ivOff   // scratch, refilled per candidate
	scan := newDenseScan(h.Cfg.MinFreq, pcfg.MinLen, h.NActive)
	inPeriod := make([]uint64, len(h.Active))
	return emitRules(ctx, h, obs.TaskPeriods, periodsFloor(h.Cfg.MinFreq, pcfg), nil, PeriodRule.Compare, func(out []PeriodRule, rc RuleCandidate, hold []uint64) []PeriodRule {
		pos = holdPositions(pos[:0], hold, h.Active)
		ivs = scan.intervals(ivs[:0], pos)
		for _, iv := range ivs {
			abs := timegran.Interval{Lo: h.Span.Lo + int64(iv.Lo), Hi: h.Span.Lo + int64(iv.Hi)}
			window, werr := timegran.NewWindow(
				timegran.Start(abs.Lo, h.Cfg.Granularity),
				timegran.Start(abs.Hi+1, h.Cfg.Granularity),
			)
			if werr != nil {
				continue // cannot happen: Lo ≤ Hi
			}
			clear(inPeriod)
			apriori.FillRange(inPeriod, iv.Lo, iv.Hi+1)
			apriori.AndInto(inPeriod, inPeriod, h.Active)
			if tr, ok := h.featureRule(rc, hold, window, inPeriod); ok {
				out = append(out, PeriodRule{TemporalRule: tr, Interval: abs})
			}
		}
		return out
	})
}

// Compare orders Task I results canonically, by identity: by rule,
// then by the period's start and end.
func (r PeriodRule) Compare(o PeriodRule) int {
	if c := r.Rule.Compare(o.Rule); c != 0 {
		return c
	}
	if c := cmp.Compare(r.Interval.Lo, o.Interval.Lo); c != 0 {
		return c
	}
	return cmp.Compare(r.Interval.Hi, o.Interval.Hi)
}

// ivOff is an interval of granule *offsets* within the span.
type ivOff struct{ Lo, Hi int }

// holdPos is one holding granule of a hold sequence: its offset in the
// span and its rank among the active granules (how many active granules
// precede it), so the active count between two holding granules is a
// rank difference.
type holdPos struct{ gi, rank int }

// holdPositions appends the holding granules of hold, in order, to pos.
// hold must be a subset of active, as Holds guarantees.
func holdPositions(pos []holdPos, hold, active []uint64) []holdPos {
	before := 0 // active granules in earlier words
	for wi, w := range hold {
		for ; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			pos = append(pos, holdPos{gi: wi<<6 + b, rank: before + bits.OnesCount64(active[wi]&(1<<uint(b)-1))})
		}
		before += bits.OnesCount64(active[wi])
	}
	return pos
}

// denseScan is Task I's period detector for one operator call over a
// table of nActive active granules: need[x] is minHits(minFreq, x), the
// least number of holding granules among x active ones, so the
// frequency test of an interval is one integer compare. smax is
// scratch reused from candidate to candidate.
type denseScan struct {
	minFreq float64
	minLen  int
	need    []int
	smax    []float64
}

func newDenseScan(minFreq float64, minLen, nActive int) *denseScan {
	d := &denseScan{minFreq: minFreq, minLen: minLen, need: make([]int, nActive+1)}
	for x := range d.need {
		d.need[x] = minHits(minFreq, x)
	}
	return d
}

// denseSlack bounds the rounding of the search keys below: far above
// the float error of a key over any span a table holds, far below the
// distance of 1 between two hit counts.
const denseSlack = 1e-6

// intervals appends to out, for the holding granules pos of one hold
// sequence (holdPositions), the intervals [a,b] (offsets) such that
//   - a and b hold (so endpoints are active),
//   - among the active granules of [a,b], the fraction holding is at
//     least minFreq,
//   - [a,b] contains at least minLen active granules, and
//   - no other qualifying interval strictly contains [a,b].
//
// Inactive granules are neutral: they neither extend nor break a
// period. Both endpoints hold, so an interval is a pair i ≤ j of
// holding granules: it spans nAct = rank_j − rank_i + 1 active granules
// and holds in j − i + 1 of them. Each start, in order, takes its
// furthest qualifying end; starts ascend, so an interval is contained
// in an earlier one exactly when it ends no later than the furthest end
// reported so far, and only ends beyond that are tried.
//
// The furthest end is searched for, not rescanned: j − i + 1 ≥
// minFreq·nAct is key_j ≥ t_i with key_j = j − minFreq·rank_j and
// t_i = i − 1 − minFreq·(rank_i − 1), so over the suffix maxima of the
// keys — non-increasing — a binary search finds the last end whose key
// reaches t_i less denseSlack. Every qualifying end is among those, and
// each is verified by the exact integer test, walking down from the
// last. O(m log m) in the m holding granules, where the rescan was
// O(m²).
func (d *denseScan) intervals(out []ivOff, pos []holdPos) []ivOff {
	m := len(pos)
	f := d.minFreq
	if cap(d.smax) < m {
		d.smax = make([]float64, m)
	}
	smax := d.smax[:m]
	best := math.Inf(-1)
	for j := m - 1; j >= 0; j-- {
		best = max(best, float64(j)-f*float64(pos[j].rank))
		smax[j] = best
	}
	last := -1 // index of the furthest end reported
	jmin := 0  // first end spanning minLen active granules from start i
	for i, a := range pos {
		for jmin < m && pos[jmin].rank-a.rank+1 < d.minLen {
			jmin++
		}
		lo := max(i, last+1, jmin)
		if lo >= m {
			break // no later start reaches past last, or spans minLen
		}
		t := float64(i-1) - f*float64(a.rank-1) - denseSlack
		if smax[lo] < t {
			continue
		}
		hi := lo + sort.Search(m-lo, func(k int) bool { return smax[lo+k] < t }) - 1
		for j := hi; j >= lo; j-- {
			if float64(j)-f*float64(pos[j].rank) >= t && j-i+1 >= d.need[pos[j].rank-a.rank+1] {
				out = append(out, ivOff{Lo: a.gi, Hi: pos[j].gi})
				last = j
				break
			}
		}
	}
	return out
}
