package core

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"

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
	inPeriod := make([]uint64, len(h.Active))
	return emitRules(ctx, h, obs.TaskPeriods, periodCmp, func(out []PeriodRule, rc RuleCandidate, hold []uint64) []PeriodRule {
		pos = holdPositions(pos[:0], hold, h.Active)
		for _, iv := range maximalDenseIntervals(pos, h.Cfg.MinFreq, pcfg.MinLen) {
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

func periodCmp(a, b PeriodRule) int {
	if c := a.Rule.Compare(b.Rule); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Interval.Lo, b.Interval.Lo); c != 0 {
		return c
	}
	return cmp.Compare(a.Interval.Hi, b.Interval.Hi)
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

// maximalDenseIntervals returns the intervals [a,b] (offsets) such that
//   - a and b hold (so endpoints are active),
//   - among the active granules of [a,b], the fraction holding is at
//     least minFreq,
//   - [a,b] contains at least minLen active granules, and
//   - no other qualifying interval strictly contains [a,b].
//
// Inactive granules are neutral: they neither extend nor break a
// period. Both endpoints hold, so the search runs over pairs of holding
// granules — O(m²) in their number m, whatever the span — taking each
// start's furthest qualifying end. Starts ascend, so an interval is
// contained in an earlier one exactly when it ends no later than the
// furthest end reported so far; only ends beyond that are tried.
func maximalDenseIntervals(pos []holdPos, minFreq float64, minLen int) []ivOff {
	var out []ivOff
	last := -1 // index of the furthest end reported
	for i, a := range pos {
		for j := len(pos) - 1; j > last && j >= i; j-- {
			nAct, nHold := pos[j].rank-a.rank+1, j-i+1
			if nAct >= minLen && float64(nHold) >= minFreq*float64(nAct)-1e-12 {
				out = append(out, ivOff{Lo: a.gi, Hi: pos[j].gi})
				last = j
				break
			}
		}
	}
	return out
}
