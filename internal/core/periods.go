package core

import (
	"context"
	"fmt"

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
	return emitRules(ctx, h, obs.TaskPeriods, periodLess, func(out []PeriodRule, rc RuleCandidate, hold []bool) []PeriodRule {
		for _, iv := range maximalDenseIntervals(hold, h.Active, h.Cfg.MinFreq, pcfg.MinLen) {
			abs := timegran.Interval{Lo: h.Span.Lo + int64(iv.Lo), Hi: h.Span.Lo + int64(iv.Hi)}
			window, werr := timegran.NewWindow(
				timegran.Start(abs.Lo, h.Cfg.Granularity),
				timegran.Start(abs.Hi+1, h.Cfg.Granularity),
			)
			if werr != nil {
				continue // cannot happen: Lo ≤ Hi
			}
			inPeriod := func(gi int) bool { return gi >= iv.Lo && gi <= iv.Hi }
			if tr, ok := h.featureRule(rc, hold, window, inPeriod); ok {
				out = append(out, PeriodRule{TemporalRule: tr, Interval: abs})
			}
		}
		return out
	})
}

func periodLess(a, b PeriodRule) bool {
	if c := a.Rule.Compare(b.Rule); c != 0 {
		return c < 0
	}
	if a.Interval.Lo != b.Interval.Lo {
		return a.Interval.Lo < b.Interval.Lo
	}
	return a.Interval.Hi < b.Interval.Hi
}

// ivOff is an interval of granule *offsets* within the span.
type ivOff struct{ Lo, Hi int }

// maximalDenseIntervals returns the intervals [a,b] (offsets) such that
//   - hold[a] and hold[b] (so endpoints are active),
//   - among the active granules of [a,b], the fraction holding is at
//     least minFreq,
//   - [a,b] contains at least minLen active granules, and
//   - no other qualifying interval strictly contains [a,b].
//
// Inactive granules are neutral: they neither extend nor break a
// period. The search is O(n²) per rule over the granule span, which is
// small (hundreds to low thousands of granules).
func maximalDenseIntervals(hold, active []bool, minFreq float64, minLen int) []ivOff {
	n := len(hold)
	var cands []ivOff
	for a := 0; a < n; a++ {
		if !hold[a] {
			continue
		}
		nAct, nHold := 0, 0
		best := -1
		for b := a; b < n; b++ {
			if active[b] {
				nAct++
				if hold[b] {
					nHold++
				}
			}
			if hold[b] && nAct >= minLen && float64(nHold) >= minFreq*float64(nAct)-1e-12 {
				best = b
			}
		}
		if best >= 0 {
			cands = append(cands, ivOff{Lo: a, Hi: best})
		}
	}
	// Drop intervals contained in another candidate. Candidates are in
	// ascending Lo order with one candidate per start, so containment
	// means an earlier candidate reaches at least as far.
	var out []ivOff
	maxHi := -1
	for _, c := range cands {
		if c.Hi > maxHi {
			out = append(out, c)
			maxHi = c.Hi
		}
	}
	return out
}
