package core

import (
	"context"
	"fmt"
	"sort"

	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/timegran"
)

// CycleConfig tunes Task II, the discovery of periodicities.
type CycleConfig struct {
	// MaxLen is the largest cycle length (in granules) considered;
	// 0 defaults to 31 (covers weekly and monthly cycles at Day
	// granularity).
	MaxLen int
	// MinReps is the minimum number of occurrences a cycle must have
	// within the mined span — a "cycle" seen once is noise; 0 defaults
	// to 2.
	MinReps int
}

func (c CycleConfig) normalise() (CycleConfig, error) {
	if c.MaxLen < 0 || c.MinReps < 0 {
		return c, fmt.Errorf("core: negative CycleConfig field")
	}
	if c.MaxLen == 0 {
		c.MaxLen = 31
	}
	if c.MinReps == 0 {
		c.MinReps = 2
	}
	return c, nil
}

// CyclicRule is a Task II result: a rule together with one cycle it
// obeys.
type CyclicRule struct {
	TemporalRule
	Cycle timegran.Cycle
}

// MineCyclesFromTableContext runs the arithmetic half of Task II over a
// built hold table: for every rule, find the arithmetic cycles (length ≤
// MaxLen) such that the rule holds in at least MinFreq of the cycle's
// active occurrence granules. With MinFreq = 1 these are exact cycles in
// the sense of Özden et al.; lower values tolerate noise. Redundant
// multiples of discovered cycles are suppressed. Cancellation is sampled
// every few hundred candidates.
func MineCyclesFromTableContext(ctx context.Context, h *HoldTable, ccfg CycleConfig) ([]CyclicRule, error) {
	ccfg, err := ccfg.normalise()
	if err != nil {
		return nil, err
	}
	return emitRules(ctx, h, obs.TaskCycles, cyclicLess, func(out []CyclicRule, rc RuleCandidate, hold []bool) []CyclicRule {
		cycles := detectCycles(hold, h.Active, h.Span.Lo, ccfg.MaxLen, ccfg.MinReps, h.Cfg.MinFreq)
		for _, cyc := range FilterRedundantCycles(cycles) {
			occurs := func(gi int) bool { return cyc.Matches(h.Cfg.Granularity, h.Span.Lo+int64(gi)) }
			if tr, ok := h.featureRule(rc, hold, cyc, occurs); ok {
				out = append(out, CyclicRule{TemporalRule: tr, Cycle: cyc})
			}
		}
		return out
	})
}

func cyclicLess(a, b CyclicRule) bool {
	if c := a.Rule.Compare(b.Rule); c != 0 {
		return c < 0
	}
	if a.Cycle.Length != b.Cycle.Length {
		return a.Cycle.Length < b.Cycle.Length
	}
	return a.Cycle.Offset < b.Cycle.Offset
}

// detectCycles scans a hold sequence for cycles (length ℓ ≤ maxLen)
// whose active occurrences number at least minReps and are held in at
// least minFreq fraction. Offsets in the returned cycles are absolute
// (relative to granule 0, not to the span start), so the cycles match
// granule indices directly.
func detectCycles(hold, active []bool, spanLo int64, maxLen, minReps int, minFreq float64) []timegran.Cycle {
	var out []timegran.Cycle
	n := len(hold)
	for l := 1; l <= maxLen; l++ {
		for o := 0; o < l; o++ {
			occ, hit := 0, 0
			for gi := o; gi < n; gi += l {
				if !active[gi] {
					continue
				}
				occ++
				if hold[gi] {
					hit++
				}
			}
			if occ < minReps {
				continue
			}
			if float64(hit) >= minFreq*float64(occ)-1e-12 {
				absOff := (spanLo + int64(o)) % int64(l)
				if absOff < 0 {
					absOff += int64(l)
				}
				out = append(out, timegran.Cycle{Length: int64(l), Offset: absOff})
			}
		}
	}
	return out
}

// sortCycles orders cycles canonically by (length, offset).
func sortCycles(cs []timegran.Cycle) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Length != cs[j].Length {
			return cs[i].Length < cs[j].Length
		}
		return cs[i].Offset < cs[j].Offset
	})
}

// FilterRedundantCycles removes cycles that are implied by a shorter
// discovered cycle: (ℓ, o) is redundant when some (ℓ', o') in the set
// has ℓ' dividing ℓ and o ≡ o' (mod ℓ'), since every occurrence of the
// longer cycle is an occurrence of the shorter one.
func FilterRedundantCycles(cycles []timegran.Cycle) []timegran.Cycle {
	sortCycles(cycles)
	var out []timegran.Cycle
	for _, c := range cycles {
		redundant := false
		for _, base := range cycles {
			if base.Length >= c.Length {
				continue
			}
			if c.Length%base.Length == 0 && c.Offset%base.Length == base.Offset {
				redundant = true
				break
			}
		}
		if !redundant {
			out = append(out, c)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Calendar periodicities: fold granules onto calendar classes.

// CalendarRule is a Task II calendar-periodicity result: a rule with a
// calendar-class feature such as "weekday in (6..7)".
type CalendarRule struct {
	TemporalRule
	Field timegran.CalField
}

// calendarFieldsFor returns the calendar fields it makes sense to fold
// a given granularity onto: folding days onto day-of-week and
// month-of-year, hours additionally onto hour-of-day, months onto
// month-of-year only.
func calendarFieldsFor(g timegran.Granularity) []timegran.CalField {
	switch g {
	case timegran.Second, timegran.Minute, timegran.Hour:
		return []timegran.CalField{timegran.FieldHour, timegran.FieldWeekday, timegran.FieldMonth}
	case timegran.Day:
		return []timegran.CalField{timegran.FieldWeekday, timegran.FieldMonthDay, timegran.FieldMonth}
	case timegran.Week:
		return []timegran.CalField{timegran.FieldMonth}
	case timegran.Month, timegran.Quarter:
		return []timegran.CalField{timegran.FieldMonth}
	default:
		return nil
	}
}

// MineCalendarPeriodicitiesFromTableContext runs the calendar half of
// Task II over a built hold table: for each rule and each applicable
// calendar field, find the field values whose active granules hold the
// rule with frequency ≥ MinFreq, and report them as a Calendar pattern.
// Classes are reported only when they are informative: at least one
// value qualifies and not every observed value does (a rule holding on
// all seven weekdays is simply always true and belongs to Task I/III
// output, not here). Classes need at least minReps occurrences, reusing
// CycleConfig.MinReps. Cancellation is sampled every few hundred
// candidates.
func MineCalendarPeriodicitiesFromTableContext(ctx context.Context, h *HoldTable, ccfg CycleConfig) ([]CalendarRule, error) {
	ccfg, err := ccfg.normalise()
	if err != nil {
		return nil, err
	}
	fields := calendarFieldsFor(h.Cfg.Granularity)
	if len(fields) == 0 {
		return nil, fmt.Errorf("core: no calendar folding defined for granularity %v", h.Cfg.Granularity)
	}

	// Precompute each granule's class per field.
	classes := make([][]int, len(fields))
	for fi, f := range fields {
		classes[fi] = make([]int, h.NGranules())
		for gi := range classes[fi] {
			classes[fi][gi] = timegran.FieldValueAt(f, h.Cfg.Granularity, h.Span.Lo+int64(gi))
		}
	}

	return emitRules(ctx, h, obs.TaskCalendars, calendarLess, func(out []CalendarRule, rc RuleCandidate, hold []bool) []CalendarRule {
		for fi, f := range fields {
			lo, hi := timegran.FieldDomain(f)
			occ := make([]int, hi-lo+1)
			hit := make([]int, hi-lo+1)
			for gi := range hold {
				if !h.Active[gi] {
					continue
				}
				v := classes[fi][gi] - lo
				occ[v]++
				if hold[gi] {
					hit[v]++
				}
			}
			var ranges []timegran.FieldRange
			observed, qualifying := 0, 0
			for v := range occ {
				if occ[v] == 0 {
					continue
				}
				observed++
				if occ[v] >= ccfg.MinReps && float64(hit[v]) >= h.Cfg.MinFreq*float64(occ[v])-1e-12 {
					qualifying++
					val := v + lo
					if n := len(ranges); n > 0 && ranges[n-1].Hi == val-1 {
						ranges[n-1].Hi = val
					} else {
						ranges = append(ranges, timegran.FieldRange{Lo: val, Hi: val})
					}
				}
			}
			if qualifying == 0 || qualifying == observed {
				continue // uninformative: never or always
			}
			cal, err := timegran.NewCalendar(f, ranges...)
			if err != nil {
				continue
			}
			inClass := func(gi int) bool { return cal.Matches(h.Cfg.Granularity, h.Span.Lo+int64(gi)) }
			if tr, ok := h.featureRule(rc, hold, cal, inClass); ok {
				out = append(out, CalendarRule{TemporalRule: tr, Field: f})
			}
		}
		return out
	})
}

func calendarLess(a, b CalendarRule) bool {
	if c := a.Rule.Compare(b.Rule); c != 0 {
		return c < 0
	}
	if a.Field != b.Field {
		return a.Field < b.Field
	}
	return a.Feature.String() < b.Feature.String()
}
