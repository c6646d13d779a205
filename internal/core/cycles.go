package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"github.com/tarm-project/tarm/internal/apriori"
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
	classes := cycleClasses(h.Active, h.NGranules(), h.Span.Lo, ccfg.MaxLen, ccfg.MinReps, h.Cfg.MinFreq)
	maskOf := make(map[timegran.Cycle][]uint64, len(classes))
	for _, c := range classes {
		maskOf[c.cycle] = c.mask
	}
	return emitRules(ctx, h, obs.TaskCycles, cyclesFloor(classes, h.NActive), nil, CyclicRule.Compare, func(out []CyclicRule, rc RuleCandidate, hold []uint64) []CyclicRule {
		for _, cyc := range FilterRedundantCycles(detectCycles(hold, classes)) {
			if tr, ok := h.featureRule(rc, hold, cyc, maskOf[cyc]); ok {
				out = append(out, CyclicRule{TemporalRule: tr, Cycle: cyc})
			}
		}
		return out
	})
}

// Compare orders Task II cycle results canonically, by identity: by
// rule, then by cycle length and offset.
func (r CyclicRule) Compare(o CyclicRule) int {
	if c := r.Rule.Compare(o.Rule); c != 0 {
		return c
	}
	if c := cmp.Compare(r.Cycle.Length, o.Cycle.Length); c != 0 {
		return c
	}
	return cmp.Compare(r.Cycle.Offset, o.Cycle.Offset)
}

// cycleClass is one candidate cycle (ℓ, o) over a span: the mask of its
// active occurrence granules and the least number of them a hold
// sequence must cover to obey it. A cycle is a fixed residue class of
// the granule axis, so its mask depends on the span and the activity
// vector only — never on the rule.
type cycleClass struct {
	cycle timegran.Cycle // offset absolute: relative to granule 0, not the span start
	mask  []uint64
	need  int // minHits(minFreq, active occurrences)
}

// cycleClasses builds the classes of every cycle of length ℓ ≤ maxLen
// with at least minReps active occurrences among the n granules from
// spanLo on, ascending in need. It is built once per operator call —
// at most maxLen(maxLen+1)/2 masks of ⌈n/64⌉ words, 496 × 6 for a year
// of days at the default length 31, tens of microseconds — and not
// kept: a cached copy would have to be invalidated with the table's
// span and activity on every maintain.
func cycleClasses(active []uint64, n int, spanLo int64, maxLen, minReps int, minFreq float64) []cycleClass {
	words := len(active)
	var classes []cycleClass
	for l := 1; l <= maxLen; l++ {
		masks := make([]uint64, min(l, n)*words) // one length's masks, a row per offset
		for o := 0; o < l && o < n; o++ {
			mask := masks[o*words : (o+1)*words]
			occ := 0
			for gi := o; gi < n; gi += l {
				if bitAt(active, gi) {
					setBit(mask, gi)
					occ++
				}
			}
			if occ < minReps {
				continue
			}
			absOff := (spanLo + int64(o)) % int64(l)
			if absOff < 0 {
				absOff += int64(l)
			}
			classes = append(classes, cycleClass{
				cycle: timegran.Cycle{Length: int64(l), Offset: absOff},
				mask:  mask,
				need:  minHits(minFreq, occ),
			})
		}
	}
	slices.SortStableFunc(classes, func(a, b cycleClass) int { return cmp.Compare(a.need, b.need) })
	return classes
}

// detectCycles returns the cycles of classes that the hold sequence
// obeys: those whose active occurrences it covers in at least the
// class's need. Classes ascend in need, so the scan stops at the first
// one the whole sequence has too few bits for.
func detectCycles(hold []uint64, classes []cycleClass) []timegran.Cycle {
	var out []timegran.Cycle
	nHold := popcount(hold)
	for _, c := range classes {
		if nHold < c.need {
			break
		}
		if apriori.AndCount(hold, c.mask) >= c.need {
			out = append(out, c.cycle)
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

// valueClass is one observed value of a calendar field: the mask of
// the active granules carrying it and the hits a hold sequence needs
// there — unreachable (math.MaxInt) under minReps occurrences.
type valueClass struct {
	value int
	mask  []uint64
	need  int
}

// calendarClasses builds, per field, one class per value observed in an
// active granule of h, values ascending within a field.
func (h *HoldTable) calendarClasses(fields []timegran.CalField, minReps int) [][]valueClass {
	n, words := h.NGranules(), len(h.Active)
	classes := make([][]valueClass, len(fields))
	for fi, f := range fields {
		lo, hi := timegran.FieldDomain(f)
		masks := make([]uint64, (hi-lo+1)*words)
		for gi := 0; gi < n; gi++ {
			if bitAt(h.Active, gi) {
				v := timegran.FieldValueAt(f, h.Cfg.Granularity, h.Span.Lo+int64(gi)) - lo
				setBit(masks[v*words:(v+1)*words], gi)
			}
		}
		for v := 0; v <= hi-lo; v++ {
			mask := masks[v*words : (v+1)*words]
			occ := popcount(mask)
			if occ == 0 {
				continue
			}
			need := math.MaxInt
			if occ >= minReps {
				need = minHits(h.Cfg.MinFreq, occ)
			}
			classes[fi] = append(classes[fi], valueClass{value: v + lo, mask: mask, need: need})
		}
	}
	return classes
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

	classes := h.calendarClasses(fields, ccfg.MinReps)
	inClass := make([]uint64, len(h.Active)) // the qualifying values' granules, per candidate and field
	return emitRules(ctx, h, obs.TaskCalendars, calendarsFloor(classes, h.NActive), nil, CalendarRule.Compare, func(out []CalendarRule, rc RuleCandidate, hold []uint64) []CalendarRule {
		nHold := popcount(hold)
		for fi, f := range fields {
			var ranges []timegran.FieldRange
			qualifying := 0
			clear(inClass)
			for _, c := range classes[fi] {
				if nHold < c.need || apriori.AndCount(hold, c.mask) < c.need {
					continue
				}
				qualifying++
				apriori.OrInto(inClass, c.mask)
				if last := len(ranges) - 1; last >= 0 && ranges[last].Hi == c.value-1 {
					ranges[last].Hi = c.value
				} else {
					ranges = append(ranges, timegran.FieldRange{Lo: c.value, Hi: c.value})
				}
			}
			if qualifying == 0 || qualifying == len(classes[fi]) {
				continue // uninformative: never or always
			}
			cal, err := timegran.NewCalendar(f, ranges...)
			if err != nil {
				continue
			}
			if tr, ok := h.featureRule(rc, hold, cal, inClass); ok {
				out = append(out, CalendarRule{TemporalRule: tr, Field: f})
			}
		}
		return out
	})
}

// Compare orders Task II calendar results canonically, by identity: by
// rule, then by calendar field and the feature's textual form.
func (r CalendarRule) Compare(o CalendarRule) int {
	if c := r.Rule.Compare(o.Rule); c != 0 {
		return c
	}
	if c := cmp.Compare(r.Field, o.Field); c != 0 {
		return c
	}
	return strings.Compare(r.Feature.String(), o.Feature.String())
}
