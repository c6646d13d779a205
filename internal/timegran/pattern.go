package timegran

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Pattern is a temporal feature in the calendar algebra: a predicate
// over granules. Patterns express the TF part of a temporal association
// rule — periodicities ("every 7 days offset 5"), calendar classes
// ("month in (6..8)", "weekday in (sat,sun)") and absolute windows
// ("between 1998-01-01 and 1998-06-30") — and compose with and/or/not.
//
// Matches receives the base granularity so a single pattern value can
// be evaluated against axes of different granularities.
type Pattern interface {
	Matches(base Granularity, g Granule) bool
	String() string
}

// Granules materialises the granules of span matching p as an
// IntervalSet.
func Granules(p Pattern, base Granularity, span Interval) IntervalSet {
	return FromPredicate(span, func(g Granule) bool { return p.Matches(base, g) })
}

// ---------------------------------------------------------------------
// Cycle: arithmetic periodicity over the granule axis.

// Cycle matches granules g with g ≡ Offset (mod Length). It is the
// temporal feature produced by Task II's cyclic miner: "every Length
// granules, starting at phase Offset".
type Cycle struct {
	Length Granule // > 0
	Offset Granule // normalised into [0, Length)
}

// NewCycle normalises offset into [0, length).
func NewCycle(length, offset Granule) (Cycle, error) {
	if length <= 0 {
		return Cycle{}, fmt.Errorf("timegran: cycle length %d must be positive", length)
	}
	o := offset % length
	if o < 0 {
		o += length
	}
	return Cycle{Length: length, Offset: o}, nil
}

// Matches implements Pattern.
func (c Cycle) Matches(_ Granularity, g Granule) bool {
	m := g % c.Length
	if m < 0 {
		m += c.Length
	}
	return m == c.Offset
}

// String renders "every 7 offset 5".
func (c Cycle) String() string { return fmt.Sprintf("every %d offset %d", c.Length, c.Offset) }

// ---------------------------------------------------------------------
// Calendar: constraints on the calendar fields of a granule.

// CalField names a calendar component a Calendar pattern can constrain.
type CalField int

// The constrainable fields. Weekday uses 1=Monday … 7=Sunday (ISO),
// Month uses 1..12, MonthDay 1..31, Hour 0..23, Year is the full year.
const (
	FieldYear CalField = iota
	FieldMonth
	FieldWeekday
	FieldMonthDay
	FieldHour
)

var fieldNames = [...]string{"year", "month", "weekday", "day", "hour"}

// String returns the TML spelling of the field.
func (f CalField) String() string {
	if f < FieldYear || f > FieldHour {
		return fmt.Sprintf("CalField(%d)", int(f))
	}
	return fieldNames[f]
}

// Calendar matches granules whose start instant has Field value inside
// one of the allowed ranges. An empty Ranges list matches nothing.
type Calendar struct {
	Field  CalField
	Ranges []FieldRange
}

// FieldRange is an inclusive range of field values; a single value v is
// the range [v, v].
type FieldRange struct{ Lo, Hi int }

// NewCalendar validates the ranges against the field's domain.
func NewCalendar(field CalField, ranges ...FieldRange) (Calendar, error) {
	lo, hi := fieldDomain(field)
	if len(ranges) == 0 {
		return Calendar{}, fmt.Errorf("timegran: calendar pattern on %v needs at least one range", field)
	}
	for _, r := range ranges {
		if r.Lo > r.Hi {
			return Calendar{}, fmt.Errorf("timegran: %v range %d..%d reversed", field, r.Lo, r.Hi)
		}
		if r.Lo < lo || r.Hi > hi {
			return Calendar{}, fmt.Errorf("timegran: %v range %d..%d outside domain %d..%d", field, r.Lo, r.Hi, lo, hi)
		}
	}
	rs := make([]FieldRange, len(ranges))
	copy(rs, ranges)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Lo < rs[j].Lo })
	return Calendar{Field: field, Ranges: rs}, nil
}

func fieldDomain(f CalField) (lo, hi int) {
	switch f {
	case FieldYear:
		return 1, 9999
	case FieldMonth:
		return 1, 12
	case FieldWeekday:
		return 1, 7
	case FieldMonthDay:
		return 1, 31
	case FieldHour:
		return 0, 23
	default:
		return 0, -1
	}
}

// fieldValue extracts the field from an instant.
func fieldValue(f CalField, t time.Time) int {
	switch f {
	case FieldYear:
		return t.Year()
	case FieldMonth:
		return int(t.Month())
	case FieldWeekday:
		wd := int(t.Weekday()) // Sunday=0
		if wd == 0 {
			return 7
		}
		return wd
	case FieldMonthDay:
		return t.Day()
	case FieldHour:
		return t.Hour()
	default:
		panic(fmt.Sprintf("timegran: fieldValue on invalid field %d", int(f)))
	}
}

// FieldValueAt returns the calendar field value of granule g at base
// granularity, e.g. FieldValueAt(FieldWeekday, Day, g) is the ISO
// weekday (1=Monday) of day-granule g. The periodicity miner folds
// granules onto calendar classes with it.
func FieldValueAt(f CalField, base Granularity, g Granule) int {
	return fieldValue(f, Start(g, base))
}

// FieldDomain returns the inclusive value domain of a calendar field.
func FieldDomain(f CalField) (lo, hi int) { return fieldDomain(f) }

// Matches implements Pattern: the granule's start instant must fall in
// one of the ranges.
func (c Calendar) Matches(base Granularity, g Granule) bool {
	v := fieldValue(c.Field, Start(g, base))
	for _, r := range c.Ranges {
		if v >= r.Lo && v <= r.Hi {
			return true
		}
	}
	return false
}

// String renders "month in (6..8, 12)".
func (c Calendar) String() string {
	var parts []string
	for _, r := range c.Ranges {
		if r.Lo == r.Hi {
			parts = append(parts, fmt.Sprintf("%d", r.Lo))
		} else {
			parts = append(parts, fmt.Sprintf("%d..%d", r.Lo, r.Hi))
		}
	}
	return fmt.Sprintf("%v in (%s)", c.Field, strings.Join(parts, ", "))
}

// ---------------------------------------------------------------------
// Window: an absolute time range.

// Window matches granules whose start instant lies in [From, To).
type Window struct {
	From, To time.Time
}

// NewWindow validates the ordering.
func NewWindow(from, to time.Time) (Window, error) {
	if !from.Before(to) {
		return Window{}, fmt.Errorf("timegran: window %v..%v is empty or reversed", from, to)
	}
	return Window{From: from.UTC(), To: to.UTC()}, nil
}

// Matches implements Pattern.
func (w Window) Matches(base Granularity, g Granule) bool {
	s := Start(g, base)
	return !s.Before(w.From) && s.Before(w.To)
}

// String renders "between 1998-01-01 00:00 and 1998-06-30 00:00" in the
// syntax ParsePattern accepts, so patterns round-trip through text.
func (w Window) String() string {
	const layout = "2006-01-02 15:04"
	return fmt.Sprintf("between %s and %s", w.From.Format(layout), w.To.Format(layout))
}

// ---------------------------------------------------------------------
// Combinators.

// And matches when every child matches. An empty And matches always.
type And []Pattern

// Matches implements Pattern.
func (a And) Matches(base Granularity, g Granule) bool {
	for _, p := range a {
		if !p.Matches(base, g) {
			return false
		}
	}
	return true
}

// String renders "(p and q)".
func (a And) String() string { return combString(a, "and") }

// Or matches when any child matches. An empty Or matches never.
type Or []Pattern

// Matches implements Pattern.
func (o Or) Matches(base Granularity, g Granule) bool {
	for _, p := range o {
		if p.Matches(base, g) {
			return true
		}
	}
	return false
}

// String renders "(p or q)".
func (o Or) String() string { return combString(o, "or") }

// Not inverts a pattern.
type Not struct{ P Pattern }

// Matches implements Pattern.
func (n Not) Matches(base Granularity, g Granule) bool { return !n.P.Matches(base, g) }

// String renders "not (p)".
func (n Not) String() string { return "not (" + n.P.String() + ")" }

// Always matches every granule; it is the temporal feature of an
// ordinary, non-temporal rule.
type Always struct{}

// Matches implements Pattern.
func (Always) Matches(Granularity, Granule) bool { return true }

// String renders "always".
func (Always) String() string { return "always" }

func combString(ps []Pattern, op string) string {
	if len(ps) == 0 {
		if op == "and" {
			return "always"
		}
		return "never"
	}
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.String()
	}
	return "(" + strings.Join(parts, " "+op+" ") + ")"
}
