package timegran

import (
	"strings"
	"testing"
	"time"
)

func TestCycle(t *testing.T) {
	c, err := NewCycle(7, 9)
	if err != nil {
		t.Fatal(err)
	}
	if c.Offset != 2 {
		t.Errorf("offset not normalised: %d", c.Offset)
	}
	for g := int64(-20); g <= 20; g++ {
		want := ((g%7)+7)%7 == 2
		if got := c.Matches(Day, g); got != want {
			t.Errorf("cycle(7,2).Matches(%d) = %v", g, got)
		}
	}
	if _, err := NewCycle(0, 1); err == nil {
		t.Error("zero-length cycle accepted")
	}
	if c.String() != "every 7 offset 2" {
		t.Errorf("String = %q", c.String())
	}
}

func TestCalendarMonth(t *testing.T) {
	summer, err := NewCalendar(FieldMonth, FieldRange{6, 8})
	if err != nil {
		t.Fatal(err)
	}
	jun := GranuleOf(date(2024, time.June, 15), Day)
	dec := GranuleOf(date(2024, time.December, 15), Day)
	if !summer.Matches(Day, jun) {
		t.Error("June day not matched by month in (6..8)")
	}
	if summer.Matches(Day, dec) {
		t.Error("December day matched by month in (6..8)")
	}
	// Month granularity works too.
	if !summer.Matches(Month, GranuleOf(date(2024, time.July, 1), Month)) {
		t.Error("July month granule not matched")
	}
}

func TestCalendarWeekday(t *testing.T) {
	weekend, err := NewCalendar(FieldWeekday, FieldRange{6, 7})
	if err != nil {
		t.Fatal(err)
	}
	sat := GranuleOf(date(2024, time.June, 1), Day) // a Saturday
	mon := GranuleOf(date(2024, time.June, 3), Day)
	sun := GranuleOf(date(2024, time.June, 2), Day)
	if !weekend.Matches(Day, sat) || !weekend.Matches(Day, sun) {
		t.Error("weekend days not matched")
	}
	if weekend.Matches(Day, mon) {
		t.Error("Monday matched as weekend")
	}
}

func TestCalendarHourAndDomainChecks(t *testing.T) {
	evening, err := NewCalendar(FieldHour, FieldRange{18, 20})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2024, time.June, 1, 19, 0, 0, 0, time.UTC)
	if !evening.Matches(Hour, GranuleOf(at, Hour)) {
		t.Error("19:00 hour granule not matched by hour in (18..20)")
	}
	if evening.Matches(Hour, GranuleOf(at.Add(3*time.Hour), Hour)) {
		t.Error("22:00 matched")
	}
	if _, err := NewCalendar(FieldMonth, FieldRange{0, 3}); err == nil {
		t.Error("month 0 accepted")
	}
	if _, err := NewCalendar(FieldMonth, FieldRange{5, 3}); err == nil {
		t.Error("reversed range accepted")
	}
	if _, err := NewCalendar(FieldMonth); err == nil {
		t.Error("empty range list accepted")
	}
}

func TestWindow(t *testing.T) {
	w, err := NewWindow(date(1998, time.January, 1), date(1998, time.February, 1))
	if err != nil {
		t.Fatal(err)
	}
	in := GranuleOf(date(1998, time.January, 15), Day)
	boundary := GranuleOf(date(1998, time.February, 1), Day)
	if !w.Matches(Day, in) {
		t.Error("mid-January not matched")
	}
	if w.Matches(Day, boundary) {
		t.Error("exclusive upper bound matched")
	}
	if _, err := NewWindow(date(1998, time.February, 1), date(1998, time.January, 1)); err == nil {
		t.Error("reversed window accepted")
	}
}

func TestCombinators(t *testing.T) {
	summer, _ := NewCalendar(FieldMonth, FieldRange{6, 8})
	weekend, _ := NewCalendar(FieldWeekday, FieldRange{6, 7})
	jul6 := GranuleOf(date(2024, time.July, 6), Day) // Saturday in July
	jul8 := GranuleOf(date(2024, time.July, 8), Day) // Monday in July
	jan6 := GranuleOf(date(2024, time.January, 6), Day)

	and := And{summer, weekend}
	if !and.Matches(Day, jul6) || and.Matches(Day, jul8) || and.Matches(Day, jan6) {
		t.Error("And semantics wrong")
	}
	or := Or{summer, weekend}
	if !or.Matches(Day, jul8) || !or.Matches(Day, jan6) || or.Matches(Day, GranuleOf(date(2024, time.January, 8), Day)) {
		t.Error("Or semantics wrong")
	}
	not := Not{P: summer}
	if not.Matches(Day, jul6) || !not.Matches(Day, jan6) {
		t.Error("Not semantics wrong")
	}
	if !(Always{}).Matches(Day, 123456) {
		t.Error("Always does not match")
	}
	if (And{}).Matches(Day, 0) != true || (Or{}).Matches(Day, 0) != false {
		t.Error("empty combinator identities wrong")
	}
}

func TestGranulesAndCoverage(t *testing.T) {
	c, _ := NewCycle(3, 1)
	span := iv(0, 8)
	got := Granules(c, Day, span)
	if want := int64(3); got.Count() != want { // granules 1, 4, 7
		t.Errorf("Granules count = %d, want %d", got.Count(), want)
	}
	for g := span.Lo; g <= span.Hi; g++ {
		if got.Contains(g) != (g%3 == 1) {
			t.Errorf("Granules covers %d = %v", g, got.Contains(g))
		}
	}
}

func TestParsePattern(t *testing.T) {
	cases := []struct {
		in      string
		matches Granule // a Day granule that must match
		misses  Granule
	}{
		{"month in (jun..aug)", GranuleOf(date(2024, time.July, 1), Day), GranuleOf(date(2024, time.March, 1), Day)},
		{"month in (6..8)", GranuleOf(date(2024, time.July, 1), Day), GranuleOf(date(2024, time.March, 1), Day)},
		{"weekday in (sat, sun)", GranuleOf(date(2024, time.June, 1), Day), GranuleOf(date(2024, time.June, 3), Day)},
		{"every 7 offset 0", 0, 1},
		{"every 7", 7, 8},
		{"between 1998-01-01 and 1998-02-01", GranuleOf(date(1998, time.January, 10), Day), GranuleOf(date(1998, time.March, 1), Day)},
		{"between 1998-01-01 09:00 and 1998-01-01 12:00", GranuleOf(time.Date(1998, 1, 1, 10, 0, 0, 0, time.UTC), Day) /* day starts 00:00 so this misses */, GranuleOf(date(1999, time.January, 1), Day)},
		{"month in (12) or month in (1..2)", GranuleOf(date(2024, time.January, 5), Day), GranuleOf(date(2024, time.May, 5), Day)},
		{"not (month in (6..8))", GranuleOf(date(2024, time.March, 1), Day), GranuleOf(date(2024, time.July, 1), Day)},
		{"month in (jun..aug) and weekday in (sat,sun)", GranuleOf(date(2024, time.July, 6), Day), GranuleOf(date(2024, time.July, 8), Day)},
	}
	for _, c := range cases {
		p, err := ParsePattern(c.in)
		if err != nil {
			t.Errorf("ParsePattern(%q): %v", c.in, err)
			continue
		}
		if c.in == "between 1998-01-01 09:00 and 1998-01-01 12:00" {
			// Day granules start at midnight, outside the window; the
			// window is meaningful at Hour granularity instead.
			h := GranuleOf(time.Date(1998, 1, 1, 10, 0, 0, 0, time.UTC), Hour)
			if !p.Matches(Hour, h) {
				t.Errorf("%q: hour granule not matched", c.in)
			}
			continue
		}
		if !p.Matches(Day, c.matches) {
			t.Errorf("%q does not match granule %d", c.in, c.matches)
		}
		if p.Matches(Day, c.misses) {
			t.Errorf("%q matches granule %d", c.in, c.misses)
		}
	}
}

func TestParsePatternAlwaysNotMiss(t *testing.T) {
	p, err := ParsePattern("always")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Matches(Day, -1<<60) {
		t.Error("always failed to match")
	}
}

func TestParsePatternErrors(t *testing.T) {
	bad := []string{
		"",
		"month in ()",
		"month in (13)",
		"month in (jun",
		"weekday in (noday)",
		"every x",
		"every 7 offset x",
		"between 1998-01-01",
		"between 1998-01-01 and nonsense",
		"month in (6..8) extra",
		"month (6..8)",
		"(month in (6..8)",
		"and",
		"not",
		"month in (6..8) and",
		"every 0",
		"hour in (25)",
		"fortnight in (1)",
		"between 1998-02-01 and 1998-01-01",
		"month in (aug..jun)",
		"...",
		"month in (6§8)",
	}
	for _, in := range bad {
		if p, err := ParsePattern(in); err == nil {
			t.Errorf("ParsePattern(%q) accepted: %v", in, p)
		}
	}
}

func TestParsePatternStringRoundTrip(t *testing.T) {
	inputs := []string{
		"month in (jun..aug)",
		"weekday in (sat, sun) and hour in (18..20)",
		"every 7 offset 5",
		"between 1998-01-01 and 1998-07-01",
		"not (month in (6..8)) or every 2 offset 1",
		"always",
	}
	span := iv(9000, 11000) // mid-1994 through mid-2000 in days
	for _, in := range inputs {
		p1, err := ParsePattern(in)
		if err != nil {
			t.Fatalf("ParsePattern(%q): %v", in, err)
		}
		p2, err := ParsePattern(p1.String())
		if err != nil {
			t.Fatalf("reparse of %q (printed %q): %v", in, p1.String(), err)
		}
		for g := span.Lo; g <= span.Hi; g++ {
			if p1.Matches(Day, g) != p2.Matches(Day, g) {
				t.Fatalf("%q and its reparse disagree at granule %d", in, g)
			}
		}
	}
}

func TestPatternStrings(t *testing.T) {
	summer, _ := NewCalendar(FieldMonth, FieldRange{6, 8}, FieldRange{12, 12})
	if got := summer.String(); got != "month in (6..8, 12)" {
		t.Errorf("Calendar String = %q", got)
	}
	w, _ := NewWindow(date(1998, time.January, 1), date(1998, time.July, 1))
	if !strings.HasPrefix(w.String(), "between 1998-01-01") {
		t.Errorf("Window String = %q", w.String())
	}
	if got := (And{summer, Always{}}).String(); !strings.Contains(got, " and ") {
		t.Errorf("And String = %q", got)
	}
	if got := (Or{}).String(); got != "never" {
		t.Errorf("empty Or String = %q", got)
	}
	if got := (And{}).String(); got != "always" {
		t.Errorf("empty And String = %q", got)
	}
}
