package timegran

import (
	"testing"
	"time"
)

func ts(s string) time.Time {
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		panic(err)
	}
	return t.UTC()
}

// TestClosedThroughBoundaries pins the half-open granule convention at
// the close boundary: a stream clock exactly on End(n, g) closes n, one
// nanosecond earlier leaves n open.
func TestClosedThroughBoundaries(t *testing.T) {
	cases := []struct {
		name  string
		g     Granularity
		clock time.Time
		want  Granule
	}{
		// A granule ending exactly on the clock tick: clock == End(n)
		// closes n. 2024-01-02T00:00:00Z is End of day 2024-01-01.
		{"day/exact-end-closes", Day, ts("2024-01-02T00:00:00Z"), GranuleOf(ts("2024-01-01T00:00:00Z"), Day)},
		// One nanosecond before the boundary the granule is still open.
		{"day/just-before-end-open", Day, ts("2024-01-02T00:00:00Z").Add(-time.Nanosecond), GranuleOf(ts("2024-01-01T00:00:00Z"), Day) - 1},
		// One nanosecond after: still just n closed (n+1 barely started).
		{"day/just-after-end", Day, ts("2024-01-02T00:00:00Z").Add(time.Nanosecond), GranuleOf(ts("2024-01-01T00:00:00Z"), Day)},
		// Mid-granule clock: previous granule closed.
		{"day/mid-granule", Day, ts("2024-01-02T13:45:00Z"), GranuleOf(ts("2024-01-01T00:00:00Z"), Day)},
		// Hour granularity at an exact hour boundary.
		{"hour/exact-end-closes", Hour, ts("2024-03-10T15:00:00Z"), GranuleOf(ts("2024-03-10T14:00:00Z"), Hour)},
		// Week boundary: weeks start Monday; 2024-06-03 is a Monday, so
		// that instant closes the week of 2024-05-27.
		{"week/monday-boundary", Week, ts("2024-06-03T00:00:00Z"), GranuleOf(ts("2024-05-27T12:00:00Z"), Week)},
		// Month with uneven lengths: Feb 2024 has 29 days (leap year);
		// clock on Mar 1 closes February.
		{"month/leap-feb-closes", Month, ts("2024-03-01T00:00:00Z"), GranuleOf(ts("2024-02-15T00:00:00Z"), Month)},
		// Feb 29 of a leap year leaves February open.
		{"month/leap-feb-open", Month, ts("2024-02-29T23:59:59Z"), GranuleOf(ts("2024-01-31T00:00:00Z"), Month)},
		// Non-leap February closes on Mar 1 despite 28 days.
		{"month/nonleap-feb-closes", Month, ts("2023-03-01T00:00:00Z"), GranuleOf(ts("2023-02-01T00:00:00Z"), Month)},
		// 31-day month still open on its last day.
		{"month/31-day-open", Month, ts("2024-01-31T23:00:00Z"), GranuleOf(ts("2023-12-01T00:00:00Z"), Month)},
		// Year granularity: leap year 2024 closes at 2025-01-01 exactly.
		{"year/leap-year-closes", Year, ts("2025-01-01T00:00:00Z"), GranuleOf(ts("2024-06-01T00:00:00Z"), Year)},
		{"year/leap-year-open", Year, ts("2024-12-31T23:59:59Z"), GranuleOf(ts("2023-06-01T00:00:00Z"), Year)},
		// Quarter with uneven month lengths: Q1 (Jan..Mar) closes Apr 1.
		{"quarter/q1-closes", Quarter, ts("2024-04-01T00:00:00Z"), GranuleOf(ts("2024-02-01T00:00:00Z"), Quarter)},
		// Pre-epoch clocks: granule indices are negative but the
		// boundary convention is unchanged.
		{"day/pre-epoch", Day, ts("1969-12-31T00:00:00Z"), GranuleOf(ts("1969-12-30T00:00:00Z"), Day)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := ClosedThrough(tc.clock, tc.g)
			if got != tc.want {
				t.Fatalf("ClosedThrough(%v, %v) = %d, want %d", tc.clock, tc.g, got, tc.want)
			}
		})
	}
}

// TestClosedThroughConsistency cross-checks the arithmetic against the
// definitional predicate clock >= End(n, g) over a window of granules
// around varied clocks, for every granularity.
func TestClosedThroughConsistency(t *testing.T) {
	clocks := []time.Time{
		ts("2024-02-29T12:34:56Z"),
		ts("2024-03-01T00:00:00Z"),
		ts("2023-12-31T23:59:59Z"),
		ts("1970-01-01T00:00:00Z"),
		ts("1969-07-20T20:17:40Z"),
	}
	for g := Second; g <= Year; g++ {
		for _, clock := range clocks {
			ct := ClosedThrough(clock, g)
			for n := ct - 2; n <= ct+2; n++ {
				defClosed := !clock.Before(End(n, g))
				if got := n <= ct; got != defClosed {
					t.Fatalf("g=%v clock=%v granule=%d: n <= ClosedThrough is %v, definition says %v", g, clock, n, got, defClosed)
				}
			}
			// The end of the open granule is the first instant that
			// closes another one.
			nc := End(GranuleOf(clock, g), g)
			if ClosedThrough(nc, g) != ct+1 {
				t.Fatalf("g=%v clock=%v: open granule ends %v, which closes through %d, want %d", g, clock, nc, ClosedThrough(nc, g), ct+1)
			}
			if ClosedThrough(nc.Add(-time.Second), g) > ct {
				t.Fatalf("g=%v clock=%v: instant before the open granule's end already closed a new granule", g, clock)
			}
		}
	}
}
