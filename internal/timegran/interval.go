package timegran

import (
	"fmt"
	"sort"
	"strings"
)

// Interval is an inclusive range [Lo, Hi] of granule indices. The zero
// value is the single granule 0; callers keep Lo ≤ Hi.
type Interval struct {
	Lo, Hi Granule
}

// Len returns the number of granules covered.
func (iv Interval) Len() int64 { return iv.Hi - iv.Lo + 1 }

// Contains reports whether g lies inside the interval.
func (iv Interval) Contains(g Granule) bool { return g >= iv.Lo && g <= iv.Hi }

// Intersect returns the common part and whether it is non-empty.
func (iv Interval) Intersect(o Interval) (Interval, bool) {
	lo, hi := iv.Lo, iv.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	if lo > hi {
		return Interval{}, false
	}
	return Interval{Lo: lo, Hi: hi}, true
}

// String renders "[lo,hi]".
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d]", iv.Lo, iv.Hi) }

// Format renders the interval using calendar labels at granularity g,
// e.g. "2024-06-01..2024-08-31".
func (iv Interval) Format(g Granularity) string {
	return FormatGranule(iv.Lo, g) + ".." + FormatGranule(iv.Hi, g)
}

// IntervalSet is a normalised set of granules: sorted, pairwise
// disjoint, non-adjacent intervals. The zero value is the empty set.
type IntervalSet struct {
	ivs []Interval
}

// NewIntervalSet builds a set from arbitrary intervals, normalising
// overlaps and adjacency.
func NewIntervalSet(ivs ...Interval) IntervalSet {
	var s IntervalSet
	for _, iv := range ivs {
		s = s.Add(iv)
	}
	return s
}

// Intervals returns the normalised intervals in ascending order. The
// slice is shared; callers must not modify it.
func (s IntervalSet) Intervals() []Interval { return s.ivs }

// Count returns the total number of granules covered.
func (s IntervalSet) Count() int64 {
	var n int64
	for _, iv := range s.ivs {
		n += iv.Len()
	}
	return n
}

// Contains reports whether g is covered, by binary search.
func (s IntervalSet) Contains(g Granule) bool {
	i := sort.Search(len(s.ivs), func(i int) bool { return s.ivs[i].Hi >= g })
	return i < len(s.ivs) && s.ivs[i].Lo <= g
}

// Add returns a new set that also covers iv.
func (s IntervalSet) Add(iv Interval) IntervalSet {
	if iv.Lo > iv.Hi {
		return s
	}
	out := make([]Interval, 0, len(s.ivs)+1)
	inserted := false
	for _, cur := range s.ivs {
		switch {
		case cur.Hi+1 < iv.Lo: // strictly before, not adjacent
			out = append(out, cur)
		case iv.Hi+1 < cur.Lo: // strictly after
			if !inserted {
				out = append(out, iv)
				inserted = true
			}
			out = append(out, cur)
		default: // overlap or adjacency: merge into iv
			if cur.Lo < iv.Lo {
				iv.Lo = cur.Lo
			}
			if cur.Hi > iv.Hi {
				iv.Hi = cur.Hi
			}
		}
	}
	if !inserted {
		out = append(out, iv)
	}
	return IntervalSet{ivs: out}
}

// Union returns s ∪ o.
func (s IntervalSet) Union(o IntervalSet) IntervalSet {
	out := s
	for _, iv := range o.ivs {
		out = out.Add(iv)
	}
	return out
}

// Intersect returns s ∩ o by merging the two sorted interval lists.
func (s IntervalSet) Intersect(o IntervalSet) IntervalSet {
	var out []Interval
	i, j := 0, 0
	for i < len(s.ivs) && j < len(o.ivs) {
		if common, ok := s.ivs[i].Intersect(o.ivs[j]); ok {
			out = append(out, common)
		}
		if s.ivs[i].Hi < o.ivs[j].Hi {
			i++
		} else {
			j++
		}
	}
	return IntervalSet{ivs: out}
}

// Each calls fn for every covered granule in ascending order, stopping
// early if fn returns false.
func (s IntervalSet) Each(fn func(g Granule) bool) {
	for _, iv := range s.ivs {
		for g := iv.Lo; g <= iv.Hi; g++ {
			if !fn(g) {
				return
			}
		}
	}
}

// String renders "{[1,3] [7,7]}".
func (s IntervalSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, iv := range s.ivs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(iv.String())
	}
	b.WriteByte('}')
	return b.String()
}

// FromPredicate collects the granules of span where pred holds.
func FromPredicate(span Interval, pred func(g Granule) bool) IntervalSet {
	var out []Interval
	inRun := false
	var runStart Granule
	for g := span.Lo; g <= span.Hi; g++ {
		if pred(g) {
			if !inRun {
				inRun = true
				runStart = g
			}
			continue
		}
		if inRun {
			out = append(out, Interval{Lo: runStart, Hi: g - 1})
			inRun = false
		}
	}
	if inRun {
		out = append(out, Interval{Lo: runStart, Hi: span.Hi})
	}
	return IntervalSet{ivs: out}
}
