package timegran

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func iv(lo, hi Granule) Interval { return Interval{Lo: lo, Hi: hi} }

func TestIntervalBasics(t *testing.T) {
	a := iv(2, 5)
	if a.Len() != 4 {
		t.Errorf("Len = %d", a.Len())
	}
	if !a.Contains(2) || !a.Contains(5) || a.Contains(1) || a.Contains(6) {
		t.Error("Contains boundary behaviour wrong")
	}
	if common, ok := a.Intersect(iv(4, 9)); !ok || common != iv(4, 5) {
		t.Errorf("Intersect = %v, %v", common, ok)
	}
	if _, ok := a.Intersect(iv(6, 9)); ok {
		t.Error("disjoint intervals intersected")
	}
	if a.String() != "[2,5]" {
		t.Errorf("String = %q", a.String())
	}
}

func TestIntervalSetAddNormalises(t *testing.T) {
	s := NewIntervalSet(iv(1, 3), iv(7, 9), iv(4, 4))
	// [1,3] and [4,4] are adjacent and must merge.
	want := []Interval{iv(1, 4), iv(7, 9)}
	if !reflect.DeepEqual(s.Intervals(), want) {
		t.Errorf("Intervals = %v, want %v", s.Intervals(), want)
	}
	if s.Count() != 7 {
		t.Errorf("Count = %d, want 7", s.Count())
	}
	s = s.Add(iv(3, 8))
	if got := s.Intervals(); len(got) != 1 || got[0] != iv(1, 9) {
		t.Errorf("bridge add produced %v", got)
	}
	// Adding an inverted interval is a no-op.
	if got := s.Add(Interval{Lo: 5, Hi: 4}); got.Count() != s.Count() {
		t.Error("inverted interval changed the set")
	}
}

func TestIntervalSetContains(t *testing.T) {
	s := NewIntervalSet(iv(1, 3), iv(7, 9))
	for _, g := range []Granule{1, 2, 3, 7, 9} {
		if !s.Contains(g) {
			t.Errorf("Contains(%d) = false", g)
		}
	}
	for _, g := range []Granule{0, 4, 6, 10} {
		if s.Contains(g) {
			t.Errorf("Contains(%d) = true", g)
		}
	}
	if (IntervalSet{}).Contains(0) {
		t.Error("empty set contains 0")
	}
}

func TestIntervalSetOps(t *testing.T) {
	a := NewIntervalSet(iv(1, 5), iv(10, 15))
	b := NewIntervalSet(iv(4, 11), iv(14, 20))
	inter := a.Intersect(b)
	if want := []Interval{iv(4, 5), iv(10, 11), iv(14, 15)}; !reflect.DeepEqual(inter.Intervals(), want) {
		t.Errorf("Intersect = %v, want %v", inter.Intervals(), want)
	}
	uni := a.Union(b)
	if want := []Interval{iv(1, 20)}; !reflect.DeepEqual(uni.Intervals(), want) {
		t.Errorf("Union = %v, want %v", uni.Intervals(), want)
	}
}

func TestIntervalSetEach(t *testing.T) {
	s := NewIntervalSet(iv(1, 2), iv(5, 5))
	var got []Granule
	s.Each(func(g Granule) bool { got = append(got, g); return true })
	if want := []Granule{1, 2, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("Each visited %v, want %v", got, want)
	}
	n := 0
	s.Each(func(Granule) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestFromPredicate(t *testing.T) {
	s := FromPredicate(iv(0, 10), func(g Granule) bool { return g%3 == 0 })
	if want := []Interval{iv(0, 0), iv(3, 3), iv(6, 6), iv(9, 9)}; !reflect.DeepEqual(s.Intervals(), want) {
		t.Errorf("FromPredicate = %v, want %v", s.Intervals(), want)
	}
	all := FromPredicate(iv(2, 6), func(Granule) bool { return true })
	if want := []Interval{iv(2, 6)}; !reflect.DeepEqual(all.Intervals(), want) {
		t.Errorf("all-true = %v", all.Intervals())
	}
	none := FromPredicate(iv(2, 6), func(Granule) bool { return false })
	if len(none.Intervals()) != 0 {
		t.Errorf("all-false = %v", none.Intervals())
	}
}

// randomIntervalSet builds a membership bitmap alongside the set so
// laws can be checked against the reference.
func randomIntervalSet(r *rand.Rand, span int) (IntervalSet, []bool) {
	ref := make([]bool, span)
	s := IntervalSet{}
	for k := 0; k < 1+r.Intn(5); k++ {
		lo := r.Intn(span)
		hi := lo + r.Intn(span-lo)
		s = s.Add(iv(int64(lo), int64(hi)))
		for g := lo; g <= hi; g++ {
			ref[g] = true
		}
	}
	return s, ref
}

func TestQuickIntervalSetLaws(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(r.Int63())
		},
	}
	const span = 60
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, refA := randomIntervalSet(r, span)
		b, refB := randomIntervalSet(r, span)
		uni, inter := a.Union(b), a.Intersect(b)
		// Normalisation invariants.
		for _, s := range []IntervalSet{a, b, uni, inter} {
			ivs := s.Intervals()
			for i := range ivs {
				if ivs[i].Lo > ivs[i].Hi {
					return false
				}
				if i > 0 && ivs[i].Lo <= ivs[i-1].Hi+1 {
					return false // overlapping or adjacent: not normalised
				}
			}
		}
		// Pointwise agreement with the reference bitmap.
		for g := 0; g < span; g++ {
			gg := int64(g)
			if a.Contains(gg) != refA[g] || b.Contains(gg) != refB[g] {
				return false
			}
			if uni.Contains(gg) != (refA[g] || refB[g]) {
				return false
			}
			if inter.Contains(gg) != (refA[g] && refB[g]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Error(err)
	}
}
