package itemset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewSortsAndDedups(t *testing.T) {
	cases := []struct {
		in   []Item
		want Set
	}{
		{nil, nil},
		{[]Item{3}, Set{3}},
		{[]Item{3, 1, 2}, Set{1, 2, 3}},
		{[]Item{5, 5, 5}, Set{5}},
		{[]Item{9, 1, 9, 1, 4}, Set{1, 4, 9}},
	}
	for _, c := range cases {
		got := New(c.in...)
		if !got.Equal(c.want) {
			t.Errorf("New(%v) = %v, want %v", c.in, got, c.want)
		}
		if !got.Valid() {
			t.Errorf("New(%v) produced invalid set %v", c.in, got)
		}
	}
}

func TestContains(t *testing.T) {
	s := New(2, 4, 6, 8)
	for _, x := range []Item{2, 4, 6, 8} {
		if !s.Contains(x) {
			t.Errorf("Contains(%d) = false, want true", x)
		}
	}
	for _, x := range []Item{0, 1, 3, 5, 7, 9} {
		if s.Contains(x) {
			t.Errorf("Contains(%d) = true, want false", x)
		}
	}
	if Set(nil).Contains(1) {
		t.Error("empty set contains 1")
	}
}

func TestContainsAll(t *testing.T) {
	s := New(1, 3, 5, 7, 9)
	if !s.ContainsAll(nil) {
		t.Error("every set contains the empty set")
	}
	if !s.ContainsAll(New(3, 9)) {
		t.Error("ContainsAll({3,9}) = false")
	}
	if s.ContainsAll(New(3, 4)) {
		t.Error("ContainsAll({3,4}) = true")
	}
	if s.ContainsAll(New(1, 3, 5, 7, 9, 11)) {
		t.Error("subset longer than set accepted")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := New(1, 2, 3, 4)
	b := New(3, 4, 5, 6)
	if got, want := a.Union(b), New(1, 2, 3, 4, 5, 6); !got.Equal(want) {
		t.Errorf("Union = %v, want %v", got, want)
	}
	if got, want := a.Intersect(b), New(3, 4); !got.Equal(want) {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if got, want := a.Without(b), New(1, 2); !got.Equal(want) {
		t.Errorf("Without = %v, want %v", got, want)
	}
	if got, want := a.WithoutItem(2), New(1, 3, 4); !got.Equal(want) {
		t.Errorf("WithoutItem(2) = %v, want %v", got, want)
	}
	if got := a.WithoutItem(99); !got.Equal(a) {
		t.Errorf("WithoutItem(absent) = %v, want %v", got, a)
	}
}

func TestCompareOrdersByLengthThenLex(t *testing.T) {
	ordered := []Set{nil, New(1), New(2), New(1, 2), New(1, 3), New(2, 3), New(1, 2, 3)}
	for i := range ordered {
		for j := range ordered {
			got := ordered[i].Compare(ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestJoinPrefix(t *testing.T) {
	s, ok := New(1, 2, 3).JoinPrefix(New(1, 2, 5))
	if !ok || !s.Equal(New(1, 2, 3, 5)) {
		t.Errorf("JoinPrefix = %v,%v; want {1,2,3,5},true", s, ok)
	}
	if _, ok := New(1, 2, 5).JoinPrefix(New(1, 2, 3)); ok {
		t.Error("JoinPrefix accepted reversed order")
	}
	if _, ok := New(1, 2, 3).JoinPrefix(New(1, 4, 5)); ok {
		t.Error("JoinPrefix accepted mismatched prefix")
	}
	if _, ok := New(1).JoinPrefix(New(2)); !ok {
		t.Error("JoinPrefix rejected valid 1-itemset join")
	}
	if _, ok := Set(nil).JoinPrefix(nil); ok {
		t.Error("JoinPrefix accepted empty sets")
	}
}

func TestEachSubsetK1(t *testing.T) {
	s := New(1, 2, 3)
	var subs []Set
	s.EachSubsetK1(func(sub Set) bool {
		subs = append(subs, sub.Clone())
		return true
	})
	want := []Set{New(2, 3), New(1, 3), New(1, 2)}
	if !reflect.DeepEqual(subs, want) {
		t.Errorf("EachSubsetK1 = %v, want %v", subs, want)
	}

	// Early stop after the first subset.
	n := 0
	s.EachSubsetK1(func(Set) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d subsets, want 1", n)
	}
}

func TestString(t *testing.T) {
	if got := New(3, 1).String(); got != "{1, 3}" {
		t.Errorf("String = %q, want %q", got, "{1, 3}")
	}
	if got := Set(nil).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

func TestSortSets(t *testing.T) {
	sets := []Set{New(2, 3), New(1), New(1, 2, 3), New(1, 2), nil}
	SortSets(sets)
	want := []Set{nil, New(1), New(1, 2), New(1, 3).Without(New(3)).Union(New(2)), New(1, 2, 3)}
	// want[3] is just {1,2} ∪ {2} = {1,2}; rebuild expectation simply:
	want = []Set{nil, New(1), New(1, 2), New(2, 3), New(1, 2, 3)}
	for i := range sets {
		if !sets[i].Equal(want[i]) {
			t.Fatalf("SortSets[%d] = %v, want %v", i, sets[i], want[i])
		}
	}
}

// randomSet produces small random sets for property tests.
func randomSet(r *rand.Rand, maxLen, universe int) Set {
	n := r.Intn(maxLen + 1)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item(r.Intn(universe))
	}
	return New(items...)
}

func TestQuickUnionIntersectLaws(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(randomSet(r, 12, 30))
			vals[1] = reflect.ValueOf(randomSet(r, 12, 30))
		},
	}
	law := func(a, b Set) bool {
		u := a.Union(b)
		i := a.Intersect(b)
		if !u.Valid() || !i.Valid() {
			return false
		}
		// |A ∪ B| + |A ∩ B| = |A| + |B|
		if u.Len()+i.Len() != a.Len()+b.Len() {
			return false
		}
		// Commutativity and containment.
		if !u.Equal(b.Union(a)) || !i.Equal(b.Intersect(a)) {
			return false
		}
		if !u.ContainsAll(a) || !u.ContainsAll(b) {
			return false
		}
		return a.ContainsAll(i) && b.ContainsAll(i)
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickWithoutPartition(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(randomSet(r, 12, 30))
			vals[1] = reflect.ValueOf(randomSet(r, 12, 30))
		},
	}
	law := func(a, b Set) bool {
		// (A \ B) ∪ (A ∩ B) == A, and the two parts are disjoint.
		diff := a.Without(b)
		inter := a.Intersect(b)
		if diff.Intersect(inter).Len() != 0 {
			return false
		}
		return diff.Union(inter).Equal(a)
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickKeyInjective(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(randomSet(r, 10, 40))
			vals[1] = reflect.ValueOf(randomSet(r, 10, 40))
		},
	}
	law := func(a, b Set) bool {
		return (a.Key() == b.Key()) == a.Equal(b)
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickJoinPrefixProducesValidCandidate(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 500,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			// Build two sets sharing a k-1 prefix half of the time.
			base := randomSet(r, 6, 20)
			vals[0] = reflect.ValueOf(base)
			if len(base) > 0 && r.Intn(2) == 0 {
				alt := base.Clone()
				alt[len(alt)-1] = alt[len(alt)-1] + Item(1+r.Intn(5))
				vals[1] = reflect.ValueOf(alt)
			} else {
				vals[1] = reflect.ValueOf(randomSet(r, 6, 20))
			}
		},
	}
	law := func(a, b Set) bool {
		c, ok := a.JoinPrefix(b)
		if !ok {
			return true
		}
		return c.Valid() && c.Len() == a.Len()+1 && c.ContainsAll(a) && c.ContainsAll(b)
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Error(err)
	}
}

func TestDict(t *testing.T) {
	d := NewDict()
	bread := d.Intern("bread")
	milk := d.Intern("milk")
	if again := d.Intern("bread"); again != bread {
		t.Errorf("re-interning changed id: %d vs %d", again, bread)
	}
	if bread == milk {
		t.Error("distinct names share an id")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
	if id, ok := d.Lookup("milk"); !ok || id != milk {
		t.Errorf("Lookup(milk) = %d,%v", id, ok)
	}
	if _, ok := d.Lookup("butter"); ok {
		t.Error("Lookup found an uninterned name")
	}
	if n := d.MustName(bread); n != "bread" {
		t.Errorf("MustName = %q", n)
	}
	if _, err := d.Name(Item(99)); err == nil {
		t.Error("Name accepted an unknown id")
	}
	var none *Dict
	for _, c := range []struct {
		d    *Dict
		id   Item
		want string
	}{{d, bread, "bread"}, {d, 99, "#99"}, {none, 7, "#7"}} {
		if got := c.d.Label(c.id); got != c.want {
			t.Errorf("Label(%d) = %q, want %q", c.id, got, c.want)
		}
	}
	s := d.InternAll("milk", "butter", "bread")
	if s.Len() != 3 {
		t.Errorf("InternAll produced %v", s)
	}
	if got := d.Names(s); got == "" || got[0] != '{' {
		t.Errorf("Names = %q", got)
	}
	names := d.SortedNames(true)
	if len(names) != 3 || names[0] != "bread" {
		t.Errorf("SortedNames(alpha) = %v", names)
	}
}

// TestInternBatchMatchesIntern checks InternBatch against interning the
// names one at a time: the same ids, the dictionary grown in the same
// order, and Canonical over the ids equal to New.
func TestInternBatchMatchesIntern(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	batch, one := NewDict(), NewDict()
	for _, d := range []*Dict{batch, one} {
		d.Intern("n3")
		d.Intern("n0")
	}
	for round := 0; round < 20; round++ {
		names := make([]string, rng.Intn(12))
		for i := range names {
			names[i] = string(rune('a'+rng.Intn(3))) + string(rune('0'+rng.Intn(10)))
		}
		got := make([]Item, len(names))
		batch.InternBatch(names, got)
		want := make([]Item, len(names))
		for i, n := range names {
			want[i] = one.Intern(n)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("InternBatch(%q) = %v, Intern gives %v", names, got, want)
		}
		if c, n := Canonical(got), New(want...); !c.Equal(n) || !c.Valid() {
			t.Fatalf("Canonical(%v) = %v, New gives %v", want, c, n)
		}
	}
	if got, want := batch.SortedNames(false), one.SortedNames(false); !reflect.DeepEqual(got, want) {
		t.Errorf("dictionary grew as %q, want %q", got, want)
	}
}

func TestDictConcurrent(t *testing.T) {
	d := NewDict()
	done := make(chan Item)
	for g := 0; g < 8; g++ {
		go func() {
			var last Item
			for i := 0; i < 200; i++ {
				last = d.Intern(string(rune('a' + i%26)))
			}
			done <- last
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if d.Len() != 26 {
		t.Errorf("concurrent interning produced %d ids, want 26", d.Len())
	}
}

func TestAppendKeyMatchesKey(t *testing.T) {
	sets := []Set{nil, New(0), New(7), New(1, 2, 3), New(1<<24+5, 1<<30)}
	var buf [64]byte
	for _, s := range sets {
		if got := string(s.AppendKey(buf[:0])); got != s.Key() {
			t.Errorf("AppendKey(%v) = %q, want %q", s, got, s.Key())
		}
	}
	// Appending extends dst rather than overwriting it.
	pre := []byte("x")
	out := New(1, 2).AppendKey(pre)
	if string(out[:1]) != "x" || string(out[1:]) != New(1, 2).Key() {
		t.Errorf("AppendKey did not extend dst: %q", out)
	}
	// Distinct sets produce distinct keys.
	if New(1, 2).Key() == New(1, 3).Key() {
		t.Error("distinct sets share a key")
	}
}
