// Package itemset provides the canonical itemset representation shared
// by every miner in the repository.
//
// An itemset is a strictly increasing slice of item identifiers. Keeping
// the representation sorted and duplicate-free makes subset tests,
// prefix joins (the heart of Apriori candidate generation) and map keys
// cheap, which is where association-rule miners spend almost all of
// their time.
package itemset

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Item identifies a single item. Identifiers are dense small integers
// assigned by a Dict; 32 bits is the conventional size used by the
// Quest benchmark generators and keeps per-candidate memory small.
type Item uint32

// Set is a sorted, duplicate-free slice of items. The zero value is the
// empty itemset and is ready to use. Sets are treated as immutable by
// every function in this package: operations return fresh slices and
// never alias their inputs unless documented otherwise.
type Set []Item

// New builds a Set from items in any order, dropping duplicates.
func New(items ...Item) Set {
	if len(items) == 0 {
		return nil
	}
	s := make(Set, len(items))
	copy(s, items)
	return Canonical(s)
}

// Canonical is New without the copy: it sorts items in place, compacts
// duplicates to the front and returns that prefix, which aliases items.
// It returns nil for no items, as New does.
func Canonical(items []Item) Set {
	if len(items) == 0 {
		return nil
	}
	slices.Sort(items)
	w := 1
	for r := 1; r < len(items); r++ {
		if items[r] != items[w-1] {
			items[w] = items[r]
			w++
		}
	}
	return Set(items[:w])
}

// Valid reports whether s satisfies the sorted, duplicate-free
// invariant. It is used by property tests and by code that accepts
// itemsets from untrusted encodings.
func (s Set) Valid() bool {
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

// Len returns the number of items; a k-itemset has Len k.
func (s Set) Len() int { return len(s) }

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	if s == nil {
		return nil
	}
	c := make(Set, len(s))
	copy(c, s)
	return c
}

// Contains reports whether x is a member of s, by binary search.
func (s Set) Contains(x Item) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	return i < len(s) && s[i] == x
}

// ContainsAll reports whether sub ⊆ s. Both sides are sorted, so a
// single merge pass suffices; this is the hot path of naive support
// counting and of rule post-processing.
func (s Set) ContainsAll(sub Set) bool {
	if len(sub) > len(s) {
		return false
	}
	i := 0
	for _, x := range sub {
		for i < len(s) && s[i] < x {
			i++
		}
		if i >= len(s) || s[i] != x {
			return false
		}
		i++
	}
	return true
}

// Equal reports whether s and t contain exactly the same items.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Compare orders itemsets first by length, then lexicographically.
// This is the canonical output order used by the miners so that results
// are deterministic and diffable.
func (s Set) Compare(t Set) int {
	if len(s) != len(t) {
		if len(s) < len(t) {
			return -1
		}
		return 1
	}
	for i := range s {
		if s[i] != t[i] {
			if s[i] < t[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Union returns s ∪ t as a new Set.
func (s Set) Union(t Set) Set {
	out := make(Set, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Intersect returns s ∩ t as a new Set.
func (s Set) Intersect(t Set) Set {
	var out Set
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Without returns s \ t as a new Set.
func (s Set) Without(t Set) Set {
	var out Set
	j := 0
	for _, x := range s {
		for j < len(t) && t[j] < x {
			j++
		}
		if j < len(t) && t[j] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}

// WithoutItem returns s \ {x} as a new Set.
func (s Set) WithoutItem(x Item) Set {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	if i >= len(s) || s[i] != x {
		return s.Clone()
	}
	out := make(Set, 0, len(s)-1)
	out = append(out, s[:i]...)
	out = append(out, s[i+1:]...)
	return out
}

// JoinPrefix implements the Apriori candidate join: if s and t are
// k-itemsets sharing their first k-1 items and s[k-1] < t[k-1], it
// returns the (k+1)-itemset s ∪ t and true; otherwise nil and false.
func (s Set) JoinPrefix(t Set) (Set, bool) {
	k := len(s)
	if k == 0 || len(t) != k {
		return nil, false
	}
	for i := 0; i < k-1; i++ {
		if s[i] != t[i] {
			return nil, false
		}
	}
	if s[k-1] >= t[k-1] {
		return nil, false
	}
	out := make(Set, k+1)
	copy(out, s)
	out[k] = t[k-1]
	return out, true
}

// EachSubsetK1 calls fn for each (k-1)-subset of the k-itemset s,
// reusing a single scratch buffer. fn must not retain the slice. It is
// the prune step of candidate generation and the antecedent enumerator
// of rule generation for single-item consequents.
func (s Set) EachSubsetK1(fn func(sub Set) bool) {
	if len(s) == 0 {
		return
	}
	scratch := make(Set, len(s)-1)
	for drop := range s {
		copy(scratch, s[:drop])
		copy(scratch[drop:], s[drop+1:])
		if !fn(scratch) {
			return
		}
	}
}

// Key returns a compact string key usable in maps. Items are encoded
// little-endian in 4 bytes each; the encoding is injective, so two sets
// share a key iff they are equal.
func (s Set) Key() string {
	return string(s.AppendKey(make([]byte, 0, 4*len(s))))
}

// AppendKey appends the Key encoding of s to dst and returns the
// extended slice. Hot paths that only *look up* a set in a
// string-keyed map use it with a reused (or stack) buffer —
// m[string(s.AppendKey(buf[:0]))] — which the compiler compiles to an
// allocation-free map access, unlike m[s.Key()] which allocates the
// key string on every call.
func (s Set) AppendKey(dst []byte) []byte {
	for _, x := range s {
		dst = append(dst, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	return dst
}

// String renders the set as "{1, 5, 9}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, x := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", x)
	}
	b.WriteByte('}')
	return b.String()
}

// SortSets orders a slice of sets by (length, lexicographic), the
// canonical result order.
func SortSets(sets []Set) {
	sort.Slice(sets, func(i, j int) bool { return sets[i].Compare(sets[j]) < 0 })
}
