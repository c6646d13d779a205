package itemset

import "testing"

// checkRanks asserts r ranks exactly want, in that order, and none of
// absent.
func checkRanks(t *testing.T, r *Ranks, want []Item, absent []Item) {
	t.Helper()
	if r.Len() != len(want) {
		t.Fatalf("Len() = %d, want %d", r.Len(), len(want))
	}
	for i, x := range want {
		if got := r.Rank(x); got != i {
			t.Errorf("Rank(%d) = %d, want %d", x, got, i)
		}
		if got := r.Items()[i]; got != x {
			t.Errorf("Items()[%d] = %d, want %d", i, got, x)
		}
		if got := r.Add(x); got != i {
			t.Errorf("re-Add(%d) = %d, want %d", x, got, i)
		}
	}
	for _, x := range absent {
		if got := r.Rank(x); got != -1 {
			t.Errorf("Rank(%d) = %d, want -1", x, got)
		}
	}
	if r.Len() != len(want) {
		t.Fatalf("Len() = %d after re-adding, want %d", r.Len(), len(want))
	}
}

// A dictionary-sized id space is ranked by the flat table alone.
func TestRanksDenseIDs(t *testing.T) {
	var r Ranks
	want := []Item{5, 0, 999, 3, 65_000}
	for i, x := range want {
		if got := r.Add(x); got != i {
			t.Fatalf("Add(%d) = %d, want %d", x, got, i)
		}
	}
	checkRanks(t, &r, want, []Item{1, 4, 998, 1000, 70_000, 4_000_000_000})
	if len(r.sparse) != 0 {
		t.Errorf("%d ids went to the map, want 0", len(r.sparse))
	}
	if len(r.dense) != 65_001 {
		t.Errorf("table has %d entries, want 65001 (largest id + 1)", len(r.dense))
	}
}

// Ids the additions show to be sparse are ranked by the map, and the
// table stays O(ranked items) whatever the largest id.
func TestRanksSparseIDs(t *testing.T) {
	var r Ranks
	want := []Item{4_000_000_000, 7, 3_999_999_999, 1 << 20}
	for i, x := range want {
		if got := r.Add(x); got != i {
			t.Fatalf("Add(%d) = %d, want %d", x, got, i)
		}
	}
	checkRanks(t, &r, want, []Item{0, 8, 1<<20 + 1, 4_000_000_001})
	if len(r.sparse) != 3 {
		t.Errorf("%d ids in the map, want the 3 above the table's reach", len(r.sparse))
	}
	if limit := rankDenseFloor + rankDenseFactor*r.Len(); len(r.dense) > limit {
		t.Errorf("table has %d entries for %d items, bound is %d", len(r.dense), r.Len(), limit)
	}
}

// An id first seen out of the table's reach moves into it once enough
// distinct items have been ranked to cover it: table and map stay
// disjoint, ranks do not change.
func TestRanksGrowthMovesMapRankedIDs(t *testing.T) {
	var r Ranks
	far := Item(rankDenseFloor + 1000)
	if r.Add(far) != 0 || len(r.sparse) != 1 {
		t.Fatalf("id %d not map-ranked on first sight", far)
	}
	// rankDenseFactor ids per ranked item: ~125 more items reach far;
	// the first id past it then grows the table over it.
	next := Item(0)
	for uint64(far) >= uint64(rankDenseFloor)+rankDenseFactor*uint64(r.Len()+1) {
		r.Add(next)
		next++
	}
	r.Add(far + 1)
	if len(r.sparse) != 0 {
		t.Errorf("map still holds %d ids after the table grew past them", len(r.sparse))
	}
	if got := r.Rank(far); got != 0 {
		t.Errorf("Rank(%d) = %d after the move, want 0", far, got)
	}
	if got := r.Rank(far + 1); got != r.Len()-1 {
		t.Errorf("Rank(%d) = %d, want %d", far+1, got, r.Len()-1)
	}
	if got := r.Rank(far - 1); got != -1 {
		t.Errorf("Rank(%d) = %d, want -1", far-1, got)
	}
}
