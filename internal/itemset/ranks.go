package itemset

// Ranks assigns the dense ranks 0, 1, 2, … to item ids in the order
// they are first added, so per-item state of a scan can live in a slice
// instead of a map keyed by Item. The zero value is empty and ready to
// use.
//
// Dictionary-assigned ids are small and dense, and for those a rank is
// one load from a flat table indexed by id. But an Item is any uint32 a
// caller cares to use, so the table covers only ids below
// rankDenseFloor + rankDenseFactor·Len(); ids beyond that — an id space
// the additions show to be sparse — are ranked through a map. Memory is
// therefore O(distinct items) whatever the largest id is.
type Ranks struct {
	dense  []int32        // rank+1 by id; 0 = unranked
	sparse map[Item]int32 // rank+1 of the ranked ids ≥ len(dense)
	items  []Item         // id by rank
}

const (
	// rankDenseFloor ids are always table-ranked: 256 KiB of table at
	// most, grown only as far as the largest id seen.
	rankDenseFloor = 1 << 16
	// rankDenseFactor bounds the table to this many entries per ranked
	// item beyond the floor.
	rankDenseFactor = 8
)

// Len returns the number of ranked items.
func (r *Ranks) Len() int { return len(r.items) }

// Items returns the ranked ids, indexed by rank. The slice is shared:
// callers must not modify it.
func (r *Ranks) Items() []Item { return r.items }

// Rank returns x's rank, or -1 when x has not been added.
func (r *Ranks) Rank(x Item) int {
	if uint64(x) < uint64(len(r.dense)) {
		return int(r.dense[x]) - 1
	}
	return int(r.sparse[x]) - 1
}

// Add returns x's rank, assigning the next free one on first sight.
// Hot loops call Rank, which inlines, and Add only when that misses.
func (r *Ranks) Add(x Item) int {
	if rank := r.Rank(x); rank >= 0 {
		return rank
	}
	r.items = append(r.items, x)
	rank1 := int32(len(r.items))
	if limit := uint64(rankDenseFloor) + rankDenseFactor*uint64(len(r.items)); uint64(x) < limit {
		r.growDense(int(x)+1, int(limit))
		r.dense[x] = rank1
	} else {
		if r.sparse == nil {
			r.sparse = make(map[Item]int32)
		}
		r.sparse[x] = rank1
	}
	return int(rank1) - 1
}

// growDense extends the table to at least need entries — doubling, so
// growth is amortised, but never past limit — and moves the map-ranked
// ids the longer table now covers into it, keeping the two disjoint.
func (r *Ranks) growDense(need, limit int) {
	if need <= len(r.dense) {
		return
	}
	n := 2 * len(r.dense)
	if n > limit {
		n = limit
	}
	if n < need {
		n = need
	}
	grown := make([]int32, n)
	copy(grown, r.dense)
	r.dense = grown
	for y, v := range r.sparse {
		if uint64(y) < uint64(n) {
			r.dense[y] = v
			delete(r.sparse, y)
		}
	}
}
