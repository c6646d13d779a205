package apriori

import (
	"fmt"

	"github.com/tarm-project/tarm/internal/itemset"
)

// Backend selects the support-counting strategy of the level-wise
// miner. The zero value is BackendAuto.
type Backend int

const (
	// BackendAuto is bitmap wherever its index fits in memory and
	// roaring past the cap. NewSliceCounter resolves it; see
	// resolveAuto for the rule and its reason.
	BackendAuto Backend = iota
	// BackendNaive tests every candidate against every transaction; it
	// is the reference the others are property-tested against.
	BackendNaive
	// BackendBitmap is the vertical representation: per-item TID
	// bitmaps intersected with word-parallel AND + popcount.
	BackendBitmap
	// BackendRoaring is the compressed vertical representation:
	// per-item roaring bitmaps (array / bitmap / run containers)
	// intersected per container pair, with batched container-major
	// counting over same-prefix candidate runs.
	BackendRoaring
)

// Valid reports whether b names a known backend.
func (b Backend) Valid() bool { return b >= BackendAuto && b <= BackendRoaring }

// String returns the backend's name, as EXPLAIN and the journal print it.
func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendNaive:
		return "naive"
	case BackendBitmap:
		return "bitmap"
	case BackendRoaring:
		return "roaring"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// keepItems collects the frequent items of a level-1 result, the
// ingest filter of the vertical index builders.
func keepItems(l1 []ItemsetCount) *itemset.Ranks {
	keep := new(itemset.Ranks)
	for _, ic := range l1 {
		keep.Add(ic.Set[0])
	}
	return keep
}
