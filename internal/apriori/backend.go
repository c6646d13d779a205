package apriori

import (
	"fmt"
	"strings"
	"sync"

	"github.com/tarm-project/tarm/internal/itemset"
)

// Backend selects the support-counting strategy of the level-wise
// miner. The zero value is BackendAuto.
type Backend int

const (
	// BackendAuto picks hash tree or bitmap per run from the data
	// shape (see ChooseAuto).
	BackendAuto Backend = iota
	// BackendNaive tests every candidate against every transaction; it
	// is the reference the others are property-tested against.
	BackendNaive
	// BackendHashTree is the classic Apriori hash tree: one pass per
	// level over the transactions, visiting only plausible candidates.
	BackendHashTree
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

// String returns the flag-friendly name.
func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendNaive:
		return "naive"
	case BackendHashTree:
		return "hashtree"
	case BackendBitmap:
		return "bitmap"
	case BackendRoaring:
		return "roaring"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// ParseBackend parses a backend name as used by the -backend CLI flag.
// The empty string means auto.
func ParseBackend(s string) (Backend, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return BackendAuto, nil
	case "naive":
		return BackendNaive, nil
	case "hashtree", "tree":
		return BackendHashTree, nil
	case "bitmap", "vertical", "eclat":
		return BackendBitmap, nil
	case "roaring", "compressed":
		return BackendRoaring, nil
	}
	return 0, fmt.Errorf("apriori: unknown counting backend %q (want auto, naive, hashtree, bitmap or roaring)", s)
}

// maxBitmapBytes caps the memory the cost model will spend on a flat
// bitmap index before ruling that backend out.
const maxBitmapBytes = 512 << 20

// Counter counts the support of one level of equal-length candidates
// against a fixed transaction source. Mine builds one Counter per run
// and calls CountLevel once per level, so a backend can amortise work
// across levels — the bitmap backend ingests the source into its index
// on first use and never rescans.
type Counter interface {
	// CountLevel returns one support count per candidate. All
	// candidates have length k and arrive in canonical sorted order.
	CountLevel(cands []itemset.Set, k int) ([]int, error)
}

type naiveCounter struct{ src Source }

func (c naiveCounter) CountLevel(cands []itemset.Set, k int) ([]int, error) {
	return CountSetsNaive(c.src, cands), nil
}

type hashTreeCounter struct {
	src          Source
	fanout, leaf int
}

func (c hashTreeCounter) CountLevel(cands []itemset.Set, k int) ([]int, error) {
	tree, err := NewHashTree(cands, k, c.fanout, c.leaf)
	if err != nil {
		return nil, err
	}
	c.src.ForEach(tree.Add)
	out := make([]int, len(tree.counts))
	copy(out, tree.counts)
	return out, nil
}

type bitmapCounter struct {
	src     Source
	keep    *itemset.Ranks
	workers int

	once sync.Once
	ix   *BitmapIndex
}

func (c *bitmapCounter) CountLevel(cands []itemset.Set, k int) ([]int, error) {
	c.once.Do(func() { c.ix = NewBitmapIndex(c.src, c.keep) })
	return c.ix.CountSetsParallel(cands, c.workers), nil
}

type roaringCounter struct {
	src     Source
	keep    *itemset.Ranks
	workers int

	once sync.Once
	ix   *RoaringIndex
}

func (c *roaringCounter) CountLevel(cands []itemset.Set, k int) ([]int, error) {
	c.once.Do(func() { c.ix = NewRoaringIndex(c.src, c.keep) })
	return c.ix.CountSetsParallel(cands, c.workers), nil
}

// resolvedBackend maps the configured backend through the legacy
// NaiveCounting flag.
func (c Config) resolvedBackend() Backend {
	if c.Backend != BackendAuto {
		return c.Backend
	}
	if c.NaiveCounting {
		return BackendNaive
	}
	return BackendAuto
}

// newCounter builds the counter for src given the level-1 result: l1
// carries the frequent 1-itemsets with their counts, from which the
// vertical backends index only items that can appear in a candidate
// and the cost model builds its exact density histogram. The resolved
// backend and the full cost prediction are returned alongside so the
// caller can report both what ran and what the model expected.
func (c Config) newCounter(src Source, l1 []ItemsetCount) (Counter, Backend, *Prediction, error) {
	b := c.resolvedBackend()
	if !b.Valid() {
		return nil, b, nil, fmt.Errorf("apriori: invalid counting backend %d", int(b))
	}
	stats := CountStats{N: src.Len(), Granules: 1}
	for _, ic := range l1 {
		stats.AddItem(ic.Count)
	}
	pred := Predict(stats)
	if b == BackendAuto {
		b = pred.Choice
	} else {
		pred.Choice = b
	}
	switch b {
	case BackendNaive:
		return naiveCounter{src: src}, b, &pred, nil
	case BackendBitmap:
		return &bitmapCounter{src: src, keep: keepItems(l1), workers: c.Workers}, b, &pred, nil
	case BackendRoaring:
		return &roaringCounter{src: src, keep: keepItems(l1), workers: c.Workers}, b, &pred, nil
	default:
		return hashTreeCounter{src: src, fanout: c.Fanout, leaf: c.LeafSize}, b, &pred, nil
	}
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

// NewCounter resolves cfg's backend for src and returns a ready
// counter. Unlike the internal path used by Mine, an auto backend here
// decides from one statistics scan of the source, since no level-1
// result is available yet.
func NewCounter(src Source, cfg Config) (Counter, error) {
	b := cfg.resolvedBackend()
	if !b.Valid() {
		return nil, fmt.Errorf("apriori: invalid counting backend %d", int(b))
	}
	if b == BackendAuto {
		items := make(map[itemset.Item]int)
		src.ForEach(func(tx itemset.Set) {
			for _, x := range tx {
				items[x]++
			}
		})
		stats := CountStats{N: src.Len(), Granules: 1}
		for _, count := range items {
			stats.AddItem(count)
		}
		b, _ = ChooseBackend(stats)
	}
	switch b {
	case BackendNaive:
		return naiveCounter{src: src}, nil
	case BackendBitmap:
		return &bitmapCounter{src: src, workers: cfg.Workers}, nil
	case BackendRoaring:
		return &roaringCounter{src: src, workers: cfg.Workers}, nil
	default:
		return hashTreeCounter{src: src, fanout: cfg.Fanout, leaf: cfg.LeafSize}, nil
	}
}
