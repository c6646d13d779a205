package apriori

import (
	"fmt"
	"math"

	"github.com/tarm-project/tarm/internal/itemset"
)

// HashTree counts the support of a fixed collection of k-itemset
// candidates in one pass per transaction, visiting only the candidates
// that can possibly be subsets. It is the classic structure from the
// Apriori paper: interior nodes hash an item to a child, leaves hold
// small buckets of candidates and split when they overflow (unless the
// tree is already k levels deep, where buckets may grow unboundedly).
type HashTree struct {
	k       int
	fanout  int
	maxLeaf int
	root    *htNode
	cands   []itemset.Set
	counts  []int
	// seq and mark deduplicate within a transaction: several descent
	// paths can land in the same leaf (hashing is lossy), and a
	// candidate must be counted at most once per transaction.
	seq  int64
	mark []int64
}

type htNode struct {
	// children is nil for a leaf. Interior nodes route item x to
	// children[x % fanout].
	children []*htNode
	// bucket holds candidate indices at a leaf.
	bucket []int32
}

// DefaultLeafSize is the bucket size used when NewHashTree is given
// none. The default fanout is adaptive: the tree has at most k levels,
// so to keep leaves near DefaultLeafSize the fanout must scale like
// the k-th root of the candidate count — a fixed small fanout degrades
// to linear bucket scans on large candidate sets.
const DefaultLeafSize = 16

// defaultFanout picks a fanout for n candidates of length k: the k-th
// root of n/DefaultLeafSize, clamped to [8, 2048].
func defaultFanout(n, k int) int {
	target := float64(n) / DefaultLeafSize
	if target < 1 {
		target = 1
	}
	f := int(math.Ceil(math.Pow(target, 1/float64(k))))
	if f < 8 {
		f = 8
	}
	if f > 2048 {
		f = 2048
	}
	return f
}

// NewHashTree builds a tree over candidates, which must all have
// length k ≥ 1. fanout and maxLeaf fall back to the defaults when ≤ 0.
func NewHashTree(candidates []itemset.Set, k, fanout, maxLeaf int) (*HashTree, error) {
	if k < 1 {
		return nil, fmt.Errorf("apriori: hash tree needs k >= 1, got %d", k)
	}
	if fanout <= 0 {
		fanout = defaultFanout(len(candidates), k)
	}
	if maxLeaf <= 0 {
		maxLeaf = DefaultLeafSize
	}
	t := &HashTree{
		k:       k,
		fanout:  fanout,
		maxLeaf: maxLeaf,
		root:    &htNode{},
		cands:   candidates,
		counts:  make([]int, len(candidates)),
		mark:    make([]int64, len(candidates)),
	}
	for i, c := range candidates {
		if len(c) != k {
			return nil, fmt.Errorf("apriori: candidate %v has length %d, want %d", c, len(c), k)
		}
		t.insert(int32(i))
	}
	return t, nil
}

func (t *HashTree) hash(x itemset.Item) int { return int(x) % t.fanout }

func (t *HashTree) insert(idx int32) { t.insertAt(t.root, 0, idx) }

// insertAt places candidate idx in the subtree rooted at n, where depth
// items of the candidate have already been consumed by hashing. An
// overflowing leaf splits unless the tree is already k levels deep —
// beyond that every candidate in the bucket hashes identically and
// splitting cannot help.
func (t *HashTree) insertAt(n *htNode, depth int, idx int32) {
	for n.children != nil {
		h := t.hash(t.cands[idx][depth])
		if n.children[h] == nil {
			n.children[h] = &htNode{}
		}
		n = n.children[h]
		depth++
	}
	n.bucket = append(n.bucket, idx)
	if len(n.bucket) > t.maxLeaf && depth < t.k {
		bucket := n.bucket
		n.bucket = nil
		n.children = make([]*htNode, t.fanout)
		for _, b := range bucket {
			h := t.hash(t.cands[b][depth])
			if n.children[h] == nil {
				n.children[h] = &htNode{}
			}
			t.insertAt(n.children[h], depth+1, b)
		}
	}
}

// Add counts one transaction. tx must be a canonical itemset.
func (t *HashTree) Add(tx itemset.Set) {
	if len(tx) < t.k {
		return
	}
	t.seq++
	t.visit(t.root, tx, 0, 0)
}

// visit walks the subtree rooted at n. depth items of every candidate
// below n are already matched against transaction items before
// position start.
func (t *HashTree) visit(n *htNode, tx itemset.Set, start, depth int) {
	if n.children == nil {
		for _, idx := range n.bucket {
			c := t.cands[idx]
			// The first `depth` items of c were hashed on the way down,
			// but hashing is lossy, so verify full containment against
			// the whole transaction, and count once per transaction.
			if t.mark[idx] != t.seq && tx.ContainsAll(c) {
				t.mark[idx] = t.seq
				t.counts[idx]++
			}
		}
		return
	}
	// Interior: each remaining transaction item may begin a match.
	// Prune when too few items remain to complete a k-candidate.
	for i := start; i <= len(tx)-(t.k-depth); i++ {
		child := n.children[t.hash(tx[i])]
		if child != nil {
			t.visit(child, tx, i+1, depth+1)
		}
	}
}

// Counts returns the support counters, indexed like the candidate
// slice passed to NewHashTree. The slice aliases internal state; the
// caller must copy it before reusing the tree.
func (t *HashTree) Counts() []int { return t.counts }

// Reset zeroes all counters so the tree can be reused for another
// partition (the temporal miners count the same candidates once per
// granule).
func (t *HashTree) Reset() {
	for i := range t.counts {
		t.counts[i] = 0
	}
}
