// Package apriori implements the classic level-wise association-rule
// miner of Agrawal & Srikant (VLDB'94): candidate generation by prefix
// join with subset pruning, support counting on vertical TID bitmaps,
// and confidence-based rule generation.
//
// In this repository Apriori plays two roles: it is the *traditional*,
// time-agnostic baseline the paper compares against, and its counting
// machinery is the kernel the temporal miners in internal/core run once
// per time granule.
package apriori

import "github.com/tarm-project/tarm/internal/itemset"

// Source is a scannable collection of transactions. A miner may scan a
// source several times (once per level), so ForEach must be repeatable
// and deliver transactions in a stable order.
type Source interface {
	// Len returns the number of transactions.
	Len() int
	// ForEach calls fn once per transaction. Implementations must pass
	// canonical itemsets (sorted, duplicate-free); fn must not retain
	// the slice beyond the call.
	ForEach(fn func(tx itemset.Set))
}

// Transactions is an in-memory Source.
type Transactions []itemset.Set

// Len implements Source.
func (t Transactions) Len() int { return len(t) }

// ForEach implements Source.
func (t Transactions) ForEach(fn func(tx itemset.Set)) {
	for _, tx := range t {
		fn(tx)
	}
}

// Slices is a Source already cut into consecutive blocks of rows: its
// transactions are slice 0's, then slice 1's, and so on. MineContext
// counts such a source block by block on its Workers — the level-1
// scan, the level-2 triangle and the flat index's ingest — and sums the
// counts over the blocks; any other Source is one block.
type Slices []Source

// Len implements Source.
func (s Slices) Len() int {
	n := 0
	for _, sl := range s {
		n += sl.Len()
	}
	return n
}

// ForEach implements Source.
func (s Slices) ForEach(fn func(tx itemset.Set)) {
	for _, sl := range s {
		sl.ForEach(fn)
	}
}

// FuncSource adapts a scan function into a Source; used by the
// temporal database to expose granule-restricted views without copying.
type FuncSource struct {
	N    int
	Scan func(fn func(tx itemset.Set))
}

// Len implements Source.
func (f FuncSource) Len() int { return f.N }

// ForEach implements Source.
func (f FuncSource) ForEach(fn func(tx itemset.Set)) { f.Scan(fn) }
