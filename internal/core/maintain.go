package core

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// MaintainContext delta-maintains the hold table after appends to tbl
// touched only the given granules: it returns a new HoldTable that is
// bit-identical to a cold BuildHoldTableContext of the current data, but
// whose cost is proportional to the dirty region, not the span. The receiver
// is unchanged. dirty is the set of granules (at the table's build
// granularity) that received appends since the receiver was built —
// tdb.TxTable.DirtySince produces exactly this list.
//
// The splice invariant that makes this sound: appends perturb only the
// granules they land in. A clean granule keeps its transaction count,
// therefore its support threshold, therefore every itemset's frequency
// status in it. So
//
//  1. Tracked itemsets are recounted over the dirty granules only and
//     their fresh per-granule counts spliced into copies of the blocks
//     they fall in; every clean block is the receiver's, shared (a
//     stored block is never written), so a tracked itemset costs its
//     words, its block pointers and its dirty blocks, not its span.
//  2. An itemset not tracked before cannot have become frequent in a
//     clean granule (if it were frequent there now, it was frequent
//     there before and would have been tracked — Apriori monotonicity
//     extends this across levels, see below). Untracked candidates are
//     therefore counted over the dirty region only, and the few that
//     cross a threshold there (risers) get their historical counts from
//     one count of the clean region, over an index of their items.
//  3. Dirty-granule thresholds can only rise (transaction counts only
//     grow), so every carried vector is re-filtered through the new
//     thresholds; itemsets frequent only in a dirty granule can drop
//     out, exactly as a cold rebuild would drop them.
//
// The cross-level argument for (2): suppose candidate c at level k is
// frequent in a clean granule but was not tracked. Monotonicity makes
// every (k-1)-subset of c frequent in that clean granule — in the old
// data too, since the granule is clean — so every subset was tracked,
// so the old build generated and counted c, and, c being frequent in
// the clean granule then as now, retained it. Contradiction.
//
// MaintainContext returns an error (and the caller should fall back to
// a cold rebuild) when the dirty list provably misses a changed granule,
// when the table shrank, when no granule is active, when the table is
// scoped to one statement (Config.Scope: it lacks the itemsets below
// its floor that the appends may lift), or when it is a threshold view
// (its stored words are a lower support's); the HoldCache holds neither.
// Cancellation is observed between levels, between granule scans and
// every keepCheckEvery candidates of a level's walk, never per
// transaction.
func (h *HoldTable) MaintainContext(ctx context.Context, tbl *tdb.TxTable, dirty []timegran.Granule) (*HoldTable, error) {
	return h.maintain(ctx, tbl, dirty, apriori.MaxPairCells, apriori.MaxVerticalItems)
}

// maintain is MaintainContext with the level-2 decision's two limits as
// parameters, as buildHoldTable takes them, so tests can route every
// dirty granule to either kernel.
func (h *HoldTable) maintain(ctx context.Context, tbl *tdb.TxTable, dirty []timegran.Granule, pairCells, verticalItems int) (*HoldTable, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(h.ByK) < 2 {
		return nil, fmt.Errorf("core: Maintain on an unbuilt hold table")
	}
	if err := h.refreshErr("Maintain"); err != nil {
		return nil, err
	}
	view, ok := tbl.Granules(h.Cfg.Granularity)
	if !ok {
		return nil, fmt.Errorf("core: Maintain on an empty table")
	}
	span := view.Span
	if span.Lo > h.Span.Lo || span.Hi < h.Span.Hi {
		return nil, fmt.Errorf("core: Maintain: span shrank from %v to %v; rebuild instead", h.Span, span)
	}
	n := int(span.Len())
	off := int(h.Span.Lo - span.Lo) // re-basing offset of old vectors
	oldN := h.NGranules()

	tr := h.Cfg.tracer()
	trace := tr.Enabled()
	if trace {
		tr.StartTask("core.MaintainHoldTable")
		defer tr.EndTask()
		tr.Gauge(obs.MetricGranules, float64(n))
		tr.Gauge(obs.MetricGranulesDirty, float64(len(dirty)))
	}

	nh, err := newHoldTable(view, h.Cfg)
	if err != nil {
		return nil, err
	}

	// Dirty membership by new-span offset, with the soundness check: a
	// granule whose transaction count changed (old count 0 outside the
	// old span) must be in the dirty list, or the list is incomplete and
	// splicing would silently serve stale counts.
	dirtyWords := make([]uint64, len(nh.Active))
	for _, g := range dirty {
		gi := int(g - span.Lo)
		if gi < 0 || gi >= n {
			return nil, fmt.Errorf("core: Maintain: dirty granule %d outside table span %v", g, span)
		}
		setBit(dirtyWords, gi)
	}
	for gi, txc := range nh.TxCounts {
		old := 0
		if gi >= off && gi-off < oldN {
			old = h.TxCounts[gi-off]
		}
		if txc != old && !bitAt(dirtyWords, gi) {
			return nil, fmt.Errorf("core: Maintain: granule %d changed (%d → %d tx) but is not in the dirty list; rebuild instead",
				span.Lo+timegran.Granule(gi), old, txc)
		}
	}
	// Dirty granules drive all recounting; an inactive one is an empty
	// slice, as in a cold build, so it counts nothing. Clean active
	// granules serve the risers' history, and are listed only when there
	// are risers. Each list is one sliced view of the table: counts over
	// it are indexed by position in the list, and the cols give each
	// position's offset in the span.
	dirtyCols := make([]int, 0, popcount(dirtyWords))
	for wi, x := range dirtyWords {
		for ; x != 0; x &= x - 1 {
			dirtyCols = append(dirtyCols, wi<<6+bits.TrailingZeros64(x))
		}
	}
	var cleanCols []int
	sources := func(cols []int) []apriori.Source {
		out := make([]apriori.Source, len(cols))
		for j, gi := range cols {
			out[j] = apriori.Transactions(nil)
			if bitAt(nh.Active, gi) {
				out[j] = view.Source(gi)
			}
		}
		return out
	}
	dirtySlices := sources(dirtyCols)
	thr := nh.thresholds()

	// frequent fills fw with a candidate's frequency words over the new
	// span and reports whether they reach the floor, before any vector is
	// made. A clean granule kept its transaction count, so its threshold
	// and every verdict there are unchanged: the words are the old ones
	// (nil for an untracked itemset, frequent in no clean granule by the
	// splice invariant) moved by off, with the dirty granules cleared and
	// re-tested on their fresh counts dc (nil = none).
	nb := len(nh.Active)
	fw := make([]uint64, nb)
	frequent := func(old []uint64, dc []int32) bool {
		shiftWords(fw, old, off)
		found := 0
		for wi, x := range dirtyWords {
			fw[wi] &^= x
			found += bits.OnesCount64(fw[wi])
		}
		if dc != nil {
			for j, gi := range dirtyCols {
				if dc[j] >= thr[gi] {
					setBit(fw, gi)
					found++
				}
			}
		}
		return found >= nh.floor
	}
	// sharedBlocks appends a tracked itemset's block table over the new span
	// when the span start moved by a whole number of blocks (q of them):
	// every block no dirty granule falls in is the old vector's, or the
	// zero block outside it, shared as is; a dirty block is a copy of it
	// with the dirty columns' counts dc (nil = none) spliced in. A block
	// the span grew into past the old tail holds zeros where no data
	// arrived, as the old block does past the old span's end.
	q := off >> 6
	sharedBlocks := func(dst []*block, old counts, dc []int32) []*block {
		j := 0 // next dirty column
		for b := range nb {
			src := &zeroBlock
			if ob := b - q; ob >= 0 && ob < len(old) {
				src = old[ob]
			}
			if dirtyWords[b] == 0 {
				dst = append(dst, src)
				continue
			}
			cp := new(block)
			*cp = *src
			for ; j < len(dirtyCols) && dirtyCols[j]>>6 == b; j++ {
				cp[dirtyCols[j]&63] = 0
				if dc != nil {
					cp[dirtyCols[j]&63] = dc[j]
				}
			}
			dst = append(dst, cp)
		}
		return dst
	}
	// newBlocks appends a block table of new blocks, one allocation for all
	// of them: an untracked candidate's (a riser, whose clean history is
	// written in below, so it shares nothing), or a tracked one's re-
	// blocked when a late row moved the span start by a non-multiple of
	// 64, so no old block lines up with a new one.
	newBlocks := func(dst []*block, old counts, dc []int32) []*block {
		blocks := make([]block, nb)
		if old != nil {
			for gi := range oldN {
				ng := gi + off
				blocks[ng>>6][ng&63] = old.at(gi)
			}
		}
		for j, gi := range dirtyCols {
			blocks[gi>>6][gi&63] = 0
			if dc != nil {
				blocks[gi>>6][gi&63] = dc[j]
			}
		}
		for b := range blocks {
			dst = append(dst, &blocks[b])
		}
		return dst
	}

	// The cold build's level-wise loop — same stopping rule, and every
	// candidate the build would keep — with each level counted over the
	// dirty region only and spliced into the tracked vectors. Level 1's
	// candidates are the tracked items and those of the dirty region.
	// Level 2's are the tracked pairs whose items both stayed in level 1
	// and the pairs the build's own pair decision finds frequent in a
	// dirty granule: by the splice invariant no other pair of the join
	// can be frequent anywhere. A level from 3 on is, the same way, the
	// tracked itemsets whose subsets all stayed in the level below and
	// the join of that level's dirty-frequent itemsets (levelCandidates).
	// A candidate with an item absent from the dirty region
	// keeps a nil (all-zero) dirty vector uncounted. Both regions count
	// on the table's own backend and workers, resolved as for a cold
	// build: an appended day, or the first basket of a granule, counts
	// every level on one flat index over its rows, which the level-2
	// decision shares.
	workers := nh.Cfg.Workers
	items, itemCounts := apriori.CountLevel1(ctx, dirtySlices, workers)
	present := new(itemset.Ranks)
	for _, x := range items {
		present.Add(x)
	}
	// The dirty counter counts from level 2 on, so it keeps the new
	// level 1's items, ranked in item order as the pair decision needs.
	var dirtyCounter, cleanCounter *apriori.SliceCounter
	var l1ranks *itemset.Ranks
	var dirtyRows, cleanRows int64
	for _, s := range dirtySlices {
		dirtyRows += int64(s.Len())
	}
	risersTotal := 0
	var prev []itemset.Set
	// keptCandidate is a candidate a level keeps: its index in the
	// level's candidates and its position in the old level, -1 for a
	// riser.
	type keptCandidate struct{ cand, from int }
	var kept []keptCandidate
	var t0 time.Time
	for k := 1; k == 1 || len(prev) > 1 && (nh.Cfg.MaxK == 0 || k <= nh.Cfg.MaxK); k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if trace {
			tr.StartPass(k)
			t0 = time.Now()
		}
		// The level's pass over the dirty region, reported as the build
		// reports its own: level 1 is the item scan.
		pass := obs.PassStats{Level: k, Rows: dirtyRows, Backend: "scan"}
		var cands []itemset.Set
		var dirtyCounts [][]int32
		if k == 1 {
			cands = append(make([]itemset.Set, 0, len(h.ByK[1])+len(items)), h.ByK[1]...)
			for _, x := range items {
				if s := (itemset.Set{x}); h.countsOf(s) == nil {
					cands = append(cands, s)
				}
			}
			slices.SortFunc(cands, itemset.Set.Compare)
			dirtyCounts = make([][]int32, len(cands))
			for i, c := range cands {
				if r := present.Rank(c[0]); r >= 0 {
					dirtyCounts[i] = itemCounts[r]
				}
			}
			pass.Generated, pass.Counted = len(cands), len(items)
		} else {
			if dirtyCounter == nil {
				l1ranks = new(itemset.Ranks)
				for _, s := range prev {
					l1ranks.Add(s[0])
				}
				dirtyCounter = apriori.NewSliceCounter(nh.Cfg.Backend, dirtySlices, l1ranks, workers)
			}
			pass.Backend = dirtyCounter.Backend().String()
			if k == 2 && dirtyCounter.Backend() != apriori.BackendNaive {
				// As in the build, the pass reports the whole join of L1,
				// every pair of it, as generated; the naive backend counts
				// that join, the unfiltered reference.
				pass.Generated = len(prev) * (len(prev) - 1) / 2
				fresh, _ := nh.frequentPairs(ctx, dirtySlices, dirtyCols, dirtyCounter, l1ranks, workers, pairCells, verticalItems)
				if err := ctx.Err(); err != nil {
					return nil, err // partial marks read as fewer pairs
				}
				var err error
				if cands, err = h.pairCandidates(ctx, l1ranks, fresh); err != nil {
					return nil, err
				}
			} else {
				// The naive backend counts the whole join, the unfiltered
				// reference; the others take level k's candidates from
				// the dirty-frequent part of the level below and the
				// tracked k-itemsets, and form the whole join only when
				// those are none, as the build stops where it is empty
				// and appends an empty level where it is not.
				var err error
				naive := dirtyCounter.Backend() == apriori.BackendNaive
				if naive {
					cands, pass.Generated, pass.Pruned, err = generateFromSets(ctx, prev)
				} else {
					cands, pass.Generated, pass.Pruned, err = h.levelCandidates(ctx, nh, k, dirtyWords)
				}
				if err != nil {
					return nil, err
				}
				end := len(cands) == 0
				if end && !naive {
					join, _, _, err := generateFromSets(ctx, prev)
					if err != nil {
						return nil, err
					}
					end = len(join) == 0
				}
				if end {
					if trace {
						pass.Rows, pass.Duration = 0, time.Since(t0)
						tr.EndPass(pass)
					}
					break
				}
			}
			countable := make([]itemset.Set, 0, len(cands))
			countIdx := make([]int, 0, len(cands))
			for i, c := range cands {
				if !slices.ContainsFunc(c, func(x itemset.Item) bool { return present.Rank(x) < 0 }) {
					countable = append(countable, c)
					countIdx = append(countIdx, i)
				}
			}
			counted, err := dirtyCounter.Count(ctx, countable)
			if err != nil {
				return nil, err
			}
			dirtyCounts = make([][]int32, len(cands))
			for j, i := range countIdx {
				dirtyCounts[i] = counted.Row(j)
			}
			pass.Counted = len(countable)
		}
		// Candidates and the old level are both in canonical order: one
		// merge walk finds each tracked candidate's stored vector and
		// words, and decides it before any of its storage is made. An
		// untracked candidate that clears a threshold in the dirty region
		// is a riser: a tracked itemset with no history, which one
		// clean-region count recovers below. Its verdict is already final,
		// as the history is frequent nowhere.
		var tracked []itemset.Set
		if k < len(h.ByK) {
			tracked = h.ByK[k]
		}
		kept = kept[:0]
		t := 0
		for i, c := range cands {
			if i > 0 && i%keepCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			for t < len(tracked) && tracked[t].Compare(c) < 0 {
				t++
			}
			from := -1
			var oldWords []uint64
			if t < len(tracked) && tracked[t].Equal(c) {
				from, oldWords = t, h.levelFreq(k, t)
			} else if dirtyCounts[i] == nil {
				continue // absent from the dirty region and untracked: frequent nowhere
			}
			if frequent(oldWords, dirtyCounts[i]) {
				kept = append(kept, keptCandidate{i, from})
			}
		}
		// The kept candidates' storage, sized to them: the words (the
		// test rerun, a few words' work), and the block tables.
		level := make([]itemset.Set, len(kept))
		words := make([]uint64, 0, len(kept)*nb)
		blocks := make([]*block, 0, len(kept)*nb)
		var risers []itemset.Set
		var riserAt []int // the risers' positions in level
		for x, kc := range kept {
			level[x] = cands[kc.cand]
			var old counts
			var oldWords []uint64
			if kc.from >= 0 {
				old, oldWords = h.vecOf(k, kc.from), h.levelFreq(k, kc.from)
			} else {
				risers = append(risers, level[x])
				riserAt = append(riserAt, x)
			}
			dc := dirtyCounts[kc.cand]
			frequent(oldWords, dc)
			words = append(words, fw...)
			if old != nil && off&63 == 0 {
				blocks = sharedBlocks(blocks, old, dc)
			} else {
				blocks = newBlocks(blocks, old, dc)
			}
		}
		nh.appendLevel(level, words, blocks)
		prev = level
		if trace {
			pass.Frequent, pass.Duration = len(level), time.Since(t0)
			tr.EndPass(pass)
		}
		if len(risers) == 0 {
			continue
		}
		// The only history-proportional part: its own pass, over the
		// clean region, on the clean counter's backend.
		if trace {
			tr.StartPass(k)
			t0 = time.Now()
		}
		if cleanCounter == nil {
			// A riser is frequent only in dirty granules, so each of its
			// items is frequent in one of them, and was kept by level 1:
			// one index over those items serves every later level's
			// risers. It lives only for this call.
			keep := new(itemset.Ranks)
			for i, s := range nh.ByK[1] {
				if apriori.AndCount(nh.levelFreq(1, i), dirtyWords) > 0 {
					keep.Add(s[0])
				}
			}
			for gi := range n {
				if bitAt(nh.Active, gi) && !bitAt(dirtyWords, gi) {
					cleanCols = append(cleanCols, gi)
				}
			}
			cleanSlices := sources(cleanCols)
			for _, s := range cleanSlices {
				cleanRows += int64(s.Len())
			}
			cleanCounter = apriori.NewSliceCounter(nh.Cfg.Backend, cleanSlices, keep, workers)
		}
		hist, err := cleanCounter.Count(ctx, risers)
		if err != nil {
			return nil, err
		}
		// A riser's blocks are its own (fresh) and not yet read by anyone:
		// its history is written into the stored level.
		for r, at := range riserAt {
			if hv := hist.Row(r); hv != nil { // nil: no clean-region occurrences
				v := nh.vecOf(k, at)
				for j, gi := range cleanCols {
					v[gi>>6][gi&63] = hv[j]
				}
			}
		}
		risersTotal += len(risers)
		if trace {
			tr.EndPass(obs.PassStats{
				Level: k, Generated: len(risers), Counted: len(risers), Frequent: len(risers),
				Rows: cleanRows, Backend: cleanCounter.Backend().String(), Duration: time.Since(t0),
			})
		}
	}
	// A cancelled count leaves partial counts behind it: the check at the
	// next level's start, or this one after the last, drops the table.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if trace {
		tr.Counter(obs.MetricMaintainRisers, int64(risersTotal))
		tr.Counter(obs.MetricItemsetsFrequent, int64(nh.TotalItemsets()))
	}
	return nh, nil
}

// pairCandidates merges into fresh, the pairs frequent in some dirty
// granule, the pairs h tracks whose items are both ranked in l1: level
// 2's candidates, in canonical order, each once. A tracked pair with an
// item gone from level 1 is frequent nowhere now, as the join would
// not have generated it.
func (h *HoldTable) pairCandidates(ctx context.Context, l1 *itemset.Ranks, fresh []itemset.Set) ([]itemset.Set, error) {
	return h.mergeTracked(ctx, 2, fresh, func(c itemset.Set) bool { return l1.Rank(c[0]) >= 0 && l1.Rank(c[1]) >= 0 })
}

// levelCandidates is Maintain's level k ≥ 3 on a counting backend: the
// join of the itemsets of the new level k-1 (nh's) frequent in some
// dirty granule, merged with the k-itemsets h tracks whose (k-1)-subsets
// all stayed in that level. By the splice invariant no other candidate
// of the level's whole join can be frequent anywhere: one frequent in a
// clean granule was tracked, its subsets frequent there too, and one
// frequent in a dirty granule has every subset frequent in it. It
// reports the candidates formed and the dirty join's pruned ones.
func (h *HoldTable) levelCandidates(ctx context.Context, nh *HoldTable, k int, dirtyWords []uint64) (cands []itemset.Set, generated, pruned int, err error) {
	prev := nh.ByK[k-1]
	var dirtyPrev []itemset.Set
	for i, s := range prev {
		if apriori.AndCount(nh.levelFreq(k-1, i), dirtyWords) > 0 {
			dirtyPrev = append(dirtyPrev, s)
		}
	}
	fresh, _, pruned, err := generateFromSets(ctx, dirtyPrev)
	if err != nil {
		return nil, 0, 0, err
	}
	sub := make(itemset.Set, k-1)
	stays := func(c itemset.Set) bool {
		for j := range c {
			sub = append(append(sub[:0], c[:j]...), c[j+1:]...)
			if _, ok := slices.BinarySearchFunc(prev, sub, itemset.Set.Compare); !ok {
				return false
			}
		}
		return true
	}
	if cands, err = h.mergeTracked(ctx, k, fresh, stays); err != nil {
		return nil, 0, 0, err
	}
	return cands, len(cands) + pruned, pruned, nil
}

// mergeTracked merges into fresh, a level's candidates new to the
// dirty region, the itemsets h tracks at level k for which stays holds:
// the level's candidates, in canonical order, each once. ctx is sampled
// every keepCheckEvery tracked itemsets.
func (h *HoldTable) mergeTracked(ctx context.Context, k int, fresh []itemset.Set, stays func(itemset.Set) bool) ([]itemset.Set, error) {
	var tracked []itemset.Set
	if k < len(h.ByK) {
		tracked = h.ByK[k]
	}
	out := make([]itemset.Set, 0, len(tracked)+len(fresh))
	f := 0
	for t, c := range tracked {
		if t > 0 && t%keepCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if !stays(c) {
			continue
		}
		for f < len(fresh) && fresh[f].Compare(c) < 0 {
			out = append(out, fresh[f])
			f++
		}
		if f < len(fresh) && fresh[f].Equal(c) {
			f++
		}
		out = append(out, c)
	}
	return append(out, fresh[f:]...), nil
}

// shiftWords sets dst to the packed granules of src moved up by off
// granules: a table's frequency words re-based onto a span that starts
// off granules earlier. dst must hold every moved bit; it is whole
// words copied when off is a multiple of 64.
func shiftWords(dst, src []uint64, off int) {
	clear(dst)
	q, r := off>>6, uint(off&63)
	if r == 0 {
		copy(dst[q:], src)
		return
	}
	for wi, x := range src {
		dst[wi+q] |= x << r
		if hi := x >> (64 - r); hi != 0 {
			dst[wi+q+1] |= hi
		}
	}
}
