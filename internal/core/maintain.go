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
//     their fresh per-granule counts spliced into the carried vector;
//     clean columns are reused verbatim.
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
	// granules serve the risers' history. Each list is one sliced view of
	// the table: counts over it are indexed by position in the list, and
	// the cols give each position's offset in the span.
	var dirtyCols, cleanCols []int
	for gi := 0; gi < n; gi++ {
		switch {
		case bitAt(dirtyWords, gi):
			dirtyCols = append(dirtyCols, gi)
		case bitAt(nh.Active, gi):
			cleanCols = append(cleanCols, gi)
		}
	}
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

	// vector is a candidate's count vector over the new span: its old
	// vector rebased by off (nil for an untracked candidate, which has no
	// history yet) with the dirty columns' counts (nil = none) spliced in.
	// It is one scratch vector, rewritten per candidate: the caller clones
	// what it keeps, so a dropped candidate allocates nothing.
	scratch := make([]int32, n)
	vector := func(old, dirtyCounts []int32) []int32 {
		clear(scratch[:off])
		clear(scratch[off+copy(scratch[off:], old):])
		for j, gi := range dirtyCols {
			scratch[gi] = 0
			if dirtyCounts != nil {
				scratch[gi] = dirtyCounts[j]
			}
		}
		return scratch
	}
	// frequent fills fw with the frequency words of v, without a span
	// scan. A clean granule kept its transaction count, so its threshold
	// and every verdict there are unchanged: the words to test are the
	// old ones rebased by off, and the dirty granules. An untracked
	// itemset is frequent in no clean granule (the splice invariant), so
	// only its dirty granules are tested.
	fw := make([]uint64, len(nh.Active))
	frequent := func(old []uint64, v []int32) bool {
		clear(fw)
		for wi, x := range old {
			for ; x != 0; x &= x - 1 {
				setBit(fw, wi<<6+bits.TrailingZeros64(x)+off)
			}
		}
		for wi, x := range dirtyWords {
			fw[wi] |= x
		}
		return thresholdWords(fw, fw, v, thr) >= nh.floor
	}

	// The cold build's level-wise loop — same stopping rule, and every
	// candidate the build would keep — with each level counted over the
	// dirty region only and spliced into the tracked vectors. Level 1's
	// candidates are the tracked items and those of the dirty region.
	// Level 2's are the tracked pairs whose items both stayed in level 1
	// and the pairs the build's own pair decision finds frequent in a
	// dirty granule: by the splice invariant no other pair of the join
	// can be frequent anywhere. A level from 3 on is the join of the
	// level below. A candidate with an item absent from the dirty region
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
	var words []uint64
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
			cands = slices.Clone(h.ByK[1])
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
				var err error
				if cands, pass.Generated, pass.Pruned, err = generateFromSets(ctx, prev); err != nil {
					return nil, err
				}
				if len(cands) == 0 {
					if trace {
						pass.Rows, pass.Duration = 0, time.Since(t0)
						tr.EndPass(pass)
					}
					break
				}
			}
			var countable []itemset.Set
			var countIdx []int
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
		// words. An untracked candidate that clears a threshold in the
		// dirty region is a riser: a tracked itemset with no history, which
		// one clean-region count recovers below. Its verdict is already
		// final, as the history is frequent nowhere.
		var tracked []itemset.Set
		if k < len(h.ByK) {
			tracked = h.ByK[k]
		}
		var level, risers []itemset.Set
		var vecs, riserVecs [][]int32
		words = words[:0]
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
			var old []int32
			var oldWords []uint64
			if t < len(tracked) && tracked[t].Equal(c) {
				old, oldWords = h.vecs[k][t], h.levelFreq(k, t)
			} else if dirtyCounts[i] == nil {
				continue // absent from the dirty region and untracked: frequent nowhere
			}
			v := vector(old, dirtyCounts[i])
			if !frequent(oldWords, v) {
				continue
			}
			v = slices.Clone(v)
			level = append(level, c)
			words = append(words, fw...)
			vecs = append(vecs, v)
			if old == nil {
				risers = append(risers, c)
				riserVecs = append(riserVecs, v)
			}
		}
		// The risers' vectors are the level's own: the history fill below
		// writes into the stored level.
		nh.appendLevel(level, words, vecs)
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
		for r, v := range riserVecs {
			if hv := hist.Row(r); hv != nil { // nil: no clean-region occurrences
				for j, gi := range cleanCols {
					v[gi] = hv[j]
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
// not have generated it. ctx is sampled every keepCheckEvery tracked
// pairs.
func (h *HoldTable) pairCandidates(ctx context.Context, l1 *itemset.Ranks, fresh []itemset.Set) ([]itemset.Set, error) {
	var tracked []itemset.Set
	if len(h.ByK) > 2 {
		tracked = h.ByK[2]
	}
	out := make([]itemset.Set, 0, len(tracked)+len(fresh))
	f := 0
	for t, c := range tracked {
		if t > 0 && t%keepCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if l1.Rank(c[0]) < 0 || l1.Rank(c[1]) < 0 {
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
