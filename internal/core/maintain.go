package core

import (
	"context"
	"fmt"
	"math/bits"

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
//     cross a threshold there get one candidate-restricted recovery
//     scan of the clean region to fill in their historical counts.
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
// every keepCheckEvery itemsets of a level's carry loop, never per
// transaction.
func (h *HoldTable) MaintainContext(ctx context.Context, tbl *tdb.TxTable, dirty []timegran.Granule) (*HoldTable, error) {
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
	if tr.Enabled() {
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
	dirtySet := make([]bool, n)
	for _, g := range dirty {
		gi := int(g - span.Lo)
		if gi < 0 || gi >= n {
			return nil, fmt.Errorf("core: Maintain: dirty granule %d outside table span %v", g, span)
		}
		dirtySet[gi] = true
	}
	for gi, txc := range nh.TxCounts {
		old := 0
		if gi >= off && gi-off < oldN {
			old = h.TxCounts[gi-off]
		}
		if txc != old && !dirtySet[gi] {
			return nil, fmt.Errorf("core: Maintain: granule %d changed (%d → %d tx) but is not in the dirty list; rebuild instead",
				span.Lo+timegran.Granule(gi), old, txc)
		}
	}
	// Active dirty granules drive all recounting; inactive ones hold no
	// counts in a cold build either. Clean active granules serve the
	// newcomer recovery scans. Each list is one sliced view of the table:
	// counts over it are indexed by position in the list, and the cols
	// give each position's offset in the span.
	var dirtyCols, cleanCols []int
	for gi := 0; gi < n; gi++ {
		switch {
		case !bitAt(nh.Active, gi):
		case dirtySet[gi]:
			dirtyCols = append(dirtyCols, gi)
		default:
			cleanCols = append(cleanCols, gi)
		}
	}
	slices := func(cols []int) []apriori.Source {
		out := make([]apriori.Source, len(cols))
		for j, gi := range cols {
			out[j] = view.Source(gi)
		}
		return out
	}
	dirtySlices := slices(dirtyCols)
	thr := nh.thresholds()

	// rebase widens an old count vector to the new span, leaving dirty
	// columns zeroed for the splice.
	rebase := func(old []int32) []int32 {
		v := make([]int32, n)
		copy(v[off:off+oldN], old)
		for gi := range dirtySet {
			if dirtySet[gi] {
				v[gi] = 0
			}
		}
		return v
	}
	// splice writes a dirty-region vector (nil = all zero) into the dirty
	// columns of a span-wide one.
	splice := func(v, dirtyCounts []int32) []int32 {
		if dirtyCounts != nil {
			for j, gi := range dirtyCols {
				v[gi] = dirtyCounts[j]
			}
		}
		return v
	}

	// Frequency words, without a span scan. A clean granule kept its
	// transaction count, so its threshold and every itemset's verdict
	// there are unchanged: carry rebases a tracked itemset's old bits by
	// off and tests only the dirty columns of its spliced vector v. An
	// itemset untracked before is frequent in no clean granule (the
	// splice invariant), so rise tests only its dirty-region counts. Each
	// fills fw and reports whether the itemset is granule-frequent.
	w := len(nh.Active)
	fw := make([]uint64, w)
	var words []uint64
	carry := func(old []uint64, v []int32) bool {
		clear(fw)
		for wi, x := range old {
			for ; x != 0; x &= x - 1 {
				if gi := wi<<6 + bits.TrailingZeros64(x) + off; !dirtySet[gi] {
					setBit(fw, gi)
				}
			}
		}
		for _, gi := range dirtyCols {
			if v[gi] >= thr[gi] {
				setBit(fw, gi)
			}
		}
		return anySet(fw)
	}
	rise := func(dirtyCounts []int32) bool {
		clear(fw)
		for j, c := range dirtyCounts {
			if gi := dirtyCols[j]; c >= thr[gi] {
				setBit(fw, gi)
			}
		}
		return anySet(fw)
	}

	// Level 1: per-item counts over the active dirty granules only.
	c1 := make(map[itemset.Item][]int32)
	for j, src := range dirtySlices {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		src.ForEach(func(tx itemset.Set) {
			for _, x := range tx {
				v := c1[x]
				if v == nil {
					v = make([]int32, len(dirtyCols))
					c1[x] = v
				}
				v[j]++
			}
		})
	}
	var l1 []itemset.Set
	var vecs [][]int32
	for i, s := range h.ByK[1] {
		if i > 0 && i%keepCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		v := splice(rebase(h.vecs[1][i]), c1[s[0]])
		if carry(h.levelFreq(1, i), v) {
			l1 = append(l1, s)
			words = append(words, fw...)
			vecs = append(vecs, v)
		}
	}
	// Items not tracked before that cross a threshold in the dirty
	// region. A higher-level candidate whose items are not all present
	// in the dirty region (c1's keys) cannot have a nonzero dirty count,
	// so the per-level recounts below skip it outright.
	newcomers := make(map[itemset.Item][]int32)
	for x, dc := range c1 {
		if s := (itemset.Set{x}); h.countsOf(s) == nil && rise(dc) {
			v := splice(make([]int32, n), dc)
			newcomers[x] = v
			l1 = append(l1, s)
			words = append(words, fw...)
			vecs = append(vecs, v)
		}
	}
	if len(newcomers) > 0 {
		// The only history-proportional part: recover the clean-region
		// counts of items that just became granule-frequent.
		for j, src := range slices(cleanCols) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			gi := cleanCols[j]
			src.ForEach(func(tx itemset.Set) {
				for _, x := range tx {
					if v, ok := newcomers[x]; ok {
						v[gi]++
					}
				}
			})
		}
	}
	l1, words, vecs = sortLevel(l1, words, vecs, w)
	nh.appendLevel(l1, words, vecs)

	// Higher levels replay the cold build's level-wise loop — same
	// generation, same stopping rule — but each candidate batch is
	// counted over the dirty region only, spliced into carried vectors,
	// and untracked candidates that cross a threshold there get one
	// clean-region recovery pass. Both regions are a few small slices of
	// history, whatever the configured backend: the horizontal driver
	// picks its subset counter from their row totals.
	dirtyCounter := apriori.NewSliceCounter(apriori.BackendHashTree, dirtySlices, nil, 0)
	var cleanCounter *apriori.SliceCounter
	prev := l1
	for k := 2; len(prev) > 1 && (nh.Cfg.MaxK == 0 || k <= nh.Cfg.MaxK); k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cands, _, _, err := generateFromSets(ctx, prev)
		if err != nil {
			return nil, err
		}
		if len(cands) == 0 {
			break
		}
		// Count only the candidates that can occur in the dirty region;
		// the rest keep a nil (all-zero) dirty vector.
		var countable []itemset.Set
		var countIdx []int
		for i, c := range cands {
			all := true
			for _, x := range c {
				if c1[x] == nil {
					all = false
					break
				}
			}
			if all {
				countable = append(countable, c)
				countIdx = append(countIdx, i)
			}
		}
		counted, err := dirtyCounter.Count(ctx, countable)
		if err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		dirtyCounts := make([][]int32, len(cands))
		for j, i := range countIdx {
			dirtyCounts[i] = counted.Row(j)
		}
		var level, risers []itemset.Set
		var vecs, riserVecs [][]int32
		words = words[:0]
		// Candidates and the old level are both in canonical order: one
		// merge walk finds each tracked candidate's stored words.
		var tracked []itemset.Set
		if k < len(h.ByK) {
			tracked = h.ByK[k]
		}
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
			if t < len(tracked) && tracked[t].Equal(c) {
				v := splice(rebase(h.vecs[k][t]), dirtyCounts[i])
				if carry(h.levelFreq(k, t), v) {
					level = append(level, c)
					words = append(words, fw...)
					vecs = append(vecs, v)
				}
				continue
			}
			// Untracked: by the splice invariant it cannot be frequent in
			// a clean granule, so dirty-region frequency decides — and the
			// clean history recovered below never changes the verdict.
			if rise(dirtyCounts[i]) {
				v := splice(make([]int32, n), dirtyCounts[i])
				level = append(level, c)
				words = append(words, fw...)
				vecs = append(vecs, v)
				risers = append(risers, c)
				riserVecs = append(riserVecs, v)
			}
		}
		if len(risers) > 0 {
			if cleanCounter == nil {
				cleanCounter = apriori.NewSliceCounter(apriori.BackendHashTree, slices(cleanCols), nil, 0)
			}
			hist, err := cleanCounter.Count(ctx, risers)
			if err != nil {
				return nil, err
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for r, v := range riserVecs {
				hv := hist.Row(r)
				if hv == nil {
					continue // no clean-region occurrences: zeros are right
				}
				for j, gi := range cleanCols {
					v[gi] = hv[j]
				}
			}
		}
		nh.appendLevel(level, words, vecs)
		prev = level
	}
	if tr.Enabled() {
		tr.Counter(obs.MetricItemsetsFrequent, int64(nh.TotalItemsets()))
	}
	return nh, nil
}
