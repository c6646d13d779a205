package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// HoldTable is the shared counting substrate of the temporal miners:
// for every *granule-frequent* itemset (frequent in at least one active
// granule — at least floor of them in a table scoped to one statement,
// see Scope) it stores the support count in every granule of the span.
// From those vectors every task derives its per-granule "the rule
// holds here" sequences without rescanning the data.
type HoldTable struct {
	Cfg  Config
	Span timegran.Interval

	// Per-granule statistics, indexed by granule - Span.Lo.
	TxCounts  []int // transactions in the granule
	MinCounts []int // support threshold ceil(MinSupport · TxCounts); 0 where inactive
	// Active marks the granules with TxCounts ≥ MinGranuleTx, one bit
	// per granule packed into ⌈n/64⌉ words (granule gi is bit gi&63 of
	// word gi>>6; bits past the span are zero). Every per-granule
	// vector of the task operators — hold sequences and feature masks —
	// has this shape, so a detector is popcounts over a handful of
	// words; see DESIGN §"Hold table".
	Active  []uint64
	NActive int

	// ByK[k] lists the granule-frequent k-itemsets in canonical order;
	// on a threshold view, those of the table it reads in place, a
	// superset of the view's (see thresholdView).
	ByK [][]itemset.Set

	// freq[k] holds the frequency words of ByK[k], len(Active) words
	// per itemset in ByK order: granule gi is set where the itemset's
	// count clears MinCounts[gi] in an active granule. The support test
	// is run once per itemset by whoever produces the level (build,
	// Maintain, Rethreshold) and never again per rule candidate.
	freq [][]uint64

	// vecs[k] holds the per-granule count vectors of ByK[k], in ByK
	// order: an itemset's vector is found by the same search as its
	// frequency words, and a level's producer appends both.
	vecs [][][]int32

	// floor is the least number of granules a kept itemset is frequent
	// in: 1 unless Cfg.Scope raised it (Scope.resolve).
	floor int

	// view marks a threshold view (thresholdView): ByK, freq and vecs
	// are a resident table's, stored at a support no higher than Cfg's,
	// so a reader derives an itemset's words at MinCounts from the
	// stored ones (thresholdWords) and treats an itemset left below
	// floor as absent, as the materialised table (Rethreshold) is
	// without it.
	view bool
}

// NGranules returns the number of granules in the span.
func (h *HoldTable) NGranules() int { return int(h.Span.Len()) }

// granuleWords is the length of a packed per-granule vector over n
// granules.
func granuleWords(n int) int { return (n + 63) / 64 }

// bitAt reports whether granule gi is set in a packed vector.
func bitAt(words []uint64, gi int) bool { return words[gi>>6]>>uint(gi&63)&1 != 0 }

// setBit sets granule gi in a packed vector.
func setBit(words []uint64, gi int) { words[gi>>6] |= 1 << uint(gi&63) }

// popcount is the number of granules set in a packed vector.
func popcount(words []uint64) int { return apriori.PopcountRange(words, 0, len(words)<<6) }

// thresholds returns MinCounts in the form the counting loops compare
// against: int32 like the count vectors, with inactive granules at
// MaxInt32, which no count reaches — so "active and frequent" is one
// compare per granule. It is derived per call (a few hundred entries),
// not stored: MinCounts and Active stay the only copy of the facts.
func (h *HoldTable) thresholds() []int32 {
	thr := make([]int32, len(h.MinCounts))
	for gi, minCount := range h.MinCounts {
		thr[gi] = math.MaxInt32
		if bitAt(h.Active, gi) {
			thr[gi] = int32(minCount)
		}
	}
	return thr
}

// Counts returns the per-granule count vector of s, or nil when s is
// not granule-frequent. The slice is shared: callers must not modify.
func (h *HoldTable) Counts(s itemset.Set) []int32 {
	if i, _, ok := h.lookup(s); ok {
		return h.vecs[len(s)][i]
	}
	return nil
}

// countsOf is s's stored count vector, by one search in its level, or
// nil when s is not stored. Unlike Counts it does not ask a view
// whether s is frequent at the view's support: the enumeration reads
// the subsets of an itemset it already knows to be, and Maintain reads
// a built table.
func (h *HoldTable) countsOf(s itemset.Set) []int32 {
	if i, ok := h.find(s); ok {
		return h.vecs[len(s)][i]
	}
	return nil
}

// freqOf returns s's frequency words, or nil when s is not
// granule-frequent, by the same lookup as Counts.
func (h *HoldTable) freqOf(s itemset.Set) []uint64 {
	_, words, _ := h.lookup(s)
	return words
}

// lookup finds s as every reader but the enumeration sees it: its
// position in its level and its frequency words, ok false when s is not
// granule-frequent. On a threshold view the words are derived at the
// view's thresholds (a fresh slice), and an itemset they leave below
// the table's floor is not granule-frequent.
func (h *HoldTable) lookup(s itemset.Set) (i int, words []uint64, ok bool) {
	if i, ok = h.find(s); !ok {
		return 0, nil, false
	}
	words = h.levelFreq(len(s), i)
	if h.view {
		stored := words
		words = make([]uint64, len(stored))
		if thresholdWords(words, stored, h.vecs[len(s)][i], h.thresholds()) < h.floor {
			return 0, nil, false
		}
	}
	return i, words, true
}

// find is s's position in its level ByK[len(s)], by binary search; ok
// is false when s is not granule-frequent.
func (h *HoldTable) find(s itemset.Set) (i int, ok bool) {
	k := len(s)
	if k == 0 || k >= len(h.ByK) {
		return 0, false
	}
	return slices.BinarySearchFunc(h.ByK[k], s, itemset.Set.Compare)
}

// levelFreq is the frequency-word view of ByK[k][i].
func (h *HoldTable) levelFreq(k, i int) []uint64 {
	w := len(h.Active)
	return h.freq[k][i*w : (i+1)*w : (i+1)*w]
}

// appendLevel stores the next level: its itemsets in canonical order,
// their frequency words and their count vectors in the same order.
// words is the producer's scratch; it is copied to size, so a resident
// table carries no slack. vecs is kept as given.
func (h *HoldTable) appendLevel(level []itemset.Set, words []uint64, vecs [][]int32) {
	h.ByK = append(h.ByK, level)
	h.freq = append(h.freq, slices.Clone(words))
	h.vecs = append(h.vecs, vecs)
}

// sortLevel orders a level collected out of order canonically, carrying
// each itemset's w frequency words and its count vector along.
func sortLevel(level []itemset.Set, words []uint64, vecs [][]int32, w int) ([]itemset.Set, []uint64, [][]int32) {
	order := make([]int, len(level))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return level[a].Compare(level[b]) })
	sets := make([]itemset.Set, len(level))
	sorted := make([]uint64, 0, len(words))
	sortedVecs := make([][]int32, len(level))
	for i, j := range order {
		sets[i], sortedVecs[i] = level[j], vecs[j]
		sorted = append(sorted, words[j*w:(j+1)*w]...)
	}
	return sets, sorted, sortedVecs
}

// TotalItemsets returns the number of granule-frequent itemsets.
func (h *HoldTable) TotalItemsets() int {
	n := 0
	for _, level := range h.ByK {
		n += len(level)
	}
	return n
}

// ceilCount is ceil(frac · n), at least 1, with the boundary-robust
// rounding shared with the flat miner (see apriori.CeilCount): a
// support expressible as an integral fraction of n must not round up.
func ceilCount(frac float64, n int) int {
	return apriori.CeilCount(frac, n)
}

// BuildHoldTableContext runs the shared level-wise pass over tbl: a
// level-1 item scan, then per level a join+prune and a per-granule count
// of the candidates on the configured backend (flat or roaring bitmaps,
// or the naive reference). The data is time-ordered, so
// each granule is a contiguous run of rows in every scan. Level 2 is
// where nearly all candidates are and nearly none survive, so the
// production backends decide it granule by granule before counting any
// vector — see frequentPairs — and from level 3 on they count only the
// candidates whose subsets are frequent together in some granule.
//
// cfg.Scope narrows the build to the one statement it serves: every
// level keeps only the itemsets frequent in the scope's floor of
// granules (the level-2 decision and the level-3 prune ask the same of
// their pairs and subsets), DURING's scans skip the granules outside
// its feature, and a floor no itemset can reach returns an empty table
// without scanning. See Scope.
//
// The build observes cancellation at granule-block and pass boundaries,
// and every few thousand candidates of a join or a keep loop — never per
// transaction, so the check stays off the counting hot path — and
// returns ctx.Err() promptly once the context is done. Every counting
// backend (sequential and parallel naive, bitmap, roaring)
// and both routes of the level-2 decision are covered.
func BuildHoldTableContext(ctx context.Context, tbl *tdb.TxTable, cfg Config) (*HoldTable, error) {
	return buildHoldTable(ctx, tbl, cfg, apriori.MaxPairCells, apriori.MaxVerticalItems)
}

// buildHoldTable is BuildHoldTableContext with the level-2 decision's
// two limits as parameters, so tests can force the triangle's row-blocked
// path on small tables and route every granule to either kernel.
func buildHoldTable(ctx context.Context, tbl *tdb.TxTable, cfg Config, pairCells, verticalItems int) (*HoldTable, error) {
	cfg, err := cfg.normalise()
	if err != nil {
		return nil, err
	}
	view, ok := tbl.Granules(cfg.Granularity)
	if !ok {
		return nil, fmt.Errorf("core: transaction table %q is empty", tbl.Name())
	}
	h, err := newHoldTable(view, cfg)
	if err != nil {
		return nil, err
	}
	cfg.Scope.resolve(h)
	n := h.NGranules()
	thr := h.thresholds()
	nActiveTx := 0
	for gi, txc := range h.TxCounts {
		if bitAt(h.Active, gi) {
			nActiveTx += txc
		}
	}
	tr := cfg.tracer()
	trace := tr.Enabled()
	if trace {
		tr.StartTask("core.BuildHoldTable")
		defer tr.EndTask()
		tr.Gauge(obs.MetricGranules, float64(n))
		tr.Gauge(obs.MetricGranulesActive, float64(h.NActive))
	}
	if h.floor > h.NActive {
		// No itemset can be frequent in more granules than are active:
		// the scope's statement can report nothing, and nothing is
		// scanned. A full build would keep no item either.
		h.appendLevel(nil, nil, nil)
		return h, nil
	}

	// Level 1: plain per-item counters, sharded over granule blocks
	// when workers are configured.
	var t0 time.Time
	if trace {
		tr.StartPass(1)
		t0 = time.Now()
	}
	slices := h.slices(view)
	items, c1 := apriori.CountLevel1(ctx, slices, cfg.Workers)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	w := len(h.Active)
	fw := make([]uint64, w) // one itemset's frequency words
	var l1 []itemset.Set
	var words []uint64
	var vecs [][]int32
	for r, v := range c1 {
		if frequentGranules(fw, v, thr) >= h.floor {
			l1 = append(l1, itemset.Set{items[r]})
			words = append(words, fw...)
			vecs = append(vecs, v)
		}
	}
	l1, words, vecs = sortLevel(l1, words, vecs, w)
	h.appendLevel(l1, words, vecs)
	if trace {
		tr.EndPass(obs.PassStats{
			Level: 1, Generated: len(c1), Counted: len(c1), Frequent: len(l1),
			Rows: int64(nActiveTx), Backend: "scan", Duration: time.Since(t0),
		})
	}

	var countingNS int64
	var vectors int64 // candidates of levels ≥ 2 handed to the counter
	var routes pairRoutes
	// l1ranks ranks the L1 items in item order: the row numbering of the
	// pair decision and the ingest filter of the vertical indexes.
	l1ranks := new(itemset.Ranks)
	for _, s := range l1 {
		l1ranks.Add(s[0])
	}
	counter := apriori.NewSliceCounter(cfg.Backend, slices, l1ranks, cfg.Workers)
	backend := counter.Backend()

	prev := l1
	for k := 2; len(prev) > 1 && (cfg.MaxK == 0 || k <= cfg.MaxK); k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if trace {
			tr.StartPass(k)
			t0 = time.Now()
		}
		// The stopping rule sees the whole join, and the pass stats report
		// all of it as counted — generated less the subset prune — however
		// little of it gets a count vector. The naive backend stays the
		// unfiltered reference: it counts the join as it stands.
		var counted []itemset.Set
		var nGen, nPruned int
		var tc0 time.Time
		if k == 2 && backend != apriori.BackendNaive {
			tc0 = time.Now()
			// The join of L1 is every pair of it, pruning none; only the
			// pairs frequent in some granule are materialised. Every
			// granule is decided: slice gi is granule gi.
			nGen = len(l1) * (len(l1) - 1) / 2
			cols := make([]int, n)
			for gi := range cols {
				cols[gi] = gi
			}
			counted, routes = h.frequentPairs(ctx, slices, cols, counter, l1ranks, cfg.Workers, pairCells, verticalItems)
		} else {
			var cands []itemset.Set
			cands, nGen, nPruned, err = generateFromSets(ctx, prev)
			if err != nil {
				return nil, err
			}
			if len(cands) == 0 {
				if trace {
					tr.EndPass(obs.PassStats{
						Level: k, Generated: nGen, Pruned: nPruned,
						Backend: backend.String(), Duration: time.Since(t0),
					})
				}
				break
			}
			tc0 = time.Now()
			counted = cands
			if backend != apriori.BackendNaive {
				counted = h.jointlyFrequent(ctx, cands)
			}
		}
		vectors += int64(len(counted))
		perGranule, err := counter.Count(ctx, counted)
		countingNS += time.Since(tc0).Nanoseconds()
		if err != nil {
			return nil, err
		}
		// A cancelled scan leaves partial counts — or partial pair marks
		// and prune words, which read as fewer survivors; discard them
		// rather than admitting an undercounted level.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var level []itemset.Set
		level, words, vecs, err = h.keepFrequent(ctx, counted, perGranule, thr, fw, words[:0])
		if err != nil {
			return nil, err
		}
		h.appendLevel(level, words, vecs)
		prev = level
		if trace {
			tr.EndPass(obs.PassStats{
				Level: k, Generated: nGen, Pruned: nPruned, Counted: nGen - nPruned,
				Frequent: len(level), Rows: int64(nActiveTx),
				Backend: backend.String(), Duration: time.Since(t0),
			})
		}
	}
	if trace {
		tr.Counter(obs.MetricPairGranulesVertical, int64(routes.vertical))
		tr.Counter(obs.MetricPairGranulesHorizontal, int64(routes.horizontal))
		tr.Counter(obs.MetricCountVectors, vectors)
		tr.Counter(obs.MetricItemsetsFrequent, int64(h.TotalItemsets()))
		tr.Gauge(obs.MetricHoldCells, float64(h.TotalItemsets())*float64(h.NGranules()))
		tr.Gauge(obs.MetricCountingObservedNS, float64(countingNS))
	}
	return h, nil
}

// keepCheckEvery is the number of candidates between two cancellation
// checks of a level's keep loop, of its frequency-word prune and of
// Maintain's level walk: each candidate costs a pass over its count
// vector or its subsets' words (one compare per granule), so a block
// of them is well under a millisecond even over thousands of granules.
const keepCheckEvery = 1024

// keepFrequent is a level's keep loop: it returns the candidates of
// counted that clear a threshold of thr (h.thresholds()) in h.floor
// granules, in order, with their frequency words appended to words and
// their count vectors in the same order. fw is one itemset's scratch
// words. ctx is sampled every keepCheckEvery candidates; a cancelled
// loop returns ctx.Err().
func (h *HoldTable) keepFrequent(ctx context.Context, counted []itemset.Set, perGranule *apriori.Counts, thr []int32, fw, words []uint64) ([]itemset.Set, []uint64, [][]int32, error) {
	var level []itemset.Set
	var vecs [][]int32
	for i, c := range counted {
		if i > 0 && i%keepCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, nil, err
			}
		}
		if v := perGranule.Row(i); frequentGranules(fw, v, thr) >= h.floor {
			level = append(level, c)
			words = append(words, fw...)
			vecs = append(vecs, v)
		}
	}
	return level, words, vecs, nil
}

// newHoldTable builds the header of a table over one reading of the
// data — per-granule transaction counts, activity and thresholds —
// holding no itemsets yet.
func newHoldTable(view tdb.Granules, cfg Config) (*HoldTable, error) {
	n := int(view.Span.Len())
	h := &HoldTable{
		Cfg:       cfg,
		Span:      view.Span,
		TxCounts:  view.Counts,
		MinCounts: make([]int, n),
		Active:    make([]uint64, granuleWords(n)),
		ByK:       [][]itemset.Set{nil},
		freq:      [][]uint64{nil},
		vecs:      [][][]int32{nil},
		floor:     1,
	}
	for i, txc := range h.TxCounts {
		if txc >= cfg.MinGranuleTx {
			setBit(h.Active, i)
			h.NActive++
			h.MinCounts[i] = ceilCount(cfg.MinSupport, txc)
		}
	}
	if h.NActive == 0 {
		return nil, fmt.Errorf("core: no granule has at least %d transactions", cfg.MinGranuleTx)
	}
	return h, nil
}

// slices cuts the span into the counting seam's slices, one per
// granule of the reading h's header came from, so a slice's index is
// its granule's offset; an inactive granule is an empty slice.
func (h *HoldTable) slices(view tdb.Granules) []apriori.Source {
	out := make([]apriori.Source, h.NGranules())
	for gi := range out {
		out[gi] = apriori.Transactions(nil)
		if bitAt(h.Active, gi) {
			out[gi] = view.Source(gi)
		}
	}
	return out
}

// frequentGranules fills words — len(h.Active) of them — with the
// frequency words of count vector v: the granules where v clears thr
// (h.thresholds(), so inactive granules never). It returns how many
// granules are set; the itemset is granule-frequent when that reaches
// the table's floor. A nil vector is frequent nowhere.
func frequentGranules(words []uint64, v, thr []int32) int {
	clear(words)
	found := 0
	for gi, c := range v {
		if c >= thr[gi] {
			setBit(words, gi)
			found++
		}
	}
	return found
}

// thresholdWords fills dst with the frequency words of count vector v
// under thr (h.thresholds()), visiting only the granules set in stored:
// any superset of dst, such as the words of v under thresholds no
// higher than thr's. dst may be stored. It returns how many granules
// are set. It is the one word test of a table re-read: Rethreshold
// filters the stored levels through it, a threshold view derives each
// itemset's words with it as the itemset is read, and Maintain tests a
// spliced vector on its old words rebased plus the dirty granules.
func thresholdWords(dst, stored []uint64, v, thr []int32) int {
	found := 0
	for wi, w := range stored {
		var nw uint64
		for ; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			gi := wi<<6 + b
			// v[gi] ≥ thr[gi] as the sign of thr-1-v: no branch to
			// mispredict on a coin-flip test.
			nw |= uint64(int64(thr[gi])-1-int64(v[gi])) >> 63 << b
		}
		dst[wi] = nw
		found += bits.OnesCount64(nw)
	}
	return found
}

// generateFromSets is the Apriori join+prune over a sorted level of
// plain sets, reporting the join/prune counts for pass telemetry. A
// cancelled join returns ctx.Err() and no candidates.
func generateFromSets(ctx context.Context, level []itemset.Set) (cands []itemset.Set, generated, pruned int, err error) {
	ics := make([]apriori.ItemsetCount, len(level))
	for i, s := range level {
		ics[i] = apriori.ItemsetCount{Set: s}
	}
	return apriori.GenerateCandidatesCounted(ctx, ics)
}

// RuleCandidate is one potential temporal rule considered by the
// miners: antecedent ⇒ consequent with the full itemset cached, and
// Freq, the full itemset's stored frequency words. The enumeration also
// hands over the three itemsets' count vectors, found by position, so
// Holds and featureRule look nothing up; candidate fills a candidate
// named by its sets.
type RuleCandidate struct {
	Ante, Cons, Full itemset.Set
	Freq             []uint64

	full, ante, cons []int32 // count vectors of Full, Ante and Cons
}

// candidate resolves a rule named by its sets into a candidate of h:
// Freq and the count vectors by search (lookup, so a view answers at
// its own support). ok is false when the full itemset is not
// granule-frequent (there are no words to hold on).
func (h *HoldTable) candidate(ante, cons itemset.Set) (rc RuleCandidate, ok bool) {
	rc = RuleCandidate{Ante: ante, Cons: cons, Full: ante.Union(cons)}
	i, words, ok := h.lookup(rc.Full)
	if !ok {
		return rc, false
	}
	rc.Freq, rc.full = words, h.vecs[len(rc.Full)][i]
	rc.ante, rc.cons = h.countsOf(ante), h.countsOf(cons)
	return rc, true
}

// confTest is a statement's confidence test on integer counts:
// minFull[a] is the least full-itemset count f that passes
// float64(f)/float64(a)+1e-12 ≥ MinConfidence over an antecedent count
// a — found with that very expression, so the integer compare decides
// exactly as the division would. It covers antecedent counts up to the
// table's largest granule; a count past that (a hand-built table can
// hold one) takes the float test itself.
type confTest struct {
	minFull []int32
	minConf float64
}

// confTest builds h's confidence test for its configured MinConfidence,
// once per operator call. minFull is non-decreasing in a (a count that
// passes over a+1 passes over a), so the search resumes where the last
// antecedent count's ended: O(largest granule) tests in all. A
// confidence outside [0, 1], which only a hand-built table carries,
// gets no table: every count takes the float test.
func (h *HoldTable) confTest() confTest {
	c := confTest{minConf: h.Cfg.MinConfidence}
	if !(c.minConf >= 0 && c.minConf <= 1) {
		return c
	}
	maxTx := 0
	for _, txc := range h.TxCounts {
		maxTx = max(maxTx, txc)
	}
	c.minFull = make([]int32, maxTx+1) // minFull[0] is unused: holds refuses a = 0
	f := int32(0)
	for a := 1; a <= maxTx; a++ {
		for float64(f)/float64(a)+1e-12 < c.minConf { // f = a always passes
			f++
		}
		c.minFull[a] = f
	}
	return c
}

// holds reports whether a granule with full-itemset count full and
// antecedent count a passes the confidence test; a zero antecedent
// count never does.
func (c confTest) holds(full, a int32) bool {
	if int(a) < len(c.minFull) {
		return a != 0 && full >= c.minFull[a]
	}
	return float64(full)/float64(a)+1e-12 >= c.minConf
}

// Holds fills hold — a caller-owned packed vector of ⌈n/64⌉ words,
// reused from candidate to candidate — with the rule's hold sequence:
// granule gi is set when, inside it, supp(full) ≥ threshold and
// supp(full)/supp(ante) ≥ MinConfidence. The support half is rc.Freq,
// so only its set bits are visited and take the confidence test.
// Inactive granules are clear; use the Active mask to tell "fails" from
// "no data". rc comes from the enumeration or from candidate. Holds
// builds the confidence test per call; the task operators build it
// once and run holds.
func (h *HoldTable) Holds(rc RuleCandidate, hold []uint64) { h.holds(rc, hold, h.confTest()) }

// holds is Holds under a prebuilt confidence test: a frequent bit costs
// one table load and one integer compare.
func (h *HoldTable) holds(rc RuleCandidate, hold []uint64, conf confTest) {
	fullCounts, anteCounts := rc.full, rc.ante
	if anteCounts == nil {
		clear(hold)
		return // defensive; ante ⊆ full is frequent wherever full is
	}
	for wi, w := range rc.Freq {
		var hw uint64
		for ; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			gi := wi<<6 + b
			if conf.holds(fullCounts[gi], anteCounts[gi]) {
				hw |= 1 << uint(b)
			}
		}
		hold[wi] = hw
	}
}

// minHits is the frequency test of every detector as an integer bound:
// the least hit count reaching minFreq of occ granules, ceil(minFreq·occ)
// under the rounding every support threshold uses (ceilCount), so a
// class of occ granules is decided by one integer compare — and skipped
// without counting when the whole hold sequence has fewer bits. No
// granule needs no hit.
func minHits(minFreq float64, occ int) int {
	if occ == 0 {
		return 0
	}
	return ceilCount(minFreq, occ)
}

// EachRuleCandidate enumerates every rule X ⇒ {y} derivable from the
// granule-frequent itemsets (single-item consequents, following the
// companion papers' presentation convention), in canonical order, each
// with its full itemset's frequency words and the three count vectors.
// Ante and Cons are scratch sets the loop refills: they are valid only
// during fn, and a caller that keeps a rule copies them (featureRule
// does, on emit). So is Freq on a threshold view.
//
// floor is a task's (see emitRules): a full itemset whose frequency
// words hold fewer than floor granules of mask (of the span when mask
// is nil) is skipped before any of its rules is formed. A rule's hold
// sequence is a subset of its itemset's frequency words, so no detector
// that needs floor holding granules there can accept a skipped rule;
// floor 1 skips nothing. It returns the rules formed and the itemsets
// skipped.
//
// On a threshold view the stored words are those of a lower support,
// a superset of the view's: an itemset they already leave below floor
// is skipped without deriving anything. Otherwise its words at the
// view's thresholds are derived (thresholdWords), and it is skipped
// when they are empty — the materialised table does not hold it — or
// below floor; so a view forms exactly the rules its Rethreshold form
// would, and skipped also counts the itemsets frequent nowhere at the
// view's support.
func (h *HoldTable) EachRuleCandidate(floor int, mask []uint64, fn func(rc RuleCandidate) bool) (formed, skipped int) {
	count := func(words []uint64) int {
		if mask == nil {
			return popcount(words)
		}
		return apriori.AndCount(words, mask)
	}
	var thr []int32
	var fw []uint64
	if h.view {
		thr, fw = h.thresholds(), make([]uint64, len(h.Active))
	}
	var ante itemset.Set
	cons := make(itemset.Set, 1)
	for k := 2; k < len(h.ByK); k++ {
		for i, full := range h.ByK[k] {
			freq := h.levelFreq(k, i)
			if floor > 1 && count(freq) < floor {
				skipped++
				continue
			}
			if h.view {
				// Absent from the materialised table, or below floor there.
				n := thresholdWords(fw, freq, h.vecs[k][i], thr)
				if n < h.floor || n < floor || mask != nil && floor > 1 && count(fw) < floor {
					skipped++
					continue
				}
				freq = fw
			}
			rc := RuleCandidate{Cons: cons, Full: full, Freq: freq, full: h.vecs[k][i]}
			for j, y := range full {
				ante = append(append(ante[:0], full[:j]...), full[j+1:]...)
				cons[0] = y
				rc.Ante, rc.ante, rc.cons = ante, h.countsOf(ante), h.countsOf(cons)
				formed++
				if !fn(rc) {
					return formed, skipped
				}
			}
		}
	}
	return formed, skipped
}

// featureRule is the one place a hold sequence becomes a temporal rule,
// and the one place a feature mask is consumed: over the granules set
// in mask — the feature's granules within the span, already restricted
// to active ones by whoever built it — it aggregates the rule's counts
// into support, confidence and lift over that sub-database, and scores
// the feature: FeatureGranules selected granules, HoldGranules of them
// holding. Only set bits are visited. ok is false when the selection
// carries no transaction of the antecedent. The emitted rule owns
// copies of the candidate's antecedent and consequent.
func (h *HoldTable) featureRule(rc RuleCandidate, hold []uint64, feature timegran.Pattern, mask []uint64) (tr TemporalRule, ok bool) {
	fullCounts, anteCounts, consCounts := rc.full, rc.ante, rc.cons
	if fullCounts == nil {
		return TemporalRule{}, false
	}
	var nTx, nFull, nAnte, nCons int64
	for wi, w := range mask {
		for ; w != 0; w &= w - 1 {
			gi := wi<<6 + bits.TrailingZeros64(w)
			nTx += int64(h.TxCounts[gi])
			nFull += int64(fullCounts[gi])
			if anteCounts != nil {
				nAnte += int64(anteCounts[gi])
			}
			if consCounts != nil {
				nCons += int64(consCounts[gi])
			}
		}
	}
	if nTx == 0 || nAnte == 0 {
		return TemporalRule{}, false
	}
	nOcc := popcount(mask)
	nHit := apriori.AndCount(mask, hold)
	conf := float64(nFull) / float64(nAnte)
	supp := float64(nFull) / float64(nTx)
	lift := 0.0
	if nCons > 0 {
		lift = conf / (float64(nCons) / float64(nTx))
	}
	return TemporalRule{
		Rule: apriori.Rule{
			Antecedent: rc.Ante.Clone(),
			Consequent: rc.Cons.Clone(),
			Count:      int(nFull),
			Support:    supp,
			Confidence: conf,
			Lift:       lift,
		},
		Feature:         feature,
		Granularity:     h.Cfg.Granularity,
		Freq:            float64(nHit) / float64(nOcc),
		HoldGranules:    nHit,
		FeatureGranules: nOcc,
	}, true
}
