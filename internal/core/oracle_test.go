package core

// Differential-oracle tests: a tiny brute-force reference miner —
// direct subset counting over every itemset × granule, plus literal
// O(n²..n⁴) re-derivations of each task's definition — checked against
// the real HoldTable build (all three counting backends, sequential
// and parallel) and all five task drivers on small randomized
// datasets. The oracle shares only pure arithmetic (CeilCount) and the
// timegran calendar algebra with the system under test; every counting
// and search path is independent.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// oracleCases is how many randomized datasets the differential suite
// replays; the acceptance bar is ≥ 100.
const oracleCases = 120

// floatTol is the comparison tolerance for aggregate statistics that
// the system and the oracle compute in different summation orders.
const floatTol = 1e-12

// ---------------------------------------------------------------------
// Random dataset generation.

type oracleData struct {
	tbl   *tdb.TxTable
	cfg   Config
	items []itemset.Item
	// txs[gi] lists the transactions of granule spanLo+gi.
	txs    [][]itemset.Set
	spanLo timegran.Granule
}

// genDataset draws a small random dataset: 4-6 items, 8-20 day
// granules, 0-6 transactions per granule (so some granules are
// inactive), and random thresholds. Item 0 is boosted so most datasets
// have at least one multi-item frequent itemset to exercise the rule
// paths. sparse moves the last two items to the top of the uint32 id
// space, where no table indexed by id can follow them; it draws nothing,
// so a seed yields the same baskets either way.
func genDataset(rng *rand.Rand, sparse bool) oracleData {
	nItems := 4 + rng.Intn(3)
	nGranules := 8 + rng.Intn(13)
	items := make([]itemset.Item, nItems)
	for i := range items {
		items[i] = itemset.Item(i + 1)
	}
	if sparse {
		items[nItems-2], items[nItems-1] = 3_999_999_999, 4_000_000_000
	}
	start := timegran.Start(19700+timegran.Granule(rng.Intn(400)), timegran.Day)

	tbl, err := tdb.NewTxTable("oracle")
	if err != nil {
		panic(err)
	}
	txs := make([][]itemset.Set, nGranules)
	for gi := 0; gi < nGranules; gi++ {
		nTx := rng.Intn(7) // 0 → inactive granule
		for t := 0; t < nTx; t++ {
			var s []itemset.Item
			for _, it := range items {
				p := 0.3
				if it <= 2 {
					p = 0.7 // frequent pair so rules exist
				}
				if rng.Float64() < p {
					s = append(s, it)
				}
			}
			if len(s) == 0 {
				s = append(s, items[rng.Intn(nItems)])
			}
			set := itemset.New(s...)
			at := start.AddDate(0, 0, gi)
			tbl.Append(at, set)
			txs[gi] = append(txs[gi], set)
		}
	}
	cfg := Config{
		Granularity:   timegran.Day,
		MinSupport:    0.2 + 0.4*rng.Float64(),
		MinConfidence: 0.4 + 0.4*rng.Float64(),
		MinFreq:       0.5 + 0.5*rng.Float64(),
	}
	if rng.Intn(4) == 0 {
		cfg.MaxK = 2 + rng.Intn(2)
	}
	// The table's span runs from the first to the last transaction, so
	// empty granules at the edges are outside it; trim the oracle's
	// granule axis to match (empty granules inside the span remain).
	lo, hi := -1, -1
	for gi, g := range txs {
		if len(g) > 0 {
			if lo < 0 {
				lo = gi
			}
			hi = gi
		}
	}
	if lo < 0 {
		lo, hi = 0, -1 // no data; caller skips via active()
	}
	return oracleData{
		tbl: tbl, cfg: cfg, items: items, txs: txs[lo : hi+1],
		spanLo: timegran.GranuleOf(start, timegran.Day) + int64(lo),
	}
}

// active reports whether the dataset has any non-empty granule; empty
// datasets are rejected by BuildHoldTable and skipped.
func (d oracleData) active() bool {
	for _, g := range d.txs {
		if len(g) > 0 {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// The brute-force reference.

// bruteTable is the reference counting substrate: every itemset (≤
// maxK) counted in every granule by direct subset tests.
type bruteTable struct {
	cfg       Config
	nGranules int
	spanLo    timegran.Granule
	txCounts  []int
	minCounts []int
	active    []bool
	// counts maps an itemset key to its per-granule count vector.
	counts map[string][]int32
	// byK[k] lists the granule-frequent k-itemsets in canonical order.
	byK [][]itemset.Set
}

// bruteBuild enumerates all non-empty subsets of the item universe and
// counts each in each granule directly.
func bruteBuild(d oracleData) *bruteTable {
	n := len(d.txs)
	b := &bruteTable{
		cfg: d.cfg, nGranules: n, spanLo: d.spanLo,
		txCounts:  make([]int, n),
		minCounts: make([]int, n),
		active:    make([]bool, n),
		counts:    make(map[string][]int32),
	}
	minGranuleTx := d.cfg.MinGranuleTx
	if minGranuleTx == 0 {
		minGranuleTx = 1
	}
	for gi, g := range d.txs {
		b.txCounts[gi] = len(g)
		if len(g) >= minGranuleTx {
			b.active[gi] = true
			b.minCounts[gi] = ceilCount(d.cfg.MinSupport, len(g))
		}
	}

	maxK := len(d.items)
	if d.cfg.MaxK != 0 && d.cfg.MaxK < maxK {
		maxK = d.cfg.MaxK
	}
	b.byK = make([][]itemset.Set, maxK+1)
	for mask := 1; mask < 1<<len(d.items); mask++ {
		var s []itemset.Item
		for i, it := range d.items {
			if mask&(1<<i) != 0 {
				s = append(s, it)
			}
		}
		if len(s) > maxK {
			continue
		}
		set := itemset.New(s...)
		v := make([]int32, n)
		for gi, g := range d.txs {
			if !b.active[gi] {
				continue // inactive granules are skipped entirely
			}
			for _, tx := range g {
				if tx.ContainsAll(set) {
					v[gi]++
				}
			}
		}
		frequent := false
		for gi := range v {
			if b.active[gi] && int(v[gi]) >= b.minCounts[gi] {
				frequent = true
				break
			}
		}
		if frequent {
			b.counts[set.Key()] = v
			b.byK[len(set)] = append(b.byK[len(set)], set)
		}
	}
	for k := range b.byK {
		itemset.SortSets(b.byK[k])
	}
	return b
}

// hold computes the rule's per-granule hold sequence from the brute
// counts, mirroring the definition (not the implementation): support
// threshold on the full itemset, confidence full/ante, both per
// granule, inactive granules never hold.
func (b *bruteTable) hold(ante, full itemset.Set) []bool {
	fullCounts := b.counts[full.Key()]
	anteCounts := b.counts[ante.Key()]
	hold := make([]bool, b.nGranules)
	if fullCounts == nil {
		return hold
	}
	for gi := range hold {
		if !b.active[gi] || int(fullCounts[gi]) < b.minCounts[gi] {
			continue
		}
		if anteCounts == nil || anteCounts[gi] == 0 {
			continue
		}
		if float64(fullCounts[gi])/float64(anteCounts[gi])+1e-12 >= b.cfg.MinConfidence {
			hold[gi] = true
		}
	}
	return hold
}

// aggRule aggregates a rule over the granules selected by keep,
// mirroring AggStats from the brute counts.
func (b *bruteTable) aggRule(ante, cons, full itemset.Set, keep func(gi int) bool) (apriori.Rule, bool) {
	fullCounts := b.counts[full.Key()]
	anteCounts := b.counts[ante.Key()]
	consCounts := b.counts[cons.Key()]
	if fullCounts == nil {
		return apriori.Rule{}, false
	}
	var nTx, nFull, nAnte, nCons int64
	for gi := 0; gi < b.nGranules; gi++ {
		if !b.active[gi] || !keep(gi) {
			continue
		}
		nTx += int64(b.txCounts[gi])
		nFull += int64(fullCounts[gi])
		if anteCounts != nil {
			nAnte += int64(anteCounts[gi])
		}
		if consCounts != nil {
			nCons += int64(consCounts[gi])
		}
	}
	if nTx == 0 || nAnte == 0 {
		return apriori.Rule{}, false
	}
	conf := float64(nFull) / float64(nAnte)
	lift := 0.0
	if nCons > 0 {
		lift = conf / (float64(nCons) / float64(nTx))
	}
	return apriori.Rule{
		Antecedent: ante, Consequent: cons,
		Count: int(nFull), Support: float64(nFull) / float64(nTx),
		Confidence: conf, Lift: lift,
	}, true
}

// eachRule enumerates the rule candidates exactly as the definition
// allows: every granule-frequent itemset of size ≥ 2, every
// single-item consequent.
func (b *bruteTable) eachRule(fn func(ante, cons, full itemset.Set)) {
	for k := 2; k < len(b.byK); k++ {
		for _, full := range b.byK[k] {
			for _, y := range full {
				fn(full.WithoutItem(y), itemset.Set{y}, full)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Backend agreement: every backend × worker setting must reproduce the
// brute counts exactly.

// backendMatrix is the counting configurations the oracle replays.
var backendMatrix = []struct {
	backend apriori.Backend
	workers int
}{
	{apriori.BackendNaive, 0},
	{apriori.BackendNaive, 3},
	{apriori.BackendBitmap, 0},
	{apriori.BackendBitmap, 3},
	{apriori.BackendRoaring, 0},
	{apriori.BackendRoaring, 3},
}

func checkHoldTable(t *testing.T, tag string, h *HoldTable, b *bruteTable) {
	t.Helper()
	if h.NGranules() != b.nGranules {
		t.Fatalf("%s: %d granules, oracle %d", tag, h.NGranules(), b.nGranules)
	}
	for gi := 0; gi < b.nGranules; gi++ {
		if h.TxCounts[gi] != b.txCounts[gi] || bitAt(h.Active, gi) != b.active[gi] || h.MinCounts[gi] != b.minCounts[gi] {
			t.Fatalf("%s: granule %d: tx/active/min = %d/%v/%d, oracle %d/%v/%d", tag, gi,
				h.TxCounts[gi], bitAt(h.Active, gi), h.MinCounts[gi],
				b.txCounts[gi], b.active[gi], b.minCounts[gi])
		}
	}
	// Level sets must match exactly; levels past the end are empty.
	maxLevels := len(h.ByK)
	if len(b.byK) > maxLevels {
		maxLevels = len(b.byK)
	}
	for k := 1; k < maxLevels; k++ {
		var got, want []itemset.Set
		if k < len(h.ByK) {
			got = h.ByK[k]
		}
		if k < len(b.byK) {
			want = b.byK[k]
		}
		if len(got) != len(want) {
			t.Fatalf("%s: level %d has %d frequent itemsets, oracle %d\n got %v\nwant %v",
				tag, k, len(got), len(want), got, want)
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s: level %d itemset %d = %v, oracle %v", tag, k, i, got[i], want[i])
			}
		}
		// And the count vectors themselves, granule by granule.
		for _, s := range want {
			hv := h.Counts(s)
			bv := b.counts[s.Key()]
			if hv == nil {
				t.Fatalf("%s: no counts retained for frequent %v", tag, s)
			}
			for gi := range bv {
				if hv[gi] != bv[gi] {
					t.Fatalf("%s: counts(%v)[%d] = %d, oracle %d", tag, s, gi, hv[gi], bv[gi])
				}
			}
			// And the stored frequency words: the support test, granule by
			// granule, against the oracle's own thresholds.
			hf := h.freqOf(s)
			for gi := range bv {
				if want := b.active[gi] && int(bv[gi]) >= b.minCounts[gi]; bitAt(hf, gi) != want {
					t.Fatalf("%s: freq(%v) granule %d = %v, oracle %v", tag, s, gi, bitAt(hf, gi), want)
				}
			}
		}
	}
}

// ---------------------------------------------------------------------
// Rule-set comparison helpers.

func ruleKey(r apriori.Rule) string {
	return fmt.Sprintf("%v=>%v", r.Antecedent, r.Consequent)
}

func sameRule(t *testing.T, tag string, got, want apriori.Rule) {
	t.Helper()
	if got.Count != want.Count ||
		math.Abs(got.Support-want.Support) > floatTol ||
		math.Abs(got.Confidence-want.Confidence) > floatTol ||
		math.Abs(got.Lift-want.Lift) > floatTol {
		t.Fatalf("%s: rule stats %+v, oracle %+v", tag, got, want)
	}
}

func sameTemporal(t *testing.T, tag string, got, want TemporalRule) {
	t.Helper()
	sameRule(t, tag, got.Rule, want.Rule)
	if got.HoldGranules != want.HoldGranules || got.FeatureGranules != want.FeatureGranules ||
		math.Abs(got.Freq-want.Freq) > floatTol {
		t.Fatalf("%s: freq %v (%d/%d), oracle %v (%d/%d)", tag,
			got.Freq, got.HoldGranules, got.FeatureGranules,
			want.Freq, want.HoldGranules, want.FeatureGranules)
	}
}

// ---------------------------------------------------------------------
// Task oracles.

// oraclePeriods re-derives Task I literally: every qualifying interval
// (held endpoints, ≥ minLen active granules, hold fraction ≥ MinFreq
// over active granules), keeping those not strictly contained in
// another qualifying interval. O(n³) per rule, which is the point — it
// cannot share a bug with the implementation's single-scan recurrence.
func (b *bruteTable) oraclePeriods(minLen int) map[string]PeriodRule {
	out := map[string]PeriodRule{}
	b.eachRule(func(ante, cons, full itemset.Set) {
		hold := b.hold(ante, full)
		n := b.nGranules
		qualifies := func(a, z int) bool {
			if !hold[a] || !hold[z] {
				return false
			}
			nAct, nHold := 0, 0
			for gi := a; gi <= z; gi++ {
				if b.active[gi] {
					nAct++
					if hold[gi] {
						nHold++
					}
				}
			}
			return nAct >= minLen && float64(nHold) >= b.cfg.MinFreq*float64(nAct)-1e-12
		}
		for a := 0; a < n; a++ {
			for z := a; z < n; z++ {
				if !qualifies(a, z) {
					continue
				}
				maximal := true
				for a2 := 0; a2 <= a && maximal; a2++ {
					for z2 := z; z2 < n; z2++ {
						if (a2 != a || z2 != z) && qualifies(a2, z2) {
							maximal = false
							break
						}
					}
				}
				if !maximal {
					continue
				}
				rule, ok := b.aggRule(ante, cons, full, func(gi int) bool { return gi >= a && gi <= z })
				if !ok {
					continue
				}
				nAct, nHold := 0, 0
				for gi := a; gi <= z; gi++ {
					if b.active[gi] {
						nAct++
						if hold[gi] {
							nHold++
						}
					}
				}
				iv := timegran.Interval{Lo: b.spanLo + int64(a), Hi: b.spanLo + int64(z)}
				key := fmt.Sprintf("%s@[%d,%d]", ruleKey(rule), iv.Lo, iv.Hi)
				out[key] = PeriodRule{
					TemporalRule: TemporalRule{
						Rule: rule, Freq: float64(nHold) / float64(nAct),
						HoldGranules: nHold, FeatureGranules: nAct,
					},
					Interval: iv,
				}
			}
		}
	})
	return out
}

// oracleCycles re-derives Task II's arithmetic half: brute-force every
// (length, offset), then an independent 5-line redundancy filter.
func (b *bruteTable) oracleCycles(maxLen, minReps int) map[string]CyclicRule {
	out := map[string]CyclicRule{}
	b.eachRule(func(ante, cons, full itemset.Set) {
		hold := b.hold(ante, full)
		var cycles []timegran.Cycle
		for l := 1; l <= maxLen; l++ {
			for o := 0; o < l; o++ {
				occ, hit := 0, 0
				for gi := o; gi < b.nGranules; gi += l {
					if !b.active[gi] {
						continue
					}
					occ++
					if hold[gi] {
						hit++
					}
				}
				if occ >= minReps && float64(hit) >= b.cfg.MinFreq*float64(occ)-1e-12 {
					abs := (b.spanLo + int64(o)) % int64(l)
					if abs < 0 {
						abs += int64(l)
					}
					cycles = append(cycles, timegran.Cycle{Length: int64(l), Offset: abs})
				}
			}
		}
		for _, c := range cycles {
			redundant := false
			for _, base := range cycles {
				if base.Length < c.Length && c.Length%base.Length == 0 && c.Offset%base.Length == base.Offset {
					redundant = true
					break
				}
			}
			if redundant {
				continue
			}
			keep := func(gi int) bool { return c.Matches(b.cfg.Granularity, b.spanLo+int64(gi)) }
			rule, ok := b.aggRule(ante, cons, full, keep)
			if !ok {
				continue
			}
			occ, hit := 0, 0
			for gi := range hold {
				if b.active[gi] && keep(gi) {
					occ++
					if hold[gi] {
						hit++
					}
				}
			}
			key := fmt.Sprintf("%s@%d/%d", ruleKey(rule), c.Length, c.Offset)
			out[key] = CyclicRule{
				TemporalRule: TemporalRule{
					Rule: rule, Freq: float64(hit) / float64(occ),
					HoldGranules: hit, FeatureGranules: occ,
				},
				Cycle: c,
			}
		}
	})
	return out
}

// oracleDuring re-derives Task III for a given feature.
func (b *bruteTable) oracleDuring(feature timegran.Pattern) (map[string]TemporalRule, int) {
	inFeature := make([]bool, b.nGranules)
	nFeature := 0
	for gi := range inFeature {
		if b.active[gi] && feature.Matches(b.cfg.Granularity, b.spanLo+int64(gi)) {
			inFeature[gi] = true
			nFeature++
		}
	}
	out := map[string]TemporalRule{}
	if nFeature == 0 {
		return out, 0
	}
	minHold := ceilCount(b.cfg.MinFreq, nFeature)
	b.eachRule(func(ante, cons, full itemset.Set) {
		hold := b.hold(ante, full)
		nHold := 0
		for gi, in := range inFeature {
			if in && hold[gi] {
				nHold++
			}
		}
		if nHold < minHold {
			return
		}
		rule, ok := b.aggRule(ante, cons, full, func(gi int) bool { return inFeature[gi] })
		if !ok {
			return
		}
		out[ruleKey(rule)] = TemporalRule{
			Rule: rule, Freq: float64(nHold) / float64(nFeature),
			HoldGranules: nHold, FeatureGranules: nFeature,
		}
	})
	return out, nFeature
}

// oracleCalendars re-derives Task II's calendar half for Day
// granularity: fold active granules onto weekday/month-day/month,
// qualify values (MinReps occurrences, hold fraction ≥ MinFreq), merge
// contiguous values, and keep only informative classes.
func (b *bruteTable) oracleCalendars(minReps int) map[string]CalendarRule {
	fields := []timegran.CalField{timegran.FieldWeekday, timegran.FieldMonthDay, timegran.FieldMonth}
	out := map[string]CalendarRule{}
	b.eachRule(func(ante, cons, full itemset.Set) {
		hold := b.hold(ante, full)
		for _, f := range fields {
			lo, hi := timegran.FieldDomain(f)
			occ := make([]int, hi-lo+1)
			hit := make([]int, hi-lo+1)
			for gi := range hold {
				if !b.active[gi] {
					continue
				}
				v := timegran.FieldValueAt(f, b.cfg.Granularity, b.spanLo+int64(gi)) - lo
				occ[v]++
				if hold[gi] {
					hit[v]++
				}
			}
			var ranges []timegran.FieldRange
			observed, qualifying := 0, 0
			for v := range occ {
				if occ[v] == 0 {
					continue
				}
				observed++
				if occ[v] >= minReps && float64(hit[v]) >= b.cfg.MinFreq*float64(occ[v])-1e-12 {
					qualifying++
					val := v + lo
					if n := len(ranges); n > 0 && ranges[n-1].Hi == val-1 {
						ranges[n-1].Hi = val
					} else {
						ranges = append(ranges, timegran.FieldRange{Lo: val, Hi: val})
					}
				}
			}
			if qualifying == 0 || qualifying == observed {
				continue
			}
			cal, err := timegran.NewCalendar(f, ranges...)
			if err != nil {
				continue
			}
			keep := func(gi int) bool {
				return b.active[gi] && cal.Matches(b.cfg.Granularity, b.spanLo+int64(gi))
			}
			rule, ok := b.aggRule(ante, cons, full, keep)
			if !ok {
				continue
			}
			nOcc, nHit := 0, 0
			for gi := range hold {
				if keep(gi) {
					nOcc++
					if hold[gi] {
						nHit++
					}
				}
			}
			key := fmt.Sprintf("%s@%d:%s", ruleKey(rule), f, cal.String())
			out[key] = CalendarRule{
				TemporalRule: TemporalRule{
					Rule: rule, Freq: float64(nHit) / float64(nOcc),
					HoldGranules: nHit, FeatureGranules: nOcc,
				},
				Field: f,
			}
		}
	})
	return out
}

// ---------------------------------------------------------------------
// The differential suite.

// duringFeatures are the Task III features the oracle rotates through;
// features covering no active granule are expected to error.
var duringFeatures = []string{
	"weekday in (1..3)",
	"weekday in (6..7)",
	"day in (1..15)",
}

// TestDifferentialOracle replays oracleCases random datasets through
// every backend and every task driver, comparing each against the
// brute-force reference.
func TestDifferentialOracle(t *testing.T) {
	checked := 0
	for c := 0; c < oracleCases; c++ {
		rng := rand.New(rand.NewSource(int64(1000 + c)))
		d := genDataset(rng, c%5 == 2)
		if !d.active() {
			continue
		}
		if c%4 == 1 {
			// Granules hold 0–6 transactions: a floor of 3 turns about
			// half of the non-empty ones inactive as well.
			d.cfg.MinGranuleTx = 3
		}
		b := bruteBuild(d)

		// 1. The counting substrate, across backends and parallelism.
		var h *HoldTable
		for _, m := range backendMatrix {
			cfg := d.cfg
			cfg.Backend = m.backend
			cfg.Workers = m.workers
			ht, err := BuildHoldTableContext(bg, d.tbl, cfg)
			if err != nil {
				t.Fatalf("case %d %v/w%d: %v", c, m.backend, m.workers, err)
			}
			checkHoldTable(t, fmt.Sprintf("case %d %v/w%d", c, m.backend, m.workers), ht, b)
			h = ht
		}
		// The same again with the pair triangle short of scratch (the
		// triangle of 4–6 items is 6–15 cells), rotating through the
		// production configurations.
		m := backendMatrix[2+c%(len(backendMatrix)-2)]
		cfg := d.cfg
		cfg.Backend, cfg.Workers = m.backend, m.workers
		ht, err := buildHoldTable(context.Background(), d.tbl, cfg, c%6, apriori.MaxVerticalItems)
		if err != nil {
			t.Fatalf("case %d %v/w%d row-blocked: %v", c, m.backend, m.workers, err)
		}
		checkHoldTable(t, fmt.Sprintf("case %d %v/w%d row-blocked", c, m.backend, m.workers), ht, b)

		// 2. Task I: valid periods.
		pcfg := PeriodConfig{MinLen: 1 + rng.Intn(3)}
		periods, err := MineValidPeriodsFromTableContext(bg, h, pcfg)
		if err != nil {
			t.Fatalf("case %d periods: %v", c, err)
		}
		wantP := b.oraclePeriods(pcfg.MinLen)
		if len(periods) != len(wantP) {
			t.Fatalf("case %d: %d period rules, oracle %d\n got %v\nwant %v",
				c, len(periods), len(wantP), periods, wantP)
		}
		for _, pr := range periods {
			key := fmt.Sprintf("%s@[%d,%d]", ruleKey(pr.Rule), pr.Interval.Lo, pr.Interval.Hi)
			want, ok := wantP[key]
			if !ok {
				t.Fatalf("case %d: unexpected period rule %s", c, key)
			}
			sameTemporal(t, fmt.Sprintf("case %d period %s", c, key), pr.TemporalRule, want.TemporalRule)
		}

		// 3. Task II: cycles.
		ccfg := CycleConfig{MaxLen: 4 + rng.Intn(8), MinReps: 2 + rng.Intn(2)}
		cycles, err := MineCyclesFromTableContext(bg, h, ccfg)
		if err != nil {
			t.Fatalf("case %d cycles: %v", c, err)
		}
		wantC := b.oracleCycles(ccfg.MaxLen, ccfg.MinReps)
		if len(cycles) != len(wantC) {
			t.Fatalf("case %d: %d cyclic rules, oracle %d", c, len(cycles), len(wantC))
		}
		for _, cr := range cycles {
			key := fmt.Sprintf("%s@%d/%d", ruleKey(cr.Rule), cr.Cycle.Length, cr.Cycle.Offset)
			want, ok := wantC[key]
			if !ok {
				t.Fatalf("case %d: unexpected cyclic rule %s", c, key)
			}
			sameTemporal(t, fmt.Sprintf("case %d cycle %s", c, key), cr.TemporalRule, want.TemporalRule)
		}

		// 4. Task II: calendar periodicities.
		cals, err := MineCalendarPeriodicitiesFromTableContext(bg, h, ccfg)
		if err != nil {
			t.Fatalf("case %d calendars: %v", c, err)
		}
		wantCal := b.oracleCalendars(ccfg.MinReps)
		if len(cals) != len(wantCal) {
			t.Fatalf("case %d: %d calendar rules, oracle %d\n got %v\nwant %v",
				c, len(cals), len(wantCal), cals, wantCal)
		}
		for _, cr := range cals {
			key := fmt.Sprintf("%s@%d:%s", ruleKey(cr.Rule), cr.Field, cr.Feature.String())
			want, ok := wantCal[key]
			if !ok {
				t.Fatalf("case %d: unexpected calendar rule %s", c, key)
			}
			sameTemporal(t, fmt.Sprintf("case %d calendar %s", c, key), cr.TemporalRule, want.TemporalRule)
		}

		// 5. Task III: during a feature.
		expr := duringFeatures[c%len(duringFeatures)]
		feature, err := timegran.ParsePattern(expr)
		if err != nil {
			t.Fatalf("bad feature %q: %v", expr, err)
		}
		wantD, nFeature := b.oracleDuring(feature)
		during, err := MineDuringFromTableContext(bg, h, feature)
		if nFeature == 0 {
			if err == nil {
				t.Fatalf("case %d: feature %q covers no active granule but MineDuring returned %d rules",
					c, expr, len(during))
			}
		} else {
			if err != nil {
				t.Fatalf("case %d during: %v", c, err)
			}
			if len(during) != len(wantD) {
				t.Fatalf("case %d: %d during rules, oracle %d", c, len(during), len(wantD))
			}
			for _, dr := range during {
				want, ok := wantD[ruleKey(dr.Rule)]
				if !ok {
					t.Fatalf("case %d: unexpected during rule %s", c, ruleKey(dr.Rule))
				}
				sameTemporal(t, fmt.Sprintf("case %d during %s", c, ruleKey(dr.Rule)), dr, want)
			}
		}

		// 6. Task: rule history. Pick a frequent multi-item itemset when
		// one exists and compare the per-granule series.
		var full itemset.Set
		for k := len(b.byK) - 1; k >= 2 && full == nil; k-- {
			if len(b.byK[k]) > 0 {
				full = b.byK[k][rng.Intn(len(b.byK[k]))]
			}
		}
		if full != nil {
			cons := itemset.Set{full[len(full)-1]}
			ante := full.WithoutItem(full[len(full)-1])
			hist, err := RuleHistoryFromTableContext(bg, h, ante, cons)
			if err != nil {
				t.Fatalf("case %d history: %v", c, err)
			}
			if len(hist) != b.nGranules {
				t.Fatalf("case %d: history has %d granules, oracle %d", c, len(hist), b.nGranules)
			}
			hold := b.hold(ante, full)
			fullCounts := b.counts[full.Key()]
			anteCounts := b.counts[ante.Key()]
			for gi, gs := range hist {
				if gs.Granule != b.spanLo+int64(gi) || gs.TxCount != b.txCounts[gi] ||
					gs.Count != int(fullCounts[gi]) || gs.Active != b.active[gi] || gs.Holds != hold[gi] {
					t.Fatalf("case %d history granule %d: %+v (oracle count %d active %v holds %v)",
						c, gi, gs, fullCounts[gi], b.active[gi], hold[gi])
				}
				wantSupp := 0.0
				if b.txCounts[gi] > 0 {
					wantSupp = float64(fullCounts[gi]) / float64(b.txCounts[gi])
				}
				wantConf := 0.0
				if anteCounts != nil && anteCounts[gi] > 0 {
					wantConf = float64(fullCounts[gi]) / float64(anteCounts[gi])
				}
				if math.Abs(gs.Support-wantSupp) > floatTol || math.Abs(gs.Confidence-wantConf) > floatTol {
					t.Fatalf("case %d history granule %d: supp/conf %v/%v, oracle %v/%v",
						c, gi, gs.Support, gs.Confidence, wantSupp, wantConf)
				}
			}
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d datasets exercised, need ≥ 100", checked)
	}
	t.Logf("differential oracle: %d randomized datasets agreed across %d backend configurations",
		checked, len(backendMatrix))
}

// ---------------------------------------------------------------------
// Append-interleaved grid: delta maintenance under random write
// traffic must stay bit-identical to a cold rebuild, across backends.

// bruteRebuild re-derives the brute reference for the current contents
// of a per-granule transcript (the append-interleaved grid's running
// mirror of the table).
func bruteRebuild(cfg Config, items []itemset.Item, byG map[timegran.Granule][]itemset.Set) *bruteTable {
	var lo, hi timegran.Granule
	first := true
	for g, txs := range byG {
		if len(txs) == 0 {
			continue
		}
		if first || g < lo {
			lo = g
		}
		if first || g > hi {
			hi = g
		}
		first = false
	}
	n := int(hi - lo + 1)
	txs := make([][]itemset.Set, n)
	for g, list := range byG {
		txs[g-lo] = list
	}
	return bruteBuild(oracleData{cfg: cfg, items: items, txs: txs, spanLo: lo})
}

// checkIdenticalTables asserts two hold tables are bit-identical:
// same span, same per-granule metadata, same levels in the same order,
// same count vectors.
func checkIdenticalTables(t *testing.T, tag string, got, want *HoldTable) {
	t.Helper()
	if got.Span != want.Span {
		t.Fatalf("%s: span %v, cold rebuild %v", tag, got.Span, want.Span)
	}
	for gi := range want.TxCounts {
		if got.TxCounts[gi] != want.TxCounts[gi] || bitAt(got.Active, gi) != bitAt(want.Active, gi) ||
			got.MinCounts[gi] != want.MinCounts[gi] {
			t.Fatalf("%s: granule %d: tx/active/min = %d/%v/%d, cold rebuild %d/%v/%d", tag, gi,
				got.TxCounts[gi], bitAt(got.Active, gi), got.MinCounts[gi],
				want.TxCounts[gi], bitAt(want.Active, gi), want.MinCounts[gi])
		}
	}
	if len(got.ByK) != len(want.ByK) {
		t.Fatalf("%s: %d levels, cold rebuild %d", tag, len(got.ByK), len(want.ByK))
	}
	for k := 1; k < len(want.ByK); k++ {
		if len(got.ByK[k]) != len(want.ByK[k]) {
			t.Fatalf("%s: level %d has %d itemsets, cold rebuild %d\n got %v\nwant %v",
				tag, k, len(got.ByK[k]), len(want.ByK[k]), got.ByK[k], want.ByK[k])
		}
		for i, s := range want.ByK[k] {
			if !got.ByK[k][i].Equal(s) {
				t.Fatalf("%s: level %d itemset %d = %v, cold rebuild %v", tag, k, i, got.ByK[k][i], s)
			}
			gv, wv := got.Counts(s), want.Counts(s)
			for gi := range wv {
				if gv[gi] != wv[gi] {
					t.Fatalf("%s: counts(%v)[%d] = %d, cold rebuild %d", tag, s, gi, gv[gi], wv[gi])
				}
			}
			if gf, wf := got.levelFreq(k, i), want.levelFreq(k, i); !slices.Equal(gf, wf) {
				t.Fatalf("%s: freq(%v) = %x, cold rebuild %x", tag, s, gf, wf)
			}
		}
	}
}

// TestAppendInterleavedOracle interleaves random append batches with
// maintenance rounds: each round appends batches, derives the dirty set
// through DirtySince, delta-maintains one hold-table chain per backend
// configuration (the oracle's matrix and auto, which every binary
// counts on), and requires every maintained table to be bit-identical
// to a cold rebuild of the same data AND to agree with the brute-force
// reference. Task I is re-mined from the maintained and rebuilt tables
// each round as the interleaved "statement".
//
// The rounds are the stream's shapes:
//   - random rounds of 1-3 batches of 1-4 baskets (inside the span,
//     extending it on either side, reviving inactive granules);
//   - a day-sized round of ≥ 64 baskets into one granule, which auto
//     counts on the flat index over the dirty region's rows;
//   - a riser storm: at a support that leaves a granule of 25 baskets
//     threshold 1, the first basket of a new granule and then its first
//     25, so every subset of them rises and its history is recounted.
func TestAppendInterleavedOracle(t *testing.T) {
	const cases = 25
	const rounds = 4
	matrix := append(slices.Clone(backendMatrix), []struct {
		backend apriori.Backend
		workers int
	}{{apriori.BackendAuto, 0}, {apriori.BackendAuto, 3}}...)
	checked := 0
	for c := 0; c < cases; c++ {
		rng := rand.New(rand.NewSource(int64(7000 + c)))
		d := genDataset(rng, false)
		if !d.active() {
			continue
		}
		checked++

		// Running per-granule transcript mirroring the table, for the
		// brute reference.
		byG := map[timegran.Granule][]itemset.Set{}
		for gi, g := range d.txs {
			if len(g) > 0 {
				byG[d.spanLo+timegran.Granule(gi)] = append([]itemset.Set(nil), g...)
			}
		}
		// appendTo appends n baskets to granule g, each item of items in
		// a basket with probability p.
		items := d.items
		appendTo := func(g timegran.Granule, n int, p float64) {
			for ; n > 0; n-- {
				var s []itemset.Item
				for _, it := range items {
					if rng.Float64() < p {
						s = append(s, it)
					}
				}
				if len(s) == 0 {
					s = append(s, items[rng.Intn(len(items))])
				}
				set := itemset.New(s...)
				d.tbl.Append(timegran.Start(g, timegran.Day), set)
				byG[g] = append(byG[g], set)
			}
		}

		// One maintained chain per backend configuration, all rooted at
		// the same epoch; root re-roots them at another support.
		maint := make([]*HoldTable, len(matrix))
		cfgs := make([]Config, len(matrix))
		var since int64
		root := func(base Config) {
			for i, m := range matrix {
				cfg := base
				cfg.Backend = m.backend
				cfg.Workers = m.workers
				cfgs[i] = cfg
				h, err := BuildHoldTableContext(bg, d.tbl, cfg)
				if err != nil {
					t.Fatalf("case %d %v/w%d: %v", c, m.backend, m.workers, err)
				}
				maint[i] = h
			}
			since = d.tbl.Epoch()
		}
		check := func(round string) {
			dirty, epoch, ok := d.tbl.DirtySince(timegran.Day, since)
			if !ok {
				t.Fatalf("case %d round %s: DirtySince lost the change log", c, round)
			}
			since = epoch
			b := bruteRebuild(cfgs[0], items, byG)

			for i := range maint {
				tag := fmt.Sprintf("case %d round %s %v/w%d", c, round, cfgs[i].Backend, cfgs[i].Workers)
				nh, err := maint[i].MaintainContext(bg, d.tbl, dirty)
				if err != nil {
					t.Fatalf("%s: Maintain: %v", tag, err)
				}
				cold, err := BuildHoldTableContext(bg, d.tbl, cfgs[i])
				if err != nil {
					t.Fatalf("%s: rebuild: %v", tag, err)
				}
				checkHoldTable(t, tag+" (vs oracle)", nh, b)
				checkIdenticalTables(t, tag, nh, cold)
				maint[i] = nh

				// The interleaved statement: Task I must answer the same
				// off the maintained table as off the rebuilt one.
				mp, err1 := MineValidPeriodsFromTableContext(bg, nh, PeriodConfig{MinLen: 1})
				cp, err2 := MineValidPeriodsFromTableContext(bg, cold, PeriodConfig{MinLen: 1})
				if (err1 == nil) != (err2 == nil) || len(mp) != len(cp) {
					t.Fatalf("%s: %d period rules (err %v) off maintained, %d (err %v) off rebuild",
						tag, len(mp), err1, len(cp), err2)
				}
				for ri := range cp {
					if mp[ri].Interval != cp[ri].Interval {
						t.Fatalf("%s: period %d interval %v, rebuild %v", tag, ri, mp[ri].Interval, cp[ri].Interval)
					}
					sameTemporal(t, fmt.Sprintf("%s period %d", tag, ri), mp[ri].TemporalRule, cp[ri].TemporalRule)
				}
			}
		}

		root(d.cfg)
		for round := 0; round < rounds; round++ {
			span, _ := d.tbl.Span(timegran.Day)
			for j := 1 + rng.Intn(3); j > 0; j-- {
				// Granules drawn from a window two days wider than the
				// span on each side, so rounds extend it in both
				// directions and land in inactive granules too.
				appendTo(span.Lo-2+timegran.Granule(rng.Intn(int(span.Len())+4)), 1+rng.Intn(4), 0.5)
			}
			check(strconv.Itoa(round))
		}
		span, _ := d.tbl.Span(timegran.Day)
		appendTo(span.Lo+timegran.Granule(rng.Intn(int(span.Len()))), 64+rng.Intn(17), 0.5)
		check("day")

		// The storm needs a history in which the storm baskets' subsets
		// occur yet are frequent nowhere. Four more items, which only two
		// day-sized granules past the span carry, give it one: at support
		// 0.03 a granule of 64-80 baskets has threshold 2 or 3, while the
		// new granule's has threshold 1 up to its 33rd basket.
		items = append(slices.Clone(d.items), 101, 102, 103, 104)
		span, _ = d.tbl.Span(timegran.Day)
		appendTo(span.Hi+1, 64+rng.Intn(17), 0.5)
		appendTo(span.Hi+2, 64+rng.Intn(17), 0.5)
		storm := d.cfg
		storm.MinSupport = 0.03
		root(storm)
		appendTo(span.Hi+3, 1, 0.8)
		check("storm-1")
		appendTo(span.Hi+3, 24, 0.8)
		check("storm-25")
	}
	if checked < 20 {
		t.Fatalf("only %d datasets exercised, need ≥ 20", checked)
	}
	t.Logf("append-interleaved oracle: %d datasets × %d rounds agreed across %d backend configurations",
		checked, rounds+3, len(matrix))
}

// TestOracleSelfCheck pins the brute-force reference on a hand-built
// dataset, so a bug in the oracle itself cannot silently agree with a
// matching bug in the system.
func TestOracleSelfCheck(t *testing.T) {
	tbl, err := tdb.NewTxTable("self")
	if err != nil {
		t.Fatal(err)
	}
	start := timegran.Start(20000, timegran.Day)
	// 4 granules: {ab, ab, a}, {ab}, {}, {b}.
	txs := [][]itemset.Set{
		{itemset.New(1, 2), itemset.New(1, 2), itemset.New(1)},
		{itemset.New(1, 2)},
		nil,
		{itemset.New(2)},
	}
	for gi, g := range txs {
		for _, s := range g {
			tbl.Append(start.AddDate(0, 0, gi), s)
		}
	}
	d := oracleData{
		tbl:    tbl,
		cfg:    Config{Granularity: timegran.Day, MinSupport: 0.5, MinConfidence: 0.6, MinFreq: 1},
		items:  []itemset.Item{1, 2},
		txs:    txs,
		spanLo: 20000,
	}
	b := bruteBuild(d)
	if !b.active[0] || !b.active[1] || b.active[2] || !b.active[3] {
		t.Fatalf("active = %v", b.active)
	}
	// {1,2} counts: 2,1,0,0; thresholds ceil(.5·3)=2, ceil(.5·1)=1.
	v := b.counts[itemset.New(1, 2).Key()]
	if v == nil || v[0] != 2 || v[1] != 1 || v[2] != 0 || v[3] != 0 {
		t.Fatalf("counts(12) = %v", v)
	}
	hold := b.hold(itemset.New(1), itemset.New(1, 2))
	// g0: supp 2≥2, conf 2/3=0.67 ≥ 0.6 → holds. g1: 1≥1, conf 1/1 →
	// holds. g3: count 0 → no.
	want := []bool{true, true, false, false}
	for gi := range want {
		if hold[gi] != want[gi] {
			t.Fatalf("hold = %v, want %v", hold, want)
		}
	}
	sorted := b.byK[1]
	if len(sorted) != 2 || !sort.SliceIsSorted(sorted, func(i, j int) bool { return sorted[i].Compare(sorted[j]) < 0 }) {
		t.Fatalf("level 1 = %v", sorted)
	}
}
