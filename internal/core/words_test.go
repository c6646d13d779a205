package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/timegran"
)

// The task detectors run over packed words. This file keeps the
// straightforward one-bool-per-granule implementations they replaced —
// here only, as oracles — and holds each word detector to its oracle
// over random hold and activity vectors.

// packBits packs one bool per granule into the operators' word form.
func packBits(v []bool) []uint64 {
	words := make([]uint64, granuleWords(len(v)))
	for gi, on := range v {
		if on {
			words[gi>>6] |= 1 << uint(gi&63)
		}
	}
	return words
}

// unpackBits is the inverse of packBits over n granules.
func unpackBits(words []uint64, n int) []bool {
	v := make([]bool, n)
	for gi := range v {
		v[gi] = bitAt(words, gi)
	}
	return v
}

// holdSequence is Holds with its own scratch, one bool per granule, for
// a candidate named by its sets: false when its full itemset is not
// granule-frequent (there are no words to hold on).
func holdSequence(h *HoldTable, rc RuleCandidate) ([]bool, bool) {
	rc, ok := h.candidate(rc.Ante, rc.Cons)
	if !ok {
		return nil, false
	}
	hold := make([]uint64, len(h.Active))
	h.Holds(rc, hold)
	return unpackBits(hold, h.NGranules()), true
}

// detectCyclesOver runs the word detector on bool vectors.
func detectCyclesOver(hold, active []bool, spanLo int64, maxLen, minReps int, minFreq float64) []timegran.Cycle {
	return detectCycles(packBits(hold), cycleClasses(packBits(active), len(hold), spanLo, maxLen, minReps, minFreq))
}

// denseIntervalsOver runs the word period scan on bool vectors.
func denseIntervalsOver(hold, active []bool, minFreq float64, minLen int) []ivOff {
	return newDenseScan(minFreq, minLen, len(active)).intervals(nil, holdPositions(nil, packBits(hold), packBits(active)))
}

// ---------------------------------------------------------------------
// Oracles: the per-granule definitions, one bool at a time.

// detectCyclesBool: for every (ℓ, o), walk the occurrences, count the
// active ones and the held ones.
func detectCyclesBool(hold, active []bool, spanLo int64, maxLen, minReps int, minFreq float64) []timegran.Cycle {
	var out []timegran.Cycle
	n := len(hold)
	for l := 1; l <= maxLen; l++ {
		for o := 0; o < l; o++ {
			occ, hit := 0, 0
			for gi := o; gi < n; gi += l {
				if !active[gi] {
					continue
				}
				occ++
				if hold[gi] {
					hit++
				}
			}
			if occ < minReps {
				continue
			}
			if float64(hit) >= minFreq*float64(occ)-1e-12 {
				absOff := (spanLo + int64(o)) % int64(l)
				if absOff < 0 {
					absOff += int64(l)
				}
				out = append(out, timegran.Cycle{Length: int64(l), Offset: absOff})
			}
		}
	}
	return out
}

// maximalDenseIntervalsBool: for every holding start scan the whole
// rest of the span, then drop contained intervals.
func maximalDenseIntervalsBool(hold, active []bool, minFreq float64, minLen int) []ivOff {
	n := len(hold)
	var cands []ivOff
	for a := 0; a < n; a++ {
		if !hold[a] {
			continue
		}
		nAct, nHold := 0, 0
		best := -1
		for b := a; b < n; b++ {
			if active[b] {
				nAct++
				if hold[b] {
					nHold++
				}
			}
			if hold[b] && nAct >= minLen && float64(nHold) >= minFreq*float64(nAct)-1e-12 {
				best = b
			}
		}
		if best >= 0 {
			cands = append(cands, ivOff{Lo: a, Hi: best})
		}
	}
	var out []ivOff
	maxHi := -1
	for _, c := range cands {
		if c.Hi > maxHi {
			out = append(out, c)
			maxHi = c.Hi
		}
	}
	return out
}

// calendarRangesBool folds the granules onto the values of one field
// with an occ/hit counter pair per value and returns the qualifying
// value ranges; ok is false when the field is uninformative.
func calendarRangesBool(hold, active []bool, f timegran.CalField, g timegran.Granularity, spanLo int64, minReps int, minFreq float64) (ranges []timegran.FieldRange, ok bool) {
	lo, hi := timegran.FieldDomain(f)
	occ := make([]int, hi-lo+1)
	hit := make([]int, hi-lo+1)
	for gi := range hold {
		if !active[gi] {
			continue
		}
		v := timegran.FieldValueAt(f, g, spanLo+int64(gi)) - lo
		occ[v]++
		if hold[gi] {
			hit[v]++
		}
	}
	observed, qualifying := 0, 0
	for v := range occ {
		if occ[v] == 0 {
			continue
		}
		observed++
		if occ[v] >= minReps && float64(hit[v]) >= minFreq*float64(occ[v])-1e-12 {
			qualifying++
			val := v + lo
			if n := len(ranges); n > 0 && ranges[n-1].Hi == val-1 {
				ranges[n-1].Hi = val
			} else {
				ranges = append(ranges, timegran.FieldRange{Lo: val, Hi: val})
			}
		}
	}
	return ranges, qualifying != 0 && qualifying != observed
}

// featureRuleBool aggregates over the active granules keep selects,
// asking keep — the pattern's own date arithmetic — granule by granule.
func featureRuleBool(h *HoldTable, rc RuleCandidate, hold []bool, feature timegran.Pattern, keep func(gi int) bool) (TemporalRule, bool) {
	n := h.NGranules()
	fullCounts, anteCounts, consCounts := flatten(h.countsOf(rc.Full), n), flatten(h.countsOf(rc.Ante), n), flatten(h.countsOf(rc.Cons), n)
	var nTx, nFull, nAnte, nCons int64
	nOcc, nHit := 0, 0
	for gi := 0; gi < h.NGranules(); gi++ {
		if !bitAt(h.Active, gi) || !keep(gi) {
			continue
		}
		nOcc++
		if hold[gi] {
			nHit++
		}
		nTx += int64(h.TxCounts[gi])
		nFull += int64(fullCounts[gi])
		nAnte += int64(anteCounts[gi])
		nCons += int64(consCounts[gi])
	}
	if nTx == 0 || nAnte == 0 {
		return TemporalRule{}, false
	}
	conf := float64(nFull) / float64(nAnte)
	lift := 0.0
	if nCons > 0 {
		lift = conf / (float64(nCons) / float64(nTx))
	}
	return TemporalRule{
		Rule: apriori.Rule{
			Antecedent: rc.Ante, Consequent: rc.Cons, Count: int(nFull),
			Support: float64(nFull) / float64(nTx), Confidence: conf, Lift: lift,
		},
		Feature: feature, Granularity: h.Cfg.Granularity,
		Freq: float64(nHit) / float64(nOcc), HoldGranules: nHit, FeatureGranules: nOcc,
	}, true
}

// ---------------------------------------------------------------------
// Random vectors.

// wordCase is one random detector input: a span of n granules from lo,
// an activity vector and a hold sequence inside it, and thresholds.
type wordCase struct {
	n            int
	lo           int64
	active, hold []bool
	minFreq      float64
	maxLen       int
	minReps      int
	minLen       int
}

func (c wordCase) String() string {
	return fmt.Sprintf("n=%d lo=%d minFreq=%g maxLen=%d minReps=%d minLen=%d", c.n, c.lo, c.minFreq, c.maxLen, c.minReps, c.minLen)
}

// genWordCase draws a case that walks the word form's edges: span
// lengths around the 64-bit boundaries and past a year, inactive runs
// at either end, a negative span start in every residue class, cycle
// lengths beyond the span, exact and fuzzy frequency, and empty and
// full hold sequences.
func genWordCase(r *rand.Rand) wordCase {
	lengths := []int{1, 63, 64, 65, 365, 1165}
	c := wordCase{
		n:       lengths[r.Intn(len(lengths))],
		lo:      int64(r.Intn(4000)) - 2000,
		minFreq: []float64{1, 0.75, 0.9, 0.5}[r.Intn(4)],
		minReps: 1 + r.Intn(3),
		minLen:  1 + r.Intn(4),
	}
	c.maxLen = 1 + r.Intn(40)
	if r.Intn(4) == 0 {
		c.maxLen = c.n + 1 + r.Intn(5) // MaxLen > span
		if c.maxLen > 80 {
			c.maxLen = 80 // the bool oracle is O(maxLen·n)
		}
	}
	c.active, c.hold = make([]bool, c.n), make([]bool, c.n)
	pActive := []float64{1, 0.9, 0.5}[r.Intn(3)]
	for gi := range c.active {
		c.active[gi] = r.Float64() < pActive
	}
	// Inactive runs at either end.
	if r.Intn(2) == 0 {
		for gi := 0; gi < r.Intn(c.n/4+1); gi++ {
			c.active[gi] = false
		}
	}
	if r.Intn(2) == 0 {
		for gi := c.n - r.Intn(c.n/4+1); gi < c.n; gi++ {
			c.active[gi] = false
		}
	}
	pHold := []float64{0, 1, 0.95, 0.5, 0.1}[r.Intn(5)] // all-false, all-true, dense, mixed, sparse
	period := 1 + r.Intn(9)                             // a planted cycle under the noise
	for gi := range c.hold {
		c.hold[gi] = c.active[gi] && (r.Float64() < pHold || (pHold > 0 && pHold < 1 && gi%period == 0))
	}
	return c
}

// quickWordCases checks law over random cases, reporting the failing
// case's parameters.
func quickWordCases(t *testing.T, law func(c wordCase) bool) {
	t.Helper()
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(r.Int63())
		},
	}
	check := func(seed int64) bool {
		c := genWordCase(rand.New(rand.NewSource(seed)))
		if !law(c) {
			t.Logf("failing case: %v", c)
			return false
		}
		return true
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// ---------------------------------------------------------------------
// Laws.

// Each law holds the detector to its oracle on the bare vectors, then
// the operator around it — masks, aggregation and ordering included —
// to the oracle's rules over a vectorTable.

func TestQuickDetectCyclesMatchesBool(t *testing.T) {
	quickWordCases(t, func(c wordCase) bool {
		got := detectCyclesOver(c.hold, c.active, c.lo, c.maxLen, c.minReps, c.minFreq)
		cycles := detectCyclesBool(c.hold, c.active, c.lo, c.maxLen, c.minReps, c.minFreq)
		sortCycles(got)
		sortCycles(cycles)
		if !reflect.DeepEqual(got, cycles) {
			return false
		}
		h := vectorTable(c)
		rules, err := MineCyclesFromTableContext(bg, h, CycleConfig{MaxLen: c.maxLen, MinReps: c.minReps})
		if err != nil {
			t.Log(err)
			return false
		}
		var want []CyclicRule
		for _, rc := range vectorCandidates() {
			for _, cyc := range FilterRedundantCycles(cycles) {
				occurs := func(gi int) bool { return cyc.Matches(timegran.Day, c.lo+int64(gi)) }
				if tr, ok := featureRuleBool(h, rc, c.hold, cyc, occurs); ok {
					want = append(want, CyclicRule{TemporalRule: tr, Cycle: cyc})
				}
			}
		}
		slices.SortFunc(want, CyclicRule.Compare)
		return reflect.DeepEqual(rules, want)
	})
}

func TestQuickMaximalDenseIntervalsMatchesBool(t *testing.T) {
	quickWordCases(t, func(c wordCase) bool {
		got := denseIntervalsOver(c.hold, c.active, c.minFreq, c.minLen)
		periods := maximalDenseIntervalsBool(c.hold, c.active, c.minFreq, c.minLen)
		if !reflect.DeepEqual(got, periods) {
			return false
		}
		h := vectorTable(c)
		rules, err := MineValidPeriodsFromTableContext(bg, h, PeriodConfig{MinLen: c.minLen})
		if err != nil {
			t.Log(err)
			return false
		}
		var want []PeriodRule
		for _, rc := range vectorCandidates() {
			for _, iv := range periods {
				abs := timegran.Interval{Lo: c.lo + int64(iv.Lo), Hi: c.lo + int64(iv.Hi)}
				window, err := timegran.NewWindow(timegran.Start(abs.Lo, timegran.Day), timegran.Start(abs.Hi+1, timegran.Day))
				if err != nil {
					t.Log(err)
					return false
				}
				inPeriod := func(gi int) bool { return gi >= iv.Lo && gi <= iv.Hi }
				if tr, ok := featureRuleBool(h, rc, c.hold, window, inPeriod); ok {
					want = append(want, PeriodRule{TemporalRule: tr, Interval: abs})
				}
			}
		}
		slices.SortFunc(want, PeriodRule.Compare)
		return reflect.DeepEqual(rules, want)
	})
}

// vectorTable builds a hold table over c's span whose two rule
// candidates, {1}⇒{2} and {2}⇒{1}, hold exactly where c.hold does: one
// transaction per active granule, containing both items where the rule
// holds and only one of them elsewhere, at thresholds any co-occurrence
// clears. The operators then see c.hold and c.active as their vectors.
func vectorTable(c wordCase) *HoldTable {
	h := &HoldTable{
		Cfg:       Config{Granularity: timegran.Day, MinSupport: 1, MinConfidence: 1, MinFreq: c.minFreq, MinGranuleTx: 1},
		Span:      timegran.Interval{Lo: c.lo, Hi: c.lo + int64(c.n) - 1},
		TxCounts:  make([]int, c.n),
		MinCounts: make([]int, c.n),
		Active:    packBits(c.active),
	}
	one, two, both := make([]int32, c.n), make([]int32, c.n), make([]int32, c.n)
	for gi, on := range c.active {
		if !on {
			continue
		}
		h.NActive++
		h.TxCounts[gi], h.MinCounts[gi] = 1, 1
		switch {
		case c.hold[gi]:
			one[gi], two[gi], both[gi] = 1, 1, 1
		case gi%2 == 0:
			one[gi] = 1
		default:
			two[gi] = 1
		}
	}
	return withLevels(h, [][]itemset.Set{{itemset.New(1), itemset.New(2)}, {itemset.New(1, 2)}},
		[][][]int32{{one, two}, {both}})
}

// withLevels gives a hand-built table its levels 1, 2, … the way a
// build stores them: each level's itemsets, in canonical order, appended
// with the frequency words of its count vectors and the vectors, as
// blocks over them.
func withLevels(h *HoldTable, levels [][]itemset.Set, vecs [][][]int32) *HoldTable {
	thr := h.thresholds()
	fw := make([]uint64, len(h.Active))
	h.ByK, h.freq, h.vecs = [][]itemset.Set{nil}, [][]uint64{nil}, [][]*block{nil}
	for k, level := range levels {
		var words []uint64
		for _, v := range vecs[k] {
			frequentGranules(fw, v, thr)
			words = append(words, fw...)
		}
		h.appendLevel(level, words, wrapRows(vecs[k], len(h.Active)))
	}
	return h
}

// vectorCandidates are the rule candidates of a vectorTable.
func vectorCandidates() []RuleCandidate {
	return []RuleCandidate{
		{Ante: itemset.New(2), Cons: itemset.New(1), Full: itemset.New(1, 2)},
		{Ante: itemset.New(1), Cons: itemset.New(2), Full: itemset.New(1, 2)},
	}
}

func TestQuickCalendarsMatchBool(t *testing.T) {
	quickWordCases(t, func(c wordCase) bool {
		h := vectorTable(c)
		got, err := MineCalendarPeriodicitiesFromTableContext(bg, h, CycleConfig{MinReps: c.minReps})
		if err != nil {
			t.Log(err)
			return false
		}
		var want []CalendarRule
		for _, rc := range vectorCandidates() {
			for _, f := range calendarFieldsFor(timegran.Day) {
				ranges, ok := calendarRangesBool(c.hold, c.active, f, timegran.Day, c.lo, c.minReps, c.minFreq)
				if !ok {
					continue
				}
				cal, err := timegran.NewCalendar(f, ranges...)
				if err != nil {
					t.Log(err)
					return false
				}
				inClass := func(gi int) bool { return cal.Matches(timegran.Day, c.lo+int64(gi)) }
				if tr, ok := featureRuleBool(h, rc, c.hold, cal, inClass); ok {
					want = append(want, CalendarRule{TemporalRule: tr, Field: f})
				}
			}
		}
		slices.SortFunc(want, CalendarRule.Compare)
		return reflect.DeepEqual(got, want)
	})
}

func TestQuickDuringMatchesBool(t *testing.T) {
	features := []timegran.Pattern{
		timegran.Always{},
		timegran.Cycle{Length: 7, Offset: 3},
		timegran.Cycle{Length: 64, Offset: 63},
		timegran.Calendar{Field: timegran.FieldWeekday, Ranges: []timegran.FieldRange{{Lo: 6, Hi: 7}}},
		timegran.Calendar{Field: timegran.FieldMonth, Ranges: []timegran.FieldRange{{Lo: 6, Hi: 8}}},
	}
	fi := 0
	quickWordCases(t, func(c wordCase) bool {
		feature := features[fi%len(features)]
		fi++
		h := vectorTable(c)
		got, err := MineDuringFromTableContext(bg, h, feature)
		// The definition: count the feature's active granules, and among
		// them the held ones, with a branch per granule.
		inFeature := func(gi int) bool { return feature.Matches(timegran.Day, c.lo+int64(gi)) }
		nFeature, nHold := 0, 0
		for gi := range c.hold {
			if c.active[gi] && inFeature(gi) {
				nFeature++
				if c.hold[gi] {
					nHold++
				}
			}
		}
		if nFeature == 0 {
			return err != nil
		}
		if err != nil {
			t.Log(err)
			return false
		}
		var want []TemporalRule
		if nHold >= ceilCount(c.minFreq, nFeature) {
			for _, rc := range vectorCandidates() {
				if tr, ok := featureRuleBool(h, rc, c.hold, feature, inFeature); ok {
					want = append(want, tr)
				}
			}
		}
		slices.SortFunc(want, TemporalRule.Compare)
		return reflect.DeepEqual(got, want)
	})
}

// holdsBool is the per-granule Holds the word form replaced: every
// granule of the span takes the support test against thresholds() —
// inactive granules at MaxInt32 — and the ones that pass take the
// confidence test.
func holdsBool(h *HoldTable, rc RuleCandidate) []bool {
	fullCounts := flatten(h.countsOf(rc.Full), h.NGranules())
	anteCounts := flatten(h.countsOf(rc.Ante), h.NGranules())
	thr := h.thresholds()
	hold := make([]bool, h.NGranules())
	for gi, c := range fullCounts {
		if c < thr[gi] || anteCounts == nil || anteCounts[gi] == 0 {
			continue
		}
		hold[gi] = float64(c)/float64(anteCounts[gi])+1e-12 >= h.Cfg.MinConfidence
	}
	return hold
}

// randomCountTable is a hold table over items {1, 2, 3} whose count
// vectors are drawn independently — not a consistent build, which the
// law does not need: Holds must equal its oracle on any vectors. It
// mixes inactive granules (whose counts may be large), active granules
// whose threshold no count reaches (MaxInt32), zero antecedent counts,
// and every span length the word form has an edge at.
func randomCountTable(r *rand.Rand) *HoldTable {
	n := []int{1, 63, 64, 65, 365}[r.Intn(5)]
	h := &HoldTable{
		Cfg:       Config{Granularity: timegran.Day, MinSupport: 0.5, MinConfidence: []float64{0, 0.3, 0.6, 1}[r.Intn(4)], MinFreq: 1, MinGranuleTx: 1},
		Span:      timegran.Interval{Lo: int64(r.Intn(100)), Hi: 0},
		TxCounts:  make([]int, n),
		MinCounts: make([]int, n),
		Active:    make([]uint64, granuleWords(n)),
	}
	levels := [][]itemset.Set{
		{itemset.New(1), itemset.New(2), itemset.New(3)},
		{itemset.New(1, 2), itemset.New(1, 3), itemset.New(2, 3)},
		{itemset.New(1, 2, 3)}}
	h.Span.Hi = h.Span.Lo + int64(n) - 1
	pActive := []float64{1, 0.7, 0.2}[r.Intn(3)]
	for gi := range h.TxCounts {
		h.TxCounts[gi] = r.Intn(12)
		if r.Float64() < pActive {
			setBit(h.Active, gi)
			h.NActive++
			h.MinCounts[gi] = 1 + r.Intn(4)
			if r.Intn(8) == 0 {
				h.MinCounts[gi] = math.MaxInt32
			}
		}
	}
	vecs := make([][][]int32, len(levels))
	for k, level := range levels {
		for range level {
			v := make([]int32, n)
			for gi := range v {
				switch {
				case !bitAt(h.Active, gi) && r.Intn(2) == 0:
					v[gi] = math.MaxInt32 - 1
				case r.Intn(4) != 0:
					v[gi] = int32(r.Intn(6))
				}
			}
			vecs[k] = append(vecs[k], v)
		}
	}
	return withLevels(h, levels, vecs)
}

// TestQuickHoldsMatchesBool: the word form of Holds — the confidence
// test on the set bits of the full itemset's stored frequency words, as
// EachRuleCandidate hands them over — equals the per-granule loop on
// every rule candidate.
func TestQuickHoldsMatchesBool(t *testing.T) {
	law := func(seed int64) bool {
		h := randomCountTable(rand.New(rand.NewSource(seed)))
		hold := make([]uint64, len(h.Active))
		ok := true
		h.EachRuleCandidate(1, nil, func(rc RuleCandidate) bool {
			want := holdsBool(h, rc)
			h.Holds(rc, hold)
			if got := unpackBits(hold, h.NGranules()); !reflect.DeepEqual(got, want) {
				t.Logf("seed %d: %v => %v: got %v, want %v", seed, rc.Ante, rc.Cons, got, want)
				ok = false
			}
			return ok
		})
		return ok
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
