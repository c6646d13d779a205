package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"reflect"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// TestWeekGranularityMining mines the same fixture at Week granularity:
// the seasonal week (days 7..13 = exactly the second Monday-aligned
// week) becomes a single-granule feature.
func TestWeekGranularityMining(t *testing.T) {
	tbl := buildFixture(t)
	cfg := fixtureConfig()
	cfg.Granularity = timegran.Week
	h := mustBuild(t, tbl, cfg)
	if h.NGranules() != 4 {
		t.Fatalf("weeks = %d, want 4", h.NGranules())
	}
	for gi, n := range h.TxCounts {
		if n != 70 {
			t.Errorf("week %d has %d transactions, want 70", gi, n)
		}
	}
	hold, ok := holdSequence(h, RuleCandidate{
		Ante: itemset.New(bbq), Cons: itemset.New(charcoal),
		Full: itemset.New(bbq, charcoal),
	})
	if !ok {
		t.Fatal("seasonal rule not counted at week granularity")
	}
	// Week 1 (days 7..13) is fully seasonal: 70/70 transactions.
	want := []bool{false, true, false, false}
	if !reflect.DeepEqual(hold, want) {
		t.Errorf("weekly hold = %v, want %v", hold, want)
	}

	// The weekend rule holds 18/70 ≈ 26% per week: below 50% support,
	// invisible at week granularity — granularity choice matters.
	if _, ok := holdSequence(h, RuleCandidate{
		Ante: itemset.New(choc), Cons: itemset.New(wine),
		Full: itemset.New(choc, wine),
	}); ok {
		hold, _ := holdSequence(h, RuleCandidate{
			Ante: itemset.New(choc), Cons: itemset.New(wine),
			Full: itemset.New(choc, wine),
		})
		for gi, hd := range hold {
			if hd {
				t.Errorf("weekend rule holds in week %d at week granularity", gi)
			}
		}
	}
}

// TestHourGranularityMining plants an evening pattern and mines hours.
func TestHourGranularityMining(t *testing.T) {
	tbl, _ := tdb.NewTxTable("hours")
	start := time.Date(2024, 3, 4, 0, 0, 0, 0, time.UTC)
	for day := 0; day < 7; day++ {
		for hour := 0; hour < 24; hour++ {
			at := start.AddDate(0, 0, day).Add(time.Duration(hour) * time.Hour)
			evening := hour >= 18 && hour <= 20
			for i := 0; i < 6; i++ {
				items := []itemset.Item{1}
				if evening && i < 5 {
					items = append(items, 2, 3)
				}
				tbl.Append(at.Add(time.Duration(i)*time.Minute), itemset.New(items...))
			}
		}
	}
	cfg := Config{Granularity: timegran.Hour, MinSupport: 0.5, MinConfidence: 0.7, MinFreq: 1}
	cals, err := MineCalendarPeriodicitiesFromTableContext(bg, mustBuild(t, tbl, cfg), CycleConfig{MinReps: 3})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range cals {
		if r.Field == timegran.FieldHour &&
			r.Rule.Antecedent.Equal(itemset.New(2)) && r.Rule.Consequent.Equal(itemset.New(3)) {
			found = true
			cal := r.Feature.(timegran.Calendar)
			if len(cal.Ranges) != 1 || cal.Ranges[0] != (timegran.FieldRange{Lo: 18, Hi: 20}) {
				t.Errorf("evening ranges = %v", cal.Ranges)
			}
		}
	}
	if !found {
		t.Error("evening hour class not discovered at hour granularity")
	}
}

// TestQuickFeatureRuleMatchesBruteForce verifies the shared emit step —
// aggregate support/confidence and the covered/held granule counts —
// against direct counting over the raw transactions of the granules a
// random keep-mask selects (featureRule takes it packed).
func TestQuickFeatureRuleMatchesBruteForce(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 20,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(r.Int63())
		},
	}
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tbl := randomTemporalTable(r)
		mcfg := Config{Granularity: timegran.Day, MinSupport: 0.3, MinConfidence: 0.5, MinFreq: 1}
		h, err := BuildHoldTableContext(bg, tbl, mcfg)
		if err != nil {
			return false
		}
		mask := make([]bool, h.NGranules())
		for gi := range mask {
			mask[gi] = r.Intn(2) == 0
		}
		// The mask form: the selected granules, restricted to active ones
		// as every operator's feature mask is.
		keep := packBits(mask)
		apriori.AndInto(keep, keep, h.Active)
		hold := make([]uint64, len(h.Active))
		okAll := true
		h.EachRuleCandidate(1, nil, func(rc RuleCandidate) bool {
			h.Holds(rc, hold)
			got, ok := h.featureRule(rc, hold, timegran.Always{}, keep)
			// Brute force over the raw transactions, granule by granule.
			nTx := make([]int, h.NGranules())
			nFull := make([]int, h.NGranules())
			nAnte := make([]int, h.NGranules())
			tbl.Each(func(tx tdb.Tx) bool {
				gi := int(timegran.GranuleOf(tx.At, timegran.Day) - h.Span.Lo)
				nTx[gi]++
				if tx.Items.ContainsAll(rc.Full) {
					nFull[gi]++
				}
				if tx.Items.ContainsAll(rc.Ante) {
					nAnte[gi]++
				}
				return true
			})
			var tx, full, ante, covered, held int
			for gi := range mask {
				if nTx[gi] == 0 || !mask[gi] { // MinGranuleTx defaults to 1
					continue
				}
				tx, full, ante = tx+nTx[gi], full+nFull[gi], ante+nAnte[gi]
				covered++
				if nFull[gi] >= ceilCount(mcfg.MinSupport, nTx[gi]) &&
					float64(nFull[gi])/float64(nAnte[gi])+1e-12 >= mcfg.MinConfidence {
					held++
				}
			}
			if tx == 0 || ante == 0 {
				okAll = !ok
				return okAll
			}
			near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }
			okAll = ok &&
				got.Rule.Count == full &&
				near(got.Rule.Support, float64(full)/float64(tx)) &&
				near(got.Rule.Confidence, float64(full)/float64(ante)) &&
				got.FeatureGranules == covered &&
				got.HoldGranules == held &&
				near(got.Freq, float64(held)/float64(covered))
			return okAll
		})
		return okAll
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Error(err)
	}
}

// TestMinGranuleTx verifies sparse granules are neutral everywhere.
func TestMinGranuleTx(t *testing.T) {
	tbl, _ := tdb.NewTxTable("sparse")
	at := time.Date(2024, 1, 1, 9, 0, 0, 0, time.UTC)
	for d := 0; d < 10; d++ {
		n := 6
		if d == 4 {
			n = 2 // sparse day
		}
		for i := 0; i < n; i++ {
			tbl.Append(at.AddDate(0, 0, d), itemset.New(1, 2))
		}
	}
	cfg := Config{Granularity: timegran.Day, MinSupport: 0.5, MinConfidence: 0.5, MinFreq: 1, MinGranuleTx: 5}
	h := mustBuild(t, tbl, cfg)
	if h.NActive != 9 {
		t.Fatalf("active = %d, want 9", h.NActive)
	}
	if bitAt(h.Active, 4) {
		t.Error("sparse day marked active")
	}
	// The rule still gets one unbroken 10-day period (day 4 neutral).
	rules, err := MineValidPeriodsFromTableContext(bg, h, PeriodConfig{MinLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, r := range rules {
		if r.Rule.Antecedent.Equal(itemset.New(1)) {
			count++
			if r.Interval.Len() != 10 {
				t.Errorf("period spans %d days, want 10 (sparse day bridged)", r.Interval.Len())
			}
		}
	}
	if count != 1 {
		t.Errorf("periods for {1}=>{2}: %d", count)
	}
}
