package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// atFloorOne runs fn with every operator enumerating at floor 1.
func atFloorOne(fn func()) {
	floorless = true
	defer func() { floorless = false }()
	fn()
}

// TestEnumerationFloorEmitsSameRules is the soundness law of the
// enumeration floor: over scope_test.go's grid, every operator emits
// the same rules — or fails with the same error — at its task's floor
// as at floor 1, over an unscoped build and over a cached table (a
// re-threshold of a build at a lower support). The grid must skip
// itemsets below a floor somewhere, or it tests nothing.
func TestEnumerationFloorEmitsSameRules(t *testing.T) {
	daySpan := time.Date(2001, 5, 1, 0, 0, 0, 0, time.UTC)
	dayTable := scopeTable(t, 1, daySpan, 120, 16)
	grid := []struct {
		name     string
		tbl      *tdb.TxTable
		gran     timegran.Granularity
		supports []float64
		features []string
	}{
		{"day", dayTable, timegran.Day, []float64{0.1, 0.2, 0.35},
			[]string{"between 2001-06-01 and 2001-06-12", "not (weekday in (sat, sun))", "month in (dec)"}},
		{"week", dayTable, timegran.Week, []float64{0.05, 0.1, 0.2},
			[]string{"month in (jun)", "always", "month in (dec)"}},
		{"hour", scopeTable(t, 2, time.Date(2001, 6, 1, 0, 0, 0, 0, time.UTC), 5, 48), timegran.Hour, []float64{0.3, 0.6},
			[]string{"hour in (9..11)", "hour in (6..22)", "month in (dec)"}},
	}
	cells, skipped, emitted := 0, int64(0), 0
	for _, g := range grid {
		cache := NewHoldCache(DefaultCacheBytes)
		prime := Config{Granularity: g.gran, MinSupport: g.supports[0] / 2, MinConfidence: 0.5, MinFreq: 1}
		if _, err := cache.GetContext(bg, g.tbl, prime); err != nil {
			t.Fatal(err)
		}
		for si, support := range g.supports {
			base := Config{Granularity: g.gran, MinSupport: support, MinConfidence: 0.5, MinFreq: 1}
			if si == len(g.supports)-1 {
				base.MaxK = 2
			}
			built := mustBuild(t, g.tbl, base)
			cached, err := cache.GetContext(bg, g.tbl, base)
			if err != nil {
				t.Fatal(err)
			}
			for _, task := range scopedTasks(g.features) {
				for _, minFreq := range []float64{0.5, 0.9, 1} {
					for _, tc := range []struct {
						kind string
						h    *HoldTable
					}{{"built", built}, {"cached", cached}} {
						cfg := tc.h.Cfg
						cfg.MinFreq = minFreq
						trace := obs.NewTrace("")
						cfg.Tracer = trace
						got, gotErr := task.run(tc.h.withCfg(cfg))
						cfg.Tracer = nil
						var want any
						var wantErr error
						atFloorOne(func() { want, wantErr = task.run(tc.h.withCfg(cfg)) })
						label := fmt.Sprintf("%s support %g maxk %d %s freq %g %s", g.name, support, base.MaxK, task.name, minFreq, tc.kind)
						if !sameOutcome(got, want, gotErr, wantErr) {
							t.Fatalf("%s: %d rules (err %v) at the task's floor, %d (err %v) at floor 1",
								label, ruleCount(got), gotErr, ruleCount(want), wantErr)
						}
						cells++
						skipped += obs.Summarize(trace.Tree()).BelowFloor
						emitted += ruleCount(want)
					}
				}
			}
		}
	}
	t.Logf("%d cells, %d itemsets skipped below a floor, %d rules emitted", cells, skipped, emitted)
	if skipped == 0 || emitted == 0 {
		t.Errorf("%d itemsets skipped, %d rules emitted: the grid does not exercise the floor", skipped, emitted)
	}
}

// TestScopedEnumerationSkipsNothing: a build scoped to its statement
// already dropped every itemset below the task's floor, so the
// operator's enumeration over it skips none.
func TestScopedEnumerationSkipsNothing(t *testing.T) {
	tbl := scopeTable(t, 3, time.Date(2001, 5, 1, 0, 0, 0, 0, time.UTC), 90, 16)
	for _, task := range scopedTasks([]string{"not (weekday in (sat, sun))"}) {
		trace := obs.NewTrace("")
		cfg := Config{Granularity: timegran.Day, MinSupport: 0.1, MinConfidence: 0.5, MinFreq: 0.9, Scope: task.scope, Tracer: trace}
		h := mustBuild(t, tbl, cfg)
		if _, err := task.run(h); err != nil {
			t.Fatalf("%s: %v", task.name, err)
		}
		sum := obs.Summarize(trace.Tree())
		if sum.BelowFloor != 0 || sum.Floor != h.floor {
			t.Errorf("%s: %d itemsets skipped below floor %d over a build scoped to floor %d, want none at its floor",
				task.name, sum.BelowFloor, sum.Floor, h.floor)
		}
	}
}

// TestMinFullMatchesFloatTest holds the integer confidence test to the
// float one it replaces, float64(f)/float64(a)+1e-12 ≥ MinConfidence
// with a zero antecedent never holding: exhaustively over every count
// f ≤ a + 1 of every antecedent count a ≤ 4 096 at the listed
// confidences, at each antecedent count's boundary for random ones, and
// on random counts past the table's size too, where the float test
// itself decides.
func TestMinFullMatchesFloatTest(t *testing.T) {
	float := func(f, a int32, conf float64) bool { return a != 0 && float64(f)/float64(a)+1e-12 >= conf }
	const maxTx = 4096
	r := rand.New(rand.NewSource(1))
	listed := []float64{0, 0.1, 1.0 / 3, 0.5, 0.6, 2.0 / 3, 0.7, 0.9, 1}
	confs := slices.Clone(listed)
	for range 20 {
		confs = append(confs, r.Float64())
	}
	for ci, conf := range confs {
		h := &HoldTable{Cfg: Config{MinConfidence: conf}, TxCounts: []int{7, maxTx, 0}}
		c := h.confTest()
		if len(c.minFull) != maxTx+1 {
			t.Fatalf("confidence %v: table of %d entries, want %d", conf, len(c.minFull), maxTx+1)
		}
		for a := int32(0); a <= maxTx; a++ {
			fs := []int32{0, 1, a - 1, a, a + 1}
			if a > 0 {
				fs = append(fs, c.minFull[a]-1, c.minFull[a], c.minFull[a]+1)
			}
			if ci < len(listed) {
				fs = fs[:0]
				for f := int32(0); f <= a+1; f++ {
					fs = append(fs, f)
				}
			}
			for _, f := range fs {
				if f < 0 {
					continue
				}
				if got, want := c.holds(f, a), float(f, a, conf); got != want {
					t.Fatalf("confidence %v: %d over %d holds %v, float test %v", conf, f, a, got, want)
				}
			}
		}
		for range 20000 {
			a := int32(r.Intn(3 * maxTx))
			f := int32(r.Intn(int(a) + 3))
			if got, want := c.holds(f, a), float(f, a, conf); got != want {
				t.Fatalf("confidence %v: %d over %d holds %v, float test %v", conf, f, a, got, want)
			}
		}
	}
}

// maximalDenseIntervalsRescan is the period scan denseScan replaced:
// every start rescans the ends from the last one down with the float
// test. It stays here as the oracle.
func maximalDenseIntervalsRescan(pos []holdPos, minFreq float64, minLen int) []ivOff {
	var out []ivOff
	last := -1 // index of the furthest end reported
	for i, a := range pos {
		for j := len(pos) - 1; j > last && j >= i; j-- {
			nAct, nHold := pos[j].rank-a.rank+1, j-i+1
			if nAct >= minLen && float64(nHold) >= minFreq*float64(nAct)-1e-12 {
				out = append(out, ivOff{Lo: a.gi, Hi: pos[j].gi})
				last = j
				break
			}
		}
	}
	return out
}

// TestDenseScanMatchesRescan holds the searched period scan to the
// rescan over random hold sequences with inactive gaps — dense and
// sparse holds, short and long runs — at MinFreq 1/3, 0.5, 0.9 and 1
// (and just above 0.5) and MinLen 1, 2 and 5, one scan reused across
// sequences as the operator reuses it.
func TestDenseScanMatchesRescan(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	// 0.5 + 1e-7 puts near misses inside the search's slack, so the walk
	// down past an end that fails the exact test is exercised.
	for _, minFreq := range []float64{1.0 / 3, 0.5, 0.9, 1, 0.5 + 1e-7} {
		for _, minLen := range []int{1, 2, 5} {
			const n = 400
			scan := newDenseScan(minFreq, minLen, n)
			var got []ivOff
			for trial := range 300 {
				m := 1 + r.Intn(n)
				pActive, pHold := []float64{1, 0.8, 0.4}[trial%3], []float64{0.95, 0.7, 0.4, 0.1}[trial%4]
				hold, active := make([]bool, m), make([]bool, m)
				for gi := range m {
					active[gi] = r.Float64() < pActive
					// Runs: the hold state sticks with probability 3/4.
					if gi > 0 && r.Intn(4) != 0 {
						hold[gi] = hold[gi-1]
					} else {
						hold[gi] = r.Float64() < pHold
					}
					hold[gi] = hold[gi] && active[gi]
				}
				pos := holdPositions(nil, packBits(hold), packBits(active))
				got = scan.intervals(got[:0], pos)
				want := maximalDenseIntervalsRescan(pos, minFreq, minLen)
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("minFreq %v minLen %d trial %d: got %v, want %v", minFreq, minLen, trial, got, want)
				}
			}
		}
	}
}

// TestConcurrentAppendBuildCounts: a build takes its per-granule
// transaction counts and its scans from one reading of the table, so
// however appends race it, no count vector exceeds its granule's
// transaction count — and no threshold is sized below the counts it
// is compared with. Every transaction, stored or appended, holds item
// 0, so {0}'s count in a granule is the number of rows its scan saw.
func TestConcurrentAppendBuildCounts(t *testing.T) {
	start := time.Date(2001, 5, 1, 0, 0, 0, 0, time.UTC)
	const days = 30
	basket := func(r *rand.Rand) itemset.Set {
		return itemset.New(0, itemset.Item(1+r.Intn(9)), itemset.Item(1+r.Intn(9)))
	}
	tbl, err := tdb.NewTxTable("race")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	for d := range days {
		for range 12 {
			tbl.Append(start.AddDate(0, 0, d).Add(time.Duration(r.Int63n(int64(24*time.Hour)))), basket(r))
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(5))
		lastDay := start.AddDate(0, 0, days-1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			tbl.Append(lastDay.Add(time.Duration(r.Int63n(int64(24*time.Hour)))), basket(r))
			runtime.Gosched()
		}
	}()
	backends := []apriori.Backend{apriori.BackendBitmap, apriori.BackendNaive}
	for b := range 60 {
		cfg := Config{Granularity: timegran.Day, MinSupport: 0.1, MinConfidence: 0.5, MinFreq: 1, MaxK: 2,
			Backend: backends[b%len(backends)], Workers: 1 + b%2}
		h := mustBuild(t, tbl, cfg)
		for k := 1; k < len(h.ByK); k++ {
			for i, s := range h.ByK[k] {
				for gi, c := range h.vecs[k][i] {
					if int(c) > h.TxCounts[gi] {
						close(stop)
						wg.Wait()
						t.Fatalf("build %d (%v): %v counts %d in granule %d of %d transactions", b, cfg.Backend, s, c, gi, h.TxCounts[gi])
					}
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}
