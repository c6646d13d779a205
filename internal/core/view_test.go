package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// TestThresholdViewMatchesRethreshold is the law of the cache's
// re-threshold outcome: a threshold view of a resident table answers
// as the table Rethreshold materialises from it and as a cold build at
// the statement's thresholds. Over scope_test.go's tables and tasks, at
// every support above the resident one, at MaxK at and below the
// resident entry's (bounded and unbounded) and at each task's floors
// (MinFreq 0.5, 0.9, 1; DURING's inside its mask), every operator
// emits the same rules, or fails with the same error, from all three,
// forming the same number of rule candidates. Counts and freqOf agree
// on every stored itemset, and every stored itemset's rule history is
// served or refused alike. All of it is served from one build.
func TestThresholdViewMatchesRethreshold(t *testing.T) {
	start := time.Date(2001, 5, 1, 0, 0, 0, 0, time.UTC)
	dayTable := scopeTable(t, 1, start, 120, 16)
	grid := []struct {
		name     string
		tbl      *tdb.TxTable
		gran     timegran.Granularity
		resident float64
		supports []float64
		features []string
	}{
		{"day", dayTable, timegran.Day, 0.05, []float64{0.1, 0.2, 0.35, 0.6},
			[]string{"between 2001-06-01 and 2001-06-12", "not (weekday in (sat, sun))", "month in (dec)"}},
		{"week", dayTable, timegran.Week, 0.03, []float64{0.05, 0.1, 0.2},
			[]string{"month in (jun)", "always"}},
		{"hour", scopeTable(t, 2, time.Date(2001, 6, 1, 0, 0, 0, 0, time.UTC), 5, 48), timegran.Hour, 0.15, []float64{0.3, 0.6},
			[]string{"hour in (9..11)", "hour in (6..22)"}},
	}
	cells, formed, absent, refused := 0, int64(0), 0, 0
	for _, g := range grid {
		for _, residentK := range []int{0, 3} {
			cache := NewHoldCache(DefaultCacheBytes)
			rcfg := Config{Granularity: g.gran, MinSupport: g.resident, MinConfidence: 0.5, MinFreq: 1, MaxK: residentK}
			resident, err := cache.GetContext(bg, g.tbl, rcfg)
			if err != nil {
				t.Fatal(err)
			}
			maxKs := []int{0, 2, 3}
			if residentK != 0 {
				maxKs = []int{2, 3}
			}
			for _, support := range g.supports {
				for _, maxK := range maxKs {
					cfg := rcfg
					cfg.MinSupport, cfg.MaxK = support, maxK
					label := fmt.Sprintf("%s resident (%g, k%d) support %g k%d", g.name, g.resident, residentK, support, maxK)
					view, err := cache.GetContext(bg, g.tbl, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !view.view {
						t.Fatalf("%s: the re-threshold outcome is not a view", label)
					}
					mat, err := resident.Rethreshold(cfg)
					if err != nil {
						t.Fatal(err)
					}
					cold := mustBuild(t, g.tbl, cfg)
					sameHoldTable(t, label+" rethreshold", cold, mat)
					a, r := checkViewReaders(t, label, resident, view, mat)
					absent, refused = absent+a, refused+r
					for _, task := range scopedTasks(g.features) {
						for _, minFreq := range []float64{0.5, 0.9, 1} {
							var outs []any
							var errs []error
							var forms []int64
							for _, h := range []*HoldTable{view, mat, cold} {
								trace := obs.NewTrace("")
								hc := h.Cfg
								hc.MinFreq, hc.Tracer = minFreq, trace
								out, err := task.run(h.withCfg(hc))
								outs, errs = append(outs, out), append(errs, err)
								forms = append(forms, obs.Summarize(trace.Tree()).RuleCandidates)
							}
							l := fmt.Sprintf("%s %s freq %g", label, task.name, minFreq)
							for i, from := range []string{"Rethreshold", "a cold build"} {
								if !sameOutcome(outs[0], outs[i+1], errs[0], errs[i+1]) {
									t.Fatalf("%s: %d rules (err %v) from the view, %d (err %v) from %s",
										l, ruleCount(outs[0]), errs[0], ruleCount(outs[i+1]), errs[i+1], from)
								}
								if forms[0] != forms[i+1] {
									t.Fatalf("%s: the view formed %d rule candidates, %s %d", l, forms[0], from, forms[i+1])
								}
							}
							cells++
							formed += forms[0]
						}
					}
				}
			}
			if st := cache.Stats(); st.Misses != 1 || st.Rethresholds == 0 {
				t.Fatalf("%s resident k%d: %+v, want every statement served from the one build", g.name, residentK, st)
			}
		}
	}
	t.Logf("%d cells, %d rule candidates formed, %d stored itemsets absent from a view, %d histories refused", cells, formed, absent, refused)
	if formed == 0 || absent == 0 || refused == 0 {
		t.Errorf("the grid does not exercise the view: %d formed, %d absent, %d refused", formed, absent, refused)
	}
}

// checkViewReaders holds a view's lookups to its materialised table
// over every itemset the resident table stores: Counts and freqOf, and
// the rule history of the rule with the itemset's last item as
// consequent — the same series, or the same refusal. It returns how many
// stored itemsets the view reports absent and how many histories both
// refused.
func checkViewReaders(t *testing.T, label string, resident, view, mat *HoldTable) (absent, refused int) {
	t.Helper()
	for k := 1; k < len(resident.ByK); k++ {
		for _, s := range resident.ByK[k] {
			vc, mc := view.Counts(s), mat.Counts(s)
			if !reflect.DeepEqual(vc, mc) {
				t.Fatalf("%s: Counts(%v) = %v from the view, %v materialised", label, s, vc, mc)
			}
			if vf, mf := view.freqOf(s), mat.freqOf(s); !reflect.DeepEqual(vf, mf) {
				t.Fatalf("%s: freqOf(%v) = %x from the view, %x materialised", label, s, vf, mf)
			}
			if vc == nil {
				absent++
			}
			if k < 2 {
				continue
			}
			ante, cons := s[:k-1:k-1], itemset.Set{s[k-1]}
			vh, verr := RuleHistoryFromTableContext(bg, view, ante, cons)
			mh, merr := RuleHistoryFromTableContext(bg, mat, ante, cons)
			if !sameOutcome(vh, mh, verr, merr) {
				t.Fatalf("%s: history of %v => %v differs: view (err %v), materialised (err %v)", label, ante, cons, verr, merr)
			}
			if verr != nil {
				refused++
			}
		}
	}
	return absent, refused
}

// TestThresholdViewRefusesRefresh: a view's stored words are those of
// the resident support, so it cannot be maintained or extended in their
// place; the entry it was served from can.
func TestThresholdViewRefusesRefresh(t *testing.T) {
	tbl := scopeTable(t, 3, time.Date(2001, 5, 1, 0, 0, 0, 0, time.UTC), 30, 16)
	cache := NewHoldCache(DefaultCacheBytes)
	cfg := Config{Granularity: timegran.Day, MinSupport: 0.05, MinConfidence: 0.5, MinFreq: 1}
	if _, err := cache.GetContext(bg, tbl, cfg); err != nil {
		t.Fatal(err)
	}
	cfg.MinSupport = 0.2
	view, err := cache.GetContext(bg, tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2001, 5, 31, 9, 0, 0, 0, time.UTC)
	tbl.Append(at, itemset.New(0, 1))
	if _, err := view.MaintainContext(bg, tbl, []timegran.Granule{timegran.GranuleOf(at, timegran.Day)}); err == nil {
		t.Error("MaintainContext accepted a threshold view")
	}
	if _, err := view.ExtendContext(bg, tbl); err == nil {
		t.Error("ExtendContext accepted a threshold view")
	}
	if st := cache.Stats(); st.Entries != 1 {
		t.Errorf("%d resident entries, want the one build (a view is never cached)", st.Entries)
	}
}

// TestConcurrentThresholdViews runs re-threshold statements from
// several goroutines against one resident entry while an appender
// writes into the span and re-asks at the resident support, so the
// entry is delta-maintained and replaced under the readers. Every view
// must answer as its own materialised form (the readers share the
// entry's vectors with the maintenance that replaces it), and once
// the appender stops, a view of the refreshed entry equals a cold
// build. Run it under -race.
func TestConcurrentThresholdViews(t *testing.T) {
	start := time.Date(2001, 5, 1, 0, 0, 0, 0, time.UTC)
	tbl := scopeTable(t, 4, start, 60, 16)
	cache := NewHoldCache(DefaultCacheBytes)
	resident := Config{Granularity: timegran.Day, MinSupport: 0.05, MinConfidence: 0.5, MinFreq: 0.5}
	if _, err := cache.GetContext(bg, tbl, resident); err != nil {
		t.Fatal(err)
	}
	feature, err := timegran.ParsePattern("not (weekday in (sat, sun))")
	if err != nil {
		t.Fatal(err)
	}
	run := func(h *HoldTable) (any, error) {
		periods, err := MineValidPeriodsFromTableContext(bg, h, PeriodConfig{MinLen: 2})
		if err != nil {
			return nil, err
		}
		during, err := MineDuringFromTableContext(bg, h, feature)
		return []any{periods, during}, err
	}
	supports := []float64{0.1, 0.2, 0.35}
	const readers = 4
	done := make(chan struct{})
	served := make(chan struct{}, 1)  // a reader was served a view
	errs := make(chan error, readers) // at most one per reader
	var wg sync.WaitGroup
	stop := sync.OnceFunc(func() { close(done); wg.Wait() })
	defer stop()
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				cfg := resident
				cfg.MinSupport = supports[i%len(supports)]
				h, err := cache.GetContext(bg, tbl, cfg)
				if err != nil {
					errs <- err
					return
				}
				if h.view {
					select {
					case served <- struct{}{}:
					default:
					}
				}
				mat, err := h.Rethreshold(h.Cfg)
				if err != nil {
					errs <- err
					return
				}
				got, gotErr := run(h)
				want, wantErr := run(mat)
				if !sameOutcome(got, want, gotErr, wantErr) {
					errs <- fmt.Errorf("support %g: the served table and its materialised form disagree", cfg.MinSupport)
					return
				}
			}
		}()
	}
	for d := range 20 {
		// Let a reader be served a view of the fresh entry before the
		// next write makes it stale.
		select {
		case <-served:
		case err := <-errs:
			t.Fatal(err)
		case <-time.After(time.Minute):
			t.Fatal("no reader was served a view of the refreshed entry")
		}
		at := start.AddDate(0, 0, 3*d).Add(10 * time.Hour)
		for range 3 {
			tbl.Append(at, itemset.New(0, 1, 7))
		}
		if _, err := cache.GetContext(bg, tbl, resident); err != nil {
			t.Fatal(err)
		}
		select { // a view served before the refresh does not count
		case <-served:
		default:
		}
	}
	stop()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Deltas == 0 || st.Rethresholds == 0 {
		t.Fatalf("%+v: want delta maintenance beside re-threshold statements", st)
	}
	for _, support := range supports {
		cfg := resident
		cfg.MinSupport = support
		view, err := cache.GetContext(bg, tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, gotErr := run(view)
		want, wantErr := run(mustBuild(t, tbl, cfg))
		if !view.view || !sameOutcome(got, want, gotErr, wantErr) {
			t.Fatalf("support %g after the appends: the view (%v) differs from a cold build", support, view.view)
		}
	}
}
