package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/gen"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// cacheTestCfg is the build config the cache tests share.
func cacheTestCfg(minsup float64, maxK int) Config {
	return Config{
		Granularity:   timegran.Day,
		MinSupport:    minsup,
		MinConfidence: 0.5,
		MinFreq:       0.8,
		MaxK:          maxK,
	}
}

// cacheEquivTable is a smaller planted dataset than backendTestTable:
// the re-threshold grid below builds it cold many times over.
func cacheEquivTable(t *testing.T, seed int64) *tdb.TxTable {
	t.Helper()
	weekend, err := timegran.NewCalendar(timegran.FieldWeekday, timegran.FieldRange{Lo: 6, Hi: 7})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := gen.GenerateTemporal(gen.TemporalConfig{
		Quest:        gen.QuestConfig{NItems: 60, NPatterns: 15, AvgTxLen: 6},
		Start:        time.Date(2001, 3, 1, 0, 0, 0, 0, time.UTC),
		Granularity:  timegran.Day,
		NGranules:    35,
		TxPerGranule: 12,
		Rules: []gen.PlantedRule{
			{Name: "weekend", Items: itemset.New(500, 501), Pattern: weekend, PInside: 0.5, POutside: 0.01},
		},
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestRethresholdMatchesColdBuild is the monotone-reuse property at the
// heart of the HoldCache: a table built at a low support, re-thresholded
// to any higher support and equal-or-shallower MaxK, must agree bit for
// bit with a cold build at the query thresholds — from a base table
// built on every backend. Each query config is cold-built once; every
// backend's re-threshold must reproduce it, which doubles as a
// cross-backend equivalence check.
func TestRethresholdMatchesColdBuild(t *testing.T) {
	tbl := cacheEquivTable(t, 42)
	backends := []apriori.Backend{apriori.BackendNaive, apriori.BackendBitmap}
	type grid struct {
		buildK  int
		queryKs []int
	}
	grids := []grid{
		{buildK: 0, queryKs: []int{0, 2, 3}},
		{buildK: 3, queryKs: []int{2, 3}},
	}
	const buildSup = 0.05
	// Base tables, one per (backend, build depth).
	bases := map[apriori.Backend]map[int]*HoldTable{}
	for _, backend := range backends {
		bases[backend] = map[int]*HoldTable{}
		for _, g := range grids {
			bcfg := cacheTestCfg(buildSup, g.buildK)
			bcfg.Backend = backend
			base := mustBuild(t, tbl, bcfg)
			bases[backend][g.buildK] = base
		}
	}
	// At 0.7 three items survive and none of their pairs does: the level
	// the filter empties must still be appended, as the cold build's
	// counted-and-found-none level 2 is.
	for _, querySup := range []float64{buildSup, 0.08, 0.15, 0.4, 0.7} {
		for _, g := range grids {
			for _, queryK := range g.queryKs {
				qcfg := cacheTestCfg(querySup, queryK)
				want := mustBuild(t, tbl, qcfg)
				for _, backend := range backends {
					got, err := bases[backend][g.buildK].Rethreshold(qcfg)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("backend=%v build=(%g,k%d) query=(%g,k%d)",
						backend, buildSup, g.buildK, querySup, queryK)
					sameHoldTable(t, label, want, got)
				}
			}
		}
	}
}

// TestRethresholdRejectsUncovered: lower support, deeper MaxK or a
// different granule grid cannot be derived and must error.
func TestRethresholdRejectsUncovered(t *testing.T) {
	tbl := backendTestTable(t, 7)
	base := mustBuild(t, tbl, cacheTestCfg(0.1, 3))
	bad := []Config{
		cacheTestCfg(0.05, 3), // support below build
		cacheTestCfg(0.1, 4),  // deeper than built
		cacheTestCfg(0.1, 0),  // unbounded vs bounded build
	}
	weekly := cacheTestCfg(0.1, 3)
	weekly.Granularity = timegran.Week
	bad = append(bad, weekly)
	coarse := cacheTestCfg(0.1, 3)
	coarse.MinGranuleTx = 5
	bad = append(bad, coarse)
	for i, cfg := range bad {
		if _, err := base.Rethreshold(cfg); err == nil {
			t.Errorf("case %d: Rethreshold accepted uncovered config %+v", i, cfg)
		}
	}
}

// TestHoldCacheHitMissRethreshold walks one cache through the three
// lookup outcomes and checks both the counters and the results.
func TestHoldCacheHitMissRethreshold(t *testing.T) {
	tbl := backendTestTable(t, 42)
	c := NewHoldCache(DefaultCacheBytes)

	cfg := cacheTestCfg(0.05, 3)
	h1, err := c.GetContext(bg, tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("after cold Get: %+v", st)
	}

	// Same thresholds again: exact hit, shared data.
	h2, err := c.GetContext(bg, tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after warm Get: %+v", st)
	}
	sameHoldTable(t, "exact hit", h1, h2)

	// Higher support: served as a threshold view of the entry, whose
	// materialised form equals a cold build.
	qcfg := cacheTestCfg(0.1, 3)
	warm, err := c.GetContext(bg, tbl, qcfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Rethresholds != 1 || st.Misses != 1 {
		t.Fatalf("after rethreshold Get: %+v", st)
	}
	cold := mustBuild(t, tbl, qcfg)
	materialised, err := warm.Rethreshold(warm.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameHoldTable(t, "rethreshold", cold, materialised)

	// Lower support: not covered, rebuilds and replaces the entry.
	lcfg := cacheTestCfg(0.02, 3)
	if _, err := c.GetContext(bg, tbl, lcfg); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("after lower-support Get: %+v", st)
	}
	// The broader entry now serves the original thresholds too.
	if _, err := c.GetContext(bg, tbl, cfg); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Rethresholds != 2 || st.Misses != 2 {
		t.Fatalf("after re-query at 0.05: %+v", st)
	}
}

// TestHoldCacheProbeMatchesServe: Probe names the outcome GetContext
// then takes, over cache states × statements. The states are an empty
// cache, a fresh entry, a stale covering entry after a small append,
// one after an append of most of the rows, and a stale entry with delta
// maintenance off; the statements are at the entry's thresholds, at a
// higher support, at a shallower MaxK and at a lower support. In every
// cell Probe's word is the one counter GetContext bumps (a stale entry
// that is not refreshed is also invalidated), and the served table is
// at the statement's thresholds: its MinCounts, its materialised form
// and its valid periods are a cold build's.
func TestHoldCacheProbeMatchesServe(t *testing.T) {
	base := cacheTestCfg(0.05, 3)
	stmts := []Config{base, cacheTestCfg(0.1, 3), cacheTestCfg(0.05, 2), cacheTestCfg(0.02, 3)}
	at := time.Date(2001, 4, 10, 9, 0, 0, 0, time.UTC)
	small := func(tbl *tdb.TxTable) { tbl.Append(at, itemset.New(500, 501)) }
	majority := func(tbl *tdb.TxTable) {
		for i, n := 0, tbl.Len()+1; i < n; i++ {
			tbl.Append(at.Add(time.Duration(i)*time.Second), itemset.New(1, 2))
		}
	}
	states := []struct {
		name     string
		primed   bool // an entry at base is resident before the write
		deltaOff bool
		write    func(*tdb.TxTable)
		want     []string // Probe's word for each of stmts
	}{
		{"empty", false, false, nil, []string{"build", "build", "build", "build"}},
		{"fresh", true, false, nil, []string{"hit", "rethreshold", "rethreshold", "build"}},
		{"stale", true, false, small, []string{"delta", "delta", "delta", "build"}},
		{"stale majority", true, false, majority, []string{"build", "build", "build", "build"}},
		{"stale delta off", true, true, small, []string{"build", "build", "build", "build"}},
	}
	for _, st := range states {
		for i, cfg := range stmts {
			label := fmt.Sprintf("%s entry, statement (%g, k%d)", st.name, cfg.MinSupport, cfg.MaxK)
			tbl := backendTestTable(t, 42)
			c := NewHoldCache(DefaultCacheBytes)
			if st.deltaOff {
				c.DisableDelta()
			}
			if st.primed {
				if _, err := c.GetContext(bg, tbl, base); err != nil {
					t.Fatal(err)
				}
			}
			if st.write != nil {
				st.write(tbl)
			}
			word := c.Probe(tbl, cfg)
			if word != st.want[i] {
				t.Fatalf("%s: Probe = %q, want %q", label, word, st.want[i])
			}
			before := c.Stats()
			h, err := c.GetContext(bg, tbl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			after := c.Stats()
			bumped := map[string]int64{
				"hit":         after.Hits - before.Hits,
				"rethreshold": after.Rethresholds - before.Rethresholds,
				"delta":       after.Deltas - before.Deltas,
				"build":       after.Misses - before.Misses,
			}
			for w, n := range bumped {
				if (w == word && n != 1) || (w != word && n != 0) {
					t.Fatalf("%s: Probe said %q, GetContext counted %+v", label, word, bumped)
				}
			}
			wantInv := int64(0)
			if st.write != nil && word == "build" {
				wantInv = 1
			}
			if n := after.Invalidations - before.Invalidations; n != wantInv {
				t.Fatalf("%s: %d invalidations, want %d", label, n, wantInv)
			}
			cold := mustBuild(t, tbl, cfg)
			if !reflect.DeepEqual(h.MinCounts, cold.MinCounts) {
				t.Fatalf("%s: served at other thresholds than a cold build's", label)
			}
			mat, err := h.Rethreshold(h.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameHoldTable(t, label, cold, mat)
			got, gotErr := MineValidPeriodsFromTableContext(bg, h, PeriodConfig{})
			want, wantErr := MineValidPeriodsFromTableContext(bg, cold, PeriodConfig{})
			if !sameOutcome(got, want, gotErr, wantErr) {
				t.Fatalf("%s: %d valid periods (err %v) served, %d (err %v) cold", label, len(got), gotErr, len(want), wantErr)
			}
		}
	}
}

// TestHoldCacheMaxKCoverage: an unbounded build serves bounded queries;
// a bounded build does not serve deeper or unbounded ones.
func TestHoldCacheMaxKCoverage(t *testing.T) {
	tbl := backendTestTable(t, 42)
	c := NewHoldCache(DefaultCacheBytes)
	if _, err := c.GetContext(bg, tbl, cacheTestCfg(0.05, 2)); err != nil {
		t.Fatal(err)
	}
	// Deeper than built: miss (and the new unbounded entry replaces it).
	if _, err := c.GetContext(bg, tbl, cacheTestCfg(0.05, 0)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Rethresholds != 0 {
		t.Fatalf("bounded entry served an unbounded query: %+v", st)
	}
	// Unbounded entry covers any bounded depth.
	if _, err := c.GetContext(bg, tbl, cacheTestCfg(0.05, 2)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Rethresholds != 1 || st.Misses != 2 {
		t.Fatalf("unbounded entry did not serve a bounded query: %+v", st)
	}
}

// TestHoldCacheEpochDelta: an Append between statements must not serve
// the stale entry — it is delta-maintained in place, and the refreshed
// table sees the new data.
func TestHoldCacheEpochDelta(t *testing.T) {
	tbl := backendTestTable(t, 42)
	c := NewHoldCache(DefaultCacheBytes)
	cfg := cacheTestCfg(0.05, 3)
	h1, err := c.GetContext(bg, tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2001, 5, 30, 12, 0, 0, 0, time.UTC)
	tbl.Append(at, itemset.New(500, 501))
	if got := c.Probe(tbl, cfg); got != "delta" {
		t.Fatalf("Probe after append = %q, want delta", got)
	}
	h2, err := c.GetContext(bg, tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Deltas != 1 || st.Misses != 1 || st.Invalidations != 0 || st.Hits != 0 {
		t.Fatalf("Append did not delta-maintain: %+v", st)
	}
	if h2.NGranules() <= h1.NGranules() {
		t.Fatalf("maintained table does not cover the appended granule: %d vs %d granules", h2.NGranules(), h1.NGranules())
	}
	// The refreshed entry serves hits again, and is bit-identical to a
	// cold rebuild.
	if _, err := c.GetContext(bg, tbl, cfg); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("no hit after delta maintenance: %+v", st)
	}
	rebuilt := mustBuild(t, tbl, cfg)
	if !holdTablesEqual(h2, rebuilt) {
		t.Fatal("delta-maintained table differs from cold rebuild")
	}
}

// TestHoldCacheEpochInvalidation: with delta maintenance disabled, an
// Append between statements must force a rebuild (the pre-delta
// policy), and the rebuilt table must see the new data.
func TestHoldCacheEpochInvalidation(t *testing.T) {
	tbl := backendTestTable(t, 42)
	c := NewHoldCache(DefaultCacheBytes)
	c.DisableDelta()
	cfg := cacheTestCfg(0.05, 3)
	h1, err := c.GetContext(bg, tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2001, 5, 30, 12, 0, 0, 0, time.UTC)
	tbl.Append(at, itemset.New(500, 501))
	if got := c.Probe(tbl, cfg); got != "build" {
		t.Fatalf("Probe after append with delta off = %q, want build", got)
	}
	h2, err := c.GetContext(bg, tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Invalidations != 1 || st.Misses != 2 || st.Hits != 0 || st.Deltas != 0 {
		t.Fatalf("Append did not invalidate: %+v", st)
	}
	if h2.NGranules() <= h1.NGranules() {
		t.Fatalf("rebuilt table does not cover the appended granule: %d vs %d granules", h2.NGranules(), h1.NGranules())
	}
	// And the fresh entry serves hits again.
	if _, err := c.GetContext(bg, tbl, cfg); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("no hit after rebuild: %+v", st)
	}
}

// TestHoldCacheEviction: a budget that fits one table evicts the least
// recently used entry when a second is inserted.
func TestHoldCacheEviction(t *testing.T) {
	tbl := backendTestTable(t, 42)
	cfg1 := cacheTestCfg(0.05, 3)
	h := mustBuild(t, tbl, cfg1)
	c := NewHoldCache(h.MemBytes() + h.MemBytes()/2)
	if _, err := c.GetContext(bg, tbl, cfg1); err != nil {
		t.Fatal(err)
	}
	// A different MinGranuleTx is a different granule grid — a second
	// cache key over the same table.
	cfg2 := cacheTestCfg(0.05, 3)
	cfg2.MinGranuleTx = 2
	if _, err := c.GetContext(bg, tbl, cfg2); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("expected one eviction leaving one entry: %+v", st)
	}
	if st.ResidentBytes > st.MaxBytes {
		t.Fatalf("resident %d exceeds budget %d", st.ResidentBytes, st.MaxBytes)
	}
	// The first entry is gone: querying it again misses.
	if _, err := c.GetContext(bg, tbl, cfg1); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 3 {
		t.Fatalf("evicted entry still served: %+v", st)
	}
}

// gateTracer blocks the builder inside BuildHoldTable until the test
// says every concurrent statement has reached the cache, making the
// singleflight test deterministic.
type gateTracer struct {
	obs.NopTracer
	gate chan struct{}
}

func (g *gateTracer) Enabled() bool { return true }
func (g *gateTracer) StartTask(name string) {
	if name == "core.BuildHoldTable" {
		<-g.gate
	}
}

// TestHoldCacheSingleflight: concurrent identical statements on a cold
// cache trigger exactly one build; the rest wait and share it.
func TestHoldCacheSingleflight(t *testing.T) {
	tbl := backendTestTable(t, 42)
	c := NewHoldCache(DefaultCacheBytes)
	const n = 8
	gt := &gateTracer{gate: make(chan struct{})}
	cfg := cacheTestCfg(0.05, 3)
	cfg.Tracer = gt

	results := make([]*HoldTable, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := c.GetContext(bg, tbl, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = h
		}(i)
	}
	// One goroutine is the builder, parked at the gate inside
	// BuildHoldTable; wait until the other n-1 have registered as
	// waiters, then release it.
	for {
		if st := c.Stats(); st.Dedups == n-1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gt.gate)
	wg.Wait()

	st := c.Stats()
	if st.Misses != 1 || st.Dedups != n-1 {
		t.Fatalf("singleflight did not coalesce: %+v", st)
	}
	for i := 1; i < n; i++ {
		sameHoldTable(t, fmt.Sprintf("waiter %d", i), results[0], results[i])
	}
	// The resident entry keeps no statement's tracer, and so no trace.
	for _, ent := range c.byKey {
		if ent.h.Cfg.Tracer != nil {
			t.Fatal("resident entry keeps the building statement's tracer")
		}
	}
}

// TestHoldCacheNilSafe: a nil cache builds directly and keeps no state.
func TestHoldCacheNilSafe(t *testing.T) {
	tbl := backendTestTable(t, 7)
	var c *HoldCache
	h, err := c.GetContext(bg, tbl, cacheTestCfg(0.1, 3))
	if err != nil || h == nil {
		t.Fatalf("nil cache Get: %v, %v", h, err)
	}
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil cache has stats: %+v", st)
	}
	if NewHoldCache(0) != nil {
		t.Fatal("NewHoldCache(0) should disable caching by returning nil")
	}
}
