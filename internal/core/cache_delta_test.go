package core

import (
	"sync"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/itemset"
)

// TestHoldCacheDeltaRethreshold: after an append, a statement at a
// higher support than the stale entry's build support is served by
// delta-maintaining the entry and handing out a threshold view of the
// refreshed table; its materialised form matches a cold build at the
// statement's thresholds.
func TestHoldCacheDeltaRethreshold(t *testing.T) {
	tbl := backendTestTable(t, 7)
	c := NewHoldCache(DefaultCacheBytes)
	if _, err := c.GetContext(bg, tbl, cacheTestCfg(0.05, 3)); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2001, 4, 10, 9, 0, 0, 0, time.UTC)
	tbl.Append(at, itemset.New(500, 501))
	tbl.Append(at.Add(time.Hour), itemset.New(500, 501, 502))

	got, err := c.GetContext(bg, tbl, cacheTestCfg(0.1, 3))
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Deltas != 1 || st.Rethresholds != 0 || st.Invalidations != 0 {
		t.Fatalf("stats after delta+rethreshold get: %+v", st)
	}
	want := mustBuild(t, tbl, cacheTestCfg(0.1, 3))
	got, err = got.Rethreshold(got.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !holdTablesEqual(got, want) {
		t.Fatal("delta + rethreshold differs from cold build")
	}
	// The refreshed entry is stored at its original build support, so
	// the lower-support statement still rethresholds off it.
	if _, err := c.GetContext(bg, tbl, cacheTestCfg(0.1, 3)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Rethresholds != 1 {
		t.Fatalf("refreshed entry did not serve a rethreshold: %+v", st)
	}
}

// TestHoldCacheDeltaBulkFallback: when appends touch a majority of the
// rows, delta maintenance is not worthwhile and the cache falls back to
// invalidate + rebuild.
func TestHoldCacheDeltaBulkFallback(t *testing.T) {
	tbl := backendTestTable(t, 11)
	c := NewHoldCache(DefaultCacheBytes)
	cfg := cacheTestCfg(0.05, 3)
	if _, err := c.GetContext(bg, tbl, cfg); err != nil {
		t.Fatal(err)
	}
	// Append more rows than the table held: the dirty region is now the
	// majority of the data.
	n := tbl.Len() + 1
	at := time.Date(2001, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		tbl.Append(at.Add(time.Duration(i)*time.Second), itemset.New(1, 2))
	}
	if got := c.Probe(tbl, cfg); got != "build" {
		t.Fatalf("Probe after bulk append = %q, want build", got)
	}
	if _, err := c.GetContext(bg, tbl, cfg); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Deltas != 0 || st.Invalidations != 1 || st.Misses != 2 {
		t.Fatalf("bulk append did not fall back to rebuild: %+v", st)
	}
}

// TestHoldCacheDeltaConcurrent: many goroutines hitting a stale entry
// coalesce onto one delta maintenance; every statement gets a table
// identical to a cold rebuild.
func TestHoldCacheDeltaConcurrent(t *testing.T) {
	tbl := backendTestTable(t, 23)
	c := NewHoldCache(DefaultCacheBytes)
	cfg := cacheTestCfg(0.05, 3)
	if _, err := c.GetContext(bg, tbl, cfg); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2001, 4, 20, 9, 0, 0, 0, time.UTC)
	tbl.Append(at, itemset.New(500, 501))

	want := mustBuild(t, tbl, cfg)
	const workers = 8
	var wg sync.WaitGroup
	results := make([]*HoldTable, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.GetContext(bg, tbl, cfg)
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !holdTablesEqual(results[i], want) {
			t.Fatalf("worker %d got a table differing from cold rebuild", i)
		}
	}
	st := c.Stats()
	if st.Deltas != 1 {
		t.Fatalf("concurrent stale gets ran %d delta maintenances, want 1: %+v", st.Deltas, st)
	}
	if st.Invalidations != 0 || st.Misses != 1 {
		t.Fatalf("concurrent stale gets fell back to rebuild: %+v", st)
	}
}
