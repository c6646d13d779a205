package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// TestPremaintain: after appends make a cached entry stale, Premaintain
// must refresh it in the background — via the delta path, leaving a
// table bit-identical to a cold rebuild — so the next statement is a
// plain hit.
func TestPremaintain(t *testing.T) {
	tbl := cacheEquivTable(t, 7)
	c := NewHoldCache(DefaultCacheBytes)
	cfg := cacheTestCfg(0.05, 3)
	if _, err := c.GetContext(bg, tbl, cfg); err != nil {
		t.Fatal(err)
	}
	at := time.Date(2001, 4, 6, 12, 0, 0, 0, time.UTC)
	tbl.Append(at, itemset.New(500, 501))

	n, err := c.Premaintain(context.Background(), tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Premaintain refreshed %d entries, want 1", n)
	}
	if got := c.Probe(tbl, cfg); got != "hit" {
		t.Fatalf("Probe after Premaintain = %q, want hit", got)
	}
	st := c.Stats()
	if st.Deltas != 1 {
		t.Fatalf("Premaintain did not use the delta path: %+v", st)
	}
	h, err := c.GetContext(bg, tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := mustBuild(t, tbl, cfg)
	if !holdTablesEqual(h, rebuilt) {
		t.Fatal("premaintained table differs from cold rebuild")
	}
	// Fresh entries are left alone.
	n, err = c.Premaintain(context.Background(), tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("Premaintain on a fresh cache refreshed %d entries, want 0", n)
	}
	// Nil cache is a no-op.
	var nilCache *HoldCache
	if n, err := nilCache.Premaintain(context.Background(), tbl, nil); n != 0 || err != nil {
		t.Fatalf("nil cache Premaintain = %d, %v", n, err)
	}
}

// TestHoldCacheMaintainsOncePerEpoch: after an append, a Premaintain,
// two refreshes at the entry's thresholds and a statement above them,
// all at one epoch, maintain the entry exactly once — also when the
// maintained table is over the cache's budget, which keeps it as the
// only entry rather than leaving the stale one to be maintained again.
// A second append maintains exactly once more.
func TestHoldCacheMaintainsOncePerEpoch(t *testing.T) {
	cfg := cacheTestCfg(0.05, 3)
	// The table's 35 days start 2001-03-01; each append opens a new day.
	appendDay := func(tbl *tdb.TxTable, day int) {
		at := time.Date(2001, 4, 6+day, 12, 0, 0, 0, time.UTC)
		for i := 0; i < 4; i++ {
			tbl.Append(at.Add(time.Duration(i)*time.Minute), itemset.New(500, 501, itemset.Item(i)))
		}
	}
	sized := cacheEquivTable(t, 7)
	appendDay(sized, 0)
	maintained := mustBuild(t, sized, cfg).MemBytes()
	for _, budget := range []int64{DefaultCacheBytes, maintained - 1} {
		tbl := cacheEquivTable(t, 7)
		c := NewHoldCache(budget)
		if _, err := c.GetContext(bg, tbl, cfg); err != nil {
			t.Fatal(err)
		}
		for day := 0; day < 2; day++ {
			appendDay(tbl, day)
			before := c.Stats()
			if _, err := c.Premaintain(bg, tbl, nil); err != nil {
				t.Fatal(err)
			}
			for _, q := range []Config{cfg, cfg, cacheTestCfg(0.1, 3)} {
				if _, err := c.GetContext(bg, tbl, q); err != nil {
					t.Fatal(err)
				}
			}
			after := c.Stats()
			if n := after.Deltas + after.Misses - before.Deltas - before.Misses; n != 1 {
				t.Fatalf("budget %d, append %d: %d maintenances or builds at one epoch, want 1 (%+v)", budget, day+1, n, after)
			}
			ents := c.Entries()
			if len(ents) != 1 || ents[0].Epoch != tbl.Epoch() {
				t.Fatalf("budget %d, append %d: resident %+v, want one entry at epoch %d", budget, day+1, ents, tbl.Epoch())
			}
			if budget < maintained && after.ResidentBytes <= budget {
				t.Fatalf("budget %d: the maintained table (%d bytes) fits it; the test sizes nothing over budget", budget, after.ResidentBytes)
			}
		}
	}
}

// TestHoldCacheCarriedDecision: a decision taken before a write or an
// eviction is not run as it stands. Acquired as a hit or a
// rethreshold, then run after an append, it serves the new state — a
// cold build's table — from the entry maintained to the new epoch;
// acquired as a hit, then run after another key's insert evicted the
// entry, it builds.
func TestHoldCacheCarriedDecision(t *testing.T) {
	cfg := cacheTestCfg(0.05, 3)
	for _, q := range []Config{cfg, cacheTestCfg(0.1, 3)} {
		label := fmt.Sprintf("statement at %g", q.MinSupport)
		tbl := cacheEquivTable(t, 7)
		c := NewHoldCache(DefaultCacheBytes)
		if _, err := c.GetContext(bg, tbl, cfg); err != nil {
			t.Fatal(err)
		}
		acq := c.Acquire(tbl, q)
		if want := map[bool]string{true: "hit", false: "rethreshold"}[q == cfg]; acq.Outcome() != want {
			t.Fatalf("%s: acquired as %q, want %q", label, acq.Outcome(), want)
		}
		tbl.Append(time.Date(2001, 4, 6, 12, 0, 0, 0, time.UTC), itemset.New(500, 501))
		before := c.Stats()
		h, err := acq.Run(bg)
		if err != nil {
			t.Fatal(err)
		}
		after := c.Stats()
		if after.Deltas-before.Deltas != 1 || after.Hits != before.Hits || after.Rethresholds != before.Rethresholds {
			t.Fatalf("%s: the run after an append counted %+v, want one delta", label, after)
		}
		mat, err := h.Rethreshold(h.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameHoldTable(t, label, mustBuild(t, tbl, q), mat)
		if ents := c.Entries(); len(ents) != 1 || ents[0].Epoch != tbl.Epoch() {
			t.Fatalf("%s: resident %+v, want the entry at epoch %d", label, ents, tbl.Epoch())
		}
	}

	tbl := cacheEquivTable(t, 7)
	day := mustBuild(t, tbl, cfg)
	c := NewHoldCache(day.MemBytes())
	if _, err := c.GetContext(bg, tbl, cfg); err != nil {
		t.Fatal(err)
	}
	acq := c.Acquire(tbl, cfg)
	if acq.Outcome() != "hit" {
		t.Fatalf("acquired as %q, want hit", acq.Outcome())
	}
	week := cfg
	week.Granularity = timegran.Week
	if _, err := c.GetContext(bg, tbl, week); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("the week table evicted nothing: %+v", st)
	}
	h, err := acq.Run(bg)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 3 || st.Hits != 0 {
		t.Fatalf("the run after an eviction counted %+v, want a third build", st)
	}
	sameHoldTable(t, "after eviction", day, h)
}
