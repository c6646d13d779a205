package core

import (
	"context"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/timegran"
)

func TestCloseTrackerAdvance(t *testing.T) {
	tr := NewCloseTracker(timegran.Day)
	if _, ok := tr.ClosedThrough(); ok {
		t.Fatal("ClosedThrough reported ok before the first Advance")
	}
	day := func(s string, hh int) time.Time {
		tm, err := time.Parse("2006-01-02", s)
		if err != nil {
			t.Fatal(err)
		}
		return tm.UTC().Add(time.Duration(hh) * time.Hour)
	}
	// Baseline: the first reading closes nothing, whatever it is.
	if iv, ok := tr.Advance(day("2024-01-05", 10)); ok {
		t.Fatalf("first Advance reported a close: %v", iv)
	}
	base := timegran.GranuleOf(day("2024-01-04", 0), timegran.Day)
	if ct, ok := tr.ClosedThrough(); !ok || ct != base {
		t.Fatalf("baseline ClosedThrough = %d,%v, want %d,true", ct, ok, base)
	}
	// Clock moves within the open granule: no close.
	if iv, ok := tr.Advance(day("2024-01-05", 23)); ok {
		t.Fatalf("same-granule Advance reported a close: %v", iv)
	}
	// Clock jumps three days: the skipped granules close as one interval.
	iv, ok := tr.Advance(day("2024-01-08", 1))
	if !ok || iv.Lo != base+1 || iv.Hi != base+3 {
		t.Fatalf("jump Advance = %v,%v, want [%d,%d],true", iv, ok, base+1, base+3)
	}
	// A backwards clock (out-of-order append) never un-closes.
	if iv, ok := tr.Advance(day("2024-01-02", 0)); ok {
		t.Fatalf("backwards Advance reported a close: %v", iv)
	}
	if ct, _ := tr.ClosedThrough(); ct != base+3 {
		t.Fatalf("backwards Advance moved ClosedThrough to %d", ct)
	}
	// Landing exactly on a granule boundary closes the granule before it.
	iv, ok = tr.Advance(day("2024-01-09", 0))
	if !ok || iv.Lo != base+4 || iv.Hi != base+4 {
		t.Fatalf("boundary Advance = %v,%v, want [%d,%d],true", iv, ok, base+4, base+4)
	}
}

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
