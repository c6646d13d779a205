package core

import (
	"context"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/itemset"
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
