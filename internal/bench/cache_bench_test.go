package bench

import (
	"context"
	"testing"

	"github.com/tarm-project/tarm/internal/core"
	"github.com/tarm-project/tarm/internal/tdb"
)

// BenchmarkHoldCache guards the acceptance bar of the hold-table
// cache: a warm exact-threshold hit must be at least an order of
// magnitude faster than a cold build (it is a map probe plus a shallow
// copy), and a monotone re-threshold — deriving a higher-support table
// from the stored count vectors without rescanning — must sit well
// under the cold build it replaces. Workload: the standard 364-day
// dataset at the default thresholds.
//
//	go test ./internal/bench/ -bench HoldCache -benchtime 10x
func BenchmarkHoldCache(b *testing.B) {
	txt, _, err := StandardDataset(StandardConfig{TxPerDay: 50})
	if err != nil {
		b.Fatal(err)
	}
	cfg := Cfg()
	ctx := context.Background()
	check := func(b *testing.B, h *core.HoldTable, err error) {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		if h.TotalItemsets() == 0 {
			b.Fatal("workload degenerate: empty hold table")
		}
	}
	b.Run("cold-build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h, err := core.BuildHoldTableContext(ctx, txt, cfg)
			check(b, h, err)
		}
	})
	b.Run("warm-hit", func(b *testing.B) {
		c := core.NewHoldCache(core.DefaultCacheBytes)
		if _, err := c.GetContext(ctx, txt, cfg); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h, err := c.GetContext(ctx, txt, cfg)
			check(b, h, err)
		}
		if st := c.Stats(); st.Hits != int64(b.N) {
			b.Fatalf("expected every iteration to hit: %+v", st)
		}
	})
	b.Run("rethreshold", func(b *testing.B) {
		c := core.NewHoldCache(core.DefaultCacheBytes)
		if _, err := c.GetContext(ctx, txt, cfg); err != nil {
			b.Fatal(err)
		}
		qcfg := cfg
		qcfg.MinSupport = cfg.MinSupport * 4 / 3
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h, err := c.GetContext(ctx, txt, qcfg)
			check(b, h, err)
		}
		if st := c.Stats(); st.Rethresholds != int64(b.N) {
			b.Fatalf("expected every iteration to re-threshold: %+v", st)
		}
	})
	b.Run("stale-epoch-rebuild", func(b *testing.B) {
		c := core.NewHoldCache(core.DefaultCacheBytes)
		var last tdb.Tx
		txt.Each(func(tx tdb.Tx) bool { last = tx; last.Items = tx.Items.Clone(); return true })
		for i := 0; i < b.N; i++ {
			txt.Append(last.At, last.Items)
			h, err := c.GetContext(ctx, txt, cfg)
			check(b, h, err)
		}
		if st := c.Stats(); st.Misses != int64(b.N) {
			b.Fatalf("expected every iteration to rebuild: %+v", st)
		}
	})
}
