package core

import (
	"context"

	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
)

// Premaintain refreshes every resident cache entry of tbl that has gone
// stale, using the normal serving path (delta maintenance from the
// change log's dirty granules when the log covers the window, cold
// rebuild otherwise), and returns how many entries were refreshed. No
// served path calls it: a statement maintains the entry it reads. The
// benchmarks call it to time a close's maintenance apart from any
// statement. tr (nil ok) receives the cache counters. Safe on nil.
func (c *HoldCache) Premaintain(ctx context.Context, tbl *tdb.TxTable, tr obs.Tracer) (refreshed int, err error) {
	if c == nil {
		return 0, nil
	}
	epoch := tbl.Epoch()
	c.mu.Lock()
	var cfgs []Config
	for e := c.lru.Front(); e != nil; e = e.Next() {
		ent := e.Value.(*cacheEntry)
		if ent.key.table != tbl.Name() || ent.epoch == epoch {
			continue
		}
		// The resident table's own config is the entry's coverage.
		cfg := ent.h.Cfg
		cfg.Tracer = tr
		cfgs = append(cfgs, cfg)
	}
	c.mu.Unlock()
	for _, cfg := range cfgs {
		if _, err := c.GetContext(ctx, tbl, cfg); err != nil {
			return refreshed, err
		}
		refreshed++
	}
	return refreshed, nil
}
