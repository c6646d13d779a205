package core

import (
	"context"

	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
)

// Continuous-mining wiring on the cache side: refreshing stale entries
// from the change log's dirty-granule sets via the same delta path that
// serves statements, just ahead of any statement. Close detection —
// when a granule closes under the append stream's clock — is the
// standing statement's own (tml.Standing over timegran.ClosedThrough).

// Premaintain refreshes every resident cache entry of tbl that has gone
// stale, using the normal serving path (delta maintenance from the
// change log's dirty granules when the log covers the window, cold
// rebuild otherwise), and returns how many entries were refreshed. It
// is the background half of continuous mining: run after a granule
// closes, it moves the recount off the critical path so the standing
// statement's re-run — and any interactive statement that follows —
// finds a warm entry. tr (nil ok) receives the usual cache counters.
// Safe on a nil cache (no entries, nothing to do).
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
