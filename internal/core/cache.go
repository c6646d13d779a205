package core

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// HoldCache is a memory-bounded LRU cache of HoldTables, the substrate
// of interactive IQMS sessions: an analyst iterating MINE statements
// over one table pays the level-wise counting scan once, and every
// later statement against the same data is served from memory.
//
// A cached build at support s₀ serves any statement at support s ≥ s₀
// (and MaxK within the cached depth) *exactly*: itemsets granule-
// frequent at s are a subset of those retained at s₀ (per-granule
// counts are monotone, so an itemset clearing ceil(s·|g|) clears
// ceil(s₀·|g|) too), and re-thresholding the stored per-granule count
// vectors reproduces the cold build bit for bit — see
// (*HoldTable).Rethreshold. A statement at s > s₀ (or a shallower MaxK)
// is served a threshold view of the entry, which applies s as it reads
// the stored vectors instead of materialising a table for it (see
// thresholdView). Statements below the cached support, or deeper than
// the cached MaxK, miss and rebuild.
//
// Entries are keyed by (table name, granularity, MinGranuleTx), one
// per key, and each records the table epoch it was counted at; the
// epoch comes from tdb.(*TxTable).Epoch and is bumped by every Append,
// so a write leaves the entry stale. A stale entry is not simply
// invalidated: when the table's change log still covers the window
// since the entry was built and the dirty region is a minority of the
// data, the entry is delta-maintained in place — only the dirty
// granules are recounted and their count vectors spliced into the
// carried entry (see HoldTable.MaintainContext) — and the statement is
// served from the refreshed entry, as from a resident one. Only when
// the log has been trimmed past the entry, or most of the table
// changed, does the entry fall back to invalidation and a cold rebuild.
// decideLocked is the one place these outcomes are chosen. Concurrent
// identical statements are deduplicated: one build (or one delta
// maintenance) runs, the rest wait for it (singleflight, flyLocked).
//
// The zero of *HoldCache is usable: a nil cache builds directly and
// caches nothing, so callers thread an optional cache without
// branching.
type HoldCache struct {
	maxBytes int64

	mu       sync.Mutex
	lru      *list.List // of *cacheEntry, front = most recently used
	byKey    map[cacheKey]*cacheEntry
	flights  map[flightKey]*flight
	stats    CacheStats
	deltaOff bool
}

// DefaultCacheBytes is the memory budget front ends use when the user
// does not size the cache explicitly.
const DefaultCacheBytes int64 = 256 << 20

// cacheKey identifies the data a hold table was counted over, minus
// the epoch: granularity and MinGranuleTx change the granule grid and
// the active mask, so tables built under different values share
// nothing. The epoch lives in the entry so a stale entry can be
// recognised (and dropped) at lookup time.
type cacheKey struct {
	table        string
	granularity  timegran.Granularity
	minGranuleTx int
}

// cacheEntry is one resident hold table. Its coverage is the table's
// own config: it serves statements at support ≥ h.Cfg.MinSupport and
// MaxK within h.Cfg.MaxK.
type cacheEntry struct {
	key   cacheKey
	epoch int64
	bytes int64
	cells int64
	h     *HoldTable
	elem  *list.Element
}

// flightKey identifies one in-flight build: the cache key plus the
// thresholds that shape the build. Statements differing only in
// confidence, frequency, backend or tracer coalesce onto one build.
type flightKey struct {
	cacheKey
	epoch   int64
	support float64
	maxK    int
}

// flight is one in-flight build; waiters block on done.
type flight struct {
	done chan struct{}
	h    *HoldTable
	err  error
}

// CacheStats is a point-in-time snapshot of a cache's behaviour,
// JSON-shaped for the iqms session report.
type CacheStats struct {
	Hits          int64 `json:"hits"`           // exact-threshold hits
	Rethresholds  int64 `json:"rethresholds"`   // monotone re-threshold hits
	Misses        int64 `json:"misses"`         // builds triggered
	Dedups        int64 `json:"dedups"`         // waits on an in-flight build
	Deltas        int64 `json:"deltas"`         // stale entries refreshed by delta maintenance
	Evictions     int64 `json:"evictions"`      // entries evicted for space
	Invalidations int64 `json:"invalidations"`  // entries dropped after table writes
	Entries       int   `json:"entries"`        // resident entries
	ResidentBytes int64 `json:"resident_bytes"` // estimated resident size
	ResidentCells int64 `json:"resident_cells"` // resident itemsets × granules
	MaxBytes      int64 `json:"max_bytes"`      // configured budget
}

// NewHoldCache returns a cache bounded to roughly maxBytes of resident
// hold-table data (maxBytes ≤ 0 returns nil: caching disabled).
func NewHoldCache(maxBytes int64) *HoldCache {
	if maxBytes <= 0 {
		return nil
	}
	return &HoldCache{
		maxBytes: maxBytes,
		lru:      list.New(),
		byKey:    make(map[cacheKey]*cacheEntry),
		flights:  make(map[flightKey]*flight),
	}
}

// Stats returns a snapshot of the cache counters. Safe on nil.
func (c *HoldCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.lru.Len()
	st.MaxBytes = c.maxBytes
	return st
}

// EntryInfo is the introspection view of one resident cache entry,
// JSON-shaped for tarmd's GET /v1/cache.
type EntryInfo struct {
	Table        string  `json:"table"`
	Granularity  string  `json:"granularity"`
	MinGranuleTx int     `json:"min_granule_tx,omitempty"`
	Epoch        int64   `json:"epoch"`
	BuildSupport float64 `json:"build_support"`
	MaxK         int     `json:"max_k"` // 0 = unbounded
	Bytes        int64   `json:"bytes"`
	Cells        int64   `json:"cells"`
	Itemsets     int     `json:"itemsets"`
	Granules     int     `json:"granules"`
}

// Entries snapshots the resident entries, most recently used first.
// Safe on nil.
func (c *HoldCache) Entries() []EntryInfo {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]EntryInfo, 0, c.lru.Len())
	for e := c.lru.Front(); e != nil; e = e.Next() {
		ent := e.Value.(*cacheEntry)
		out = append(out, EntryInfo{
			Table:        ent.key.table,
			Granularity:  ent.key.granularity.String(),
			MinGranuleTx: ent.key.minGranuleTx,
			Epoch:        ent.epoch,
			BuildSupport: ent.h.Cfg.MinSupport,
			MaxK:         ent.h.Cfg.MaxK,
			Bytes:        ent.bytes,
			Cells:        ent.cells,
			Itemsets:     ent.h.TotalItemsets(),
			Granules:     ent.h.NGranules(),
		})
	}
	return out
}

// maxKCovers reports whether a build bounded to have (0 = unbounded)
// contains every level a query bounded to want needs.
func maxKCovers(have, want int) bool {
	return have == 0 || (want != 0 && want <= have)
}

// covers reports whether the entry can serve a statement at cfg: at or
// above its build support, and within its depth.
func (ent *cacheEntry) covers(cfg Config) bool {
	return ent.h.Cfg.MinSupport <= cfg.MinSupport && maxKCovers(ent.h.Cfg.MaxK, cfg.MaxK)
}

// exact reports whether cfg asks for the entry's own thresholds.
func (ent *cacheEntry) exact(cfg Config) bool {
	return cfg.MinSupport == ent.h.Cfg.MinSupport && cfg.MaxK == ent.h.Cfg.MaxK
}

// GetContext returns a hold table for (tbl, cfg): Acquire's decision,
// run at once.
func (c *HoldCache) GetContext(ctx context.Context, tbl *tdb.TxTable, cfg Config) (*HoldTable, error) {
	return c.Acquire(tbl, cfg).Run(ctx)
}

// Acquisition is the cache's one decision of how a hold table for
// (tbl, cfg) is served, taken by Acquire and executed by Run. A plan
// names its hold operator from Outcome and then runs it, so a statement
// decides once and maintains once.
type Acquisition struct {
	c     *HoldCache
	tbl   *tdb.TxTable
	cfg   Config
	err   error // from normalising cfg; Run returns it
	key   cacheKey
	epoch int64 // the decision, taken at epoch over the key's entry ent
	out   outcome
	ent   *cacheEntry
	dirty []timegran.Granule
}

// Acquire decides how (tbl, cfg) is served now and changes nothing: no
// counter, LRU move or invalidation happens until Run. A nil cache
// builds, under cfg's Scope; a cache drops the scope, because what it
// builds it shares.
func (c *HoldCache) Acquire(tbl *tdb.TxTable, cfg Config) Acquisition {
	a := Acquisition{c: c, tbl: tbl, cfg: cfg, out: outcomeBuild}
	if c == nil {
		return a
	}
	if a.cfg, a.err = cfg.normalise(); a.err != nil {
		return a
	}
	a.cfg.Scope = Scope{}
	a.key = cacheKey{table: tbl.Name(), granularity: a.cfg.Granularity, minGranuleTx: a.cfg.MinGranuleTx}
	a.epoch = tbl.Epoch()
	c.mu.Lock()
	a.out, a.ent, a.dirty = c.decideLocked(tbl, a.key, a.cfg, a.epoch)
	c.mu.Unlock()
	return a
}

// Outcome is the decision's word, for EXPLAIN and the plan's hold
// operator: "hit", "rethreshold", "delta" or "build" (see outcome).
func (a Acquisition) Outcome() string { return string(a.out) }

// Run executes the decision and returns the hold table. It decides
// again, on its own copy, only when the table's epoch or the key's
// entry changed since: a write or an eviction between plan and run
// changes what runs. The table carries the caller's cfg verbatim and
// is read-only, like every shared HoldTable. A statement above a
// covering entry's support, or shallower than its MaxK, is served a
// threshold view of the entry, resident or just maintained: its ByK
// are the entry's levels, so read it through the task operators,
// Counts and History, or materialise it with Rethreshold(h.Cfg).
//
// Cancellation reaches every path: a cold build runs
// BuildHoldTableContext, and a singleflight waiter selects on ctx
// while the build runs on for the others. A waiter whose winning
// builder was cancelled retries with a fresh build rather than
// inheriting a dead statement's error. Failed builds are never
// inserted, so a cancelled build leaves no poisoned entry behind.
func (a Acquisition) Run(ctx context.Context) (*HoldTable, error) {
	c, tbl, cfg := a.c, a.tbl, a.cfg
	switch {
	case a.err != nil:
		return nil, a.err
	case c == nil:
		return BuildHoldTableContext(ctx, tbl, cfg)
	}
	tr := cfg.tracer()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c.mu.Lock()
		if epoch := tbl.Epoch(); epoch != a.epoch || c.byKey[a.key] != a.ent {
			a.epoch = epoch
			a.out, a.ent, a.dirty = c.decideLocked(tbl, a.key, cfg, epoch)
		}
		out, ent, epoch := a.out, a.ent, a.epoch
		var h *HoldTable
		var retry bool
		var err error
		switch out {
		case outcomeHit, outcomeRethreshold:
			c.lru.MoveToFront(ent.elem)
			metric := c.countLocked(out)
			c.mu.Unlock()
			tr.Counter(metric, 1)
			h = ent.h
		case outcomeDelta:
			// Maintain under the caller's config at the entry's
			// thresholds, so the refresh reports to this statement's
			// tracer; the entry's stored config carries none.
			buildCfg := cfg
			buildCfg.MinSupport, buildCfg.MaxK = ent.h.Cfg.MinSupport, ent.h.Cfg.MaxK
			h, retry, err = c.flyLocked(ctx, tbl, a.key, epoch, out, buildCfg, tr, func() (*HoldTable, error) {
				nh, err := ent.h.withCfg(buildCfg).MaintainContext(ctx, tbl, a.dirty)
				if err != nil && ctx.Err() == nil {
					// The dirty list raced a concurrent append, or the entry
					// turned out unmaintainable: fall back to a cold build at
					// the same coverage so waiters still receive a covering
					// table.
					nh, err = BuildHoldTableContext(ctx, tbl, buildCfg)
				}
				return nh, err
			})
		default:
			if ent != nil && ent.epoch != epoch {
				c.removeLocked(ent)
				c.stats.Invalidations++
				tr.Counter(obs.MetricCacheInvalidations, 1)
				c.gaugeLocked(tr)
			}
			h, retry, err = c.flyLocked(ctx, tbl, a.key, epoch, out, cfg, tr, func() (*HoldTable, error) {
				return BuildHoldTableContext(ctx, tbl, cfg)
			})
		}
		if retry {
			continue
		}
		if err != nil {
			return nil, err
		}
		// h is at the thresholds it was built at, which cover cfg's.
		if out == outcomeBuild || ent.exact(cfg) {
			return h.withCfg(cfg), nil
		}
		return h.thresholdView(cfg), nil
	}
}

// outcome is how the cache serves a statement; its text is Outcome's
// word, and countLocked bumps its one counter.
type outcome string

const (
	outcomeHit         outcome = "hit"         // a fresh entry at the statement's thresholds
	outcomeRethreshold outcome = "rethreshold" // a fresh entry at a lower support or deeper MaxK
	outcomeDelta       outcome = "delta"       // a stale covering entry, refreshed from the dirty granules
	outcomeBuild       outcome = "build"       // no usable entry: a cold build, or a wait on one
)

// decideLocked is the cache's one decision of how (tbl, cfg) is served
// at epoch, over the key's entry ent (nil when none). A fresh covering
// entry is a hit at its own thresholds and a rethreshold otherwise. A
// stale covering entry is refreshed by delta maintenance when delta is
// on, the table's change log still names the granules written since
// the entry's epoch (returned as dirty) and they hold a minority of the
// rows. Anything else builds: a stale entry is then dropped, a fresh
// narrower one replaced on insert. It changes nothing. Caller holds c.mu.
func (c *HoldCache) decideLocked(tbl *tdb.TxTable, key cacheKey, cfg Config, epoch int64) (out outcome, ent *cacheEntry, dirty []timegran.Granule) {
	ent = c.byKey[key]
	switch {
	case ent == nil, ent.epoch == epoch && !ent.covers(cfg):
		return outcomeBuild, ent, nil
	case ent.epoch == epoch && ent.exact(cfg):
		return outcomeHit, ent, nil
	case ent.epoch == epoch:
		return outcomeRethreshold, ent, nil
	case c.deltaOff || !ent.covers(cfg):
		return outcomeBuild, ent, nil
	}
	dirty, cur, ok := tbl.DirtySince(key.granularity, ent.epoch)
	if !ok || cur != epoch || !deltaWorthwhile(tbl, key.granularity, dirty) {
		return outcomeBuild, ent, nil
	}
	return outcomeDelta, ent, dirty
}

// countLocked bumps the counter of outcome out and returns the metric
// that mirrors it. Caller holds c.mu.
func (c *HoldCache) countLocked(out outcome) string {
	switch out {
	case outcomeHit:
		c.stats.Hits++
		return obs.MetricCacheHits
	case outcomeRethreshold:
		c.stats.Rethresholds++
		return obs.MetricCacheRethresholds
	case outcomeDelta:
		c.stats.Deltas++
		return obs.MetricCacheDeltas
	}
	c.stats.Misses++
	return obs.MetricCacheMisses
}

// flyLocked produces the table at buildCfg's thresholds once for every
// concurrent statement that needs it: it joins the flight in the air
// for them, or starts one that counts out, runs run, and caches the
// result unless it failed or a write raced it — a scan overlapping an
// Append may contain the new rows, and caching it under the old epoch
// would serve them to readers of the old state. Called with c.mu held;
// returns with it released. retry reports a joined flight that failed
// with its winner's context error, not the caller's: the flight is gone
// from the map, so the caller retries with a clean one instead of
// failing a live statement with a dead one's error.
func (c *HoldCache) flyLocked(ctx context.Context, tbl *tdb.TxTable, key cacheKey, epoch int64, out outcome, buildCfg Config, tr obs.Tracer, run func() (*HoldTable, error)) (h *HoldTable, retry bool, err error) {
	fk := flightKey{cacheKey: key, epoch: epoch, support: buildCfg.MinSupport, maxK: buildCfg.MaxK}
	if f := c.flights[fk]; f != nil {
		c.stats.Dedups++
		c.mu.Unlock()
		tr.Counter(obs.MetricCacheDedups, 1)
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-f.done:
		}
		if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
			return nil, true, nil
		}
		return f.h, false, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[fk] = f
	metric := c.countLocked(out)
	c.mu.Unlock()
	tr.Counter(metric, 1)

	h, err = run()
	f.h, f.err = h, err
	close(f.done)

	c.mu.Lock()
	delete(c.flights, fk)
	if err == nil && tbl.Epoch() == epoch {
		// insertLocked replaces a stale entry of the key and re-evicts
		// under the budget.
		c.insertLocked(key, epoch, h, tr)
	}
	c.gaugeLocked(tr)
	c.mu.Unlock()
	return h, false, err
}

// deltaWorthwhile caps delta maintenance at half the table's rows.
// Maintain counts on the cold build's backend and workers, so once the
// dirty region holds most of the data its recount, with a riser
// recovery over the rest, is no cheaper than the build.
func deltaWorthwhile(tbl *tdb.TxTable, g timegran.Granularity, dirty []timegran.Granule) bool {
	total := tbl.Len()
	if total == 0 {
		return false
	}
	rows := 0
	for _, gr := range dirty {
		rows += tbl.CountRange(g, timegran.Interval{Lo: gr, Hi: gr})
		if rows*2 > total {
			return false
		}
	}
	return true
}

// DisableDelta turns off delta maintenance for this cache: stale
// entries are invalidated on lookup and rebuilt from scratch, the
// pre-delta behaviour. benchmark/'s reference executor runs under it,
// so the answers it checks tarmd's delta path against are recounted
// from scratch.
func (c *HoldCache) DisableDelta() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deltaOff = true
}

// Probe reports how GetContext would serve (tbl, cfg) right now:
// Acquire's decision, not run. A nil cache always reports "build".
func (c *HoldCache) Probe(tbl *tdb.TxTable, cfg Config) string {
	return c.Acquire(tbl, cfg).Outcome()
}

// insertLocked adds a freshly built table, replacing the key's
// previous entry unless that entry already covers at least as much,
// then evicts from the cold end until the budget holds. The entry holds
// h without its tracer, so a resident table does not keep the building
// statement's trace alive. A table over the budget is kept as the only
// entry, so no stale entry is left to maintain again. Caller holds c.mu.
func (c *HoldCache) insertLocked(key cacheKey, epoch int64, h *HoldTable, tr obs.Tracer) {
	bytes := h.MemBytes()
	if old := c.byKey[key]; old != nil {
		if old.epoch == epoch && old.covers(h.Cfg) {
			// A concurrent build with broader coverage landed first.
			c.lru.MoveToFront(old.elem)
			return
		}
		c.removeLocked(old)
	}
	cfg := h.Cfg
	cfg.Tracer = nil
	ent := &cacheEntry{
		key:   key,
		epoch: epoch,
		bytes: bytes,
		cells: int64(h.TotalItemsets()) * int64(h.NGranules()),
		h:     h.withCfg(cfg),
	}
	ent.elem = c.lru.PushFront(ent)
	c.byKey[key] = ent
	c.stats.ResidentBytes += ent.bytes
	c.stats.ResidentCells += ent.cells
	for c.stats.ResidentBytes > c.maxBytes && c.lru.Len() > 1 {
		victim := c.lru.Back().Value.(*cacheEntry)
		c.removeLocked(victim)
		c.stats.Evictions++
		tr.Counter(obs.MetricCacheEvictions, 1)
	}
}

// removeLocked unlinks an entry and releases its accounting. Caller
// holds c.mu.
func (c *HoldCache) removeLocked(ent *cacheEntry) {
	c.lru.Remove(ent.elem)
	if c.byKey[ent.key] == ent {
		delete(c.byKey, ent.key)
	}
	c.stats.ResidentBytes -= ent.bytes
	c.stats.ResidentCells -= ent.cells
}

// gaugeLocked publishes the resident-cells gauge. Caller holds c.mu.
func (c *HoldCache) gaugeLocked(tr obs.Tracer) {
	tr.Gauge(obs.MetricCacheResidentCells, float64(c.stats.ResidentCells))
}

// thresholdView serves a statement at cfg's support (≥ h's) and MaxK
// (within h's) from h in place: it shares h's levels, frequency words
// and count vectors — cut to cfg.MaxK, never copied or filtered — and
// carries cfg and the per-granule thresholds of cfg's support. Every
// reader derives an itemset's words at those thresholds from the stored
// ones (thresholdWords) — the thresholds only rose, so the stored words
// are a superset — and so answers as h.Rethreshold(cfg) would; see
// EachRuleCandidate and lookup. The cache's re-threshold outcome is a
// view. A view is never cached, and MaintainContext and ExtendContext
// refuse one; Rethreshold materialises it. h keeps its scope, as under
// Rethreshold. The caller has checked that h covers cfg.
func (h *HoldTable) thresholdView(cfg Config) *HoldTable {
	cfg.Scope = h.Cfg.Scope
	nh := h.withCfg(cfg)
	nh.MinCounts = h.minCountsAt(cfg.MinSupport)
	if k := cfg.MaxK + 1; cfg.MaxK > 0 && k < len(h.ByK) {
		nh.ByK, nh.freq, nh.vecs = h.ByK[:k:k], h.freq[:k:k], h.vecs[:k:k]
	}
	nh.view = true
	return nh
}

// minCountsAt is MinCounts at another support: ceil(support · TxCounts)
// in every active granule of h, 0 elsewhere.
func (h *HoldTable) minCountsAt(support float64) []int {
	minCounts := make([]int, len(h.TxCounts))
	for gi, txc := range h.TxCounts {
		if bitAt(h.Active, gi) {
			minCounts[gi] = ceilCount(support, txc)
		}
	}
	return minCounts
}

// withCfg returns a shallow view of h carrying the caller's config:
// the count vectors, levels and thresholds are shared with h (the
// caller's support and MaxK equal the build's), while confidence,
// frequency and tracer — which the stored data does not depend on —
// are the caller's own.
func (h *HoldTable) withCfg(cfg Config) *HoldTable {
	nh := *h
	nh.Cfg = cfg
	return &nh
}

// MemBytes estimates the resident heap size of the hold table: the
// count vectors' blocks dominate (256 bytes per itemset and 64
// granules), plus a block pointer each, the frequency words (one bit
// per granule), the itemset itself, its slot in its level and the
// per-granule scaffolding. A maintained table's clean blocks are its
// predecessor's, but each table is charged all of its own: the cache
// evicts tables, not blocks. It is the sizing unit of the HoldCache
// budget.
func (h *HoldTable) MemBytes() int64 {
	// The ByK slot, one slice header.
	const perItemset = 24
	n := int64(h.NGranules())
	blocks := int64(len(h.Active))
	// Per block: the 64 counts, the pointer to them and the frequency word.
	perVector := blocks * (4*64 + 8 + 8)
	var itemBytes int64
	for k, level := range h.ByK {
		itemBytes += int64(len(level)) * (perVector + int64(8*k) + perItemset)
	}
	return itemBytes + n*24
}

// Rethreshold derives from h the exact hold table a cold build at
// cfg's (higher or equal) support and (equal or shallower) MaxK would
// produce, without rescanning any data: per-granule thresholds are
// recomputed, every stored level is filtered through them, and the
// level-wise stopping rule is replayed so the ByK structure matches a
// cold build level for level. Count vectors are shared with h by
// block, never copied. An itemset's filter visits only the granules
// its stored frequency words name, so a re-threshold costs the frequent
// cells, not the span.
//
// The monotonicity argument: per-granule counts do not depend on the
// thresholds, and an itemset frequent in granule g at the higher
// support was necessarily frequent in g at the build support (its
// count cleared a larger bound), so every itemset the cold build would
// retain is stored in h with identical counts — filtering cannot miss
// one. Conversely the filter applies exactly the cold build's
// per-granule bounds, so it cannot keep an extra one.
//
// A scoped table keeps its scope: the filter also requires an itemset's
// new words to hold the table's floor, so the result equals a cold
// build under the same scope; cfg's own Scope is not read.
//
// It errors when cfg is not covered: different granularity or
// MinGranuleTx (different granule grid), support below the build
// support, or MaxK deeper than built.
func (h *HoldTable) Rethreshold(cfg Config) (*HoldTable, error) {
	cfg, err := cfg.normalise()
	if err != nil {
		return nil, err
	}
	if cfg.Granularity != h.Cfg.Granularity {
		return nil, fmt.Errorf("core: Rethreshold granularity %v differs from build %v", cfg.Granularity, h.Cfg.Granularity)
	}
	if cfg.MinGranuleTx != h.Cfg.MinGranuleTx {
		return nil, fmt.Errorf("core: Rethreshold MinGranuleTx %d differs from build %d", cfg.MinGranuleTx, h.Cfg.MinGranuleTx)
	}
	if cfg.MinSupport < h.Cfg.MinSupport {
		return nil, fmt.Errorf("core: Rethreshold support %g below build support %g; rebuild instead", cfg.MinSupport, h.Cfg.MinSupport)
	}
	if !maxKCovers(h.Cfg.MaxK, cfg.MaxK) {
		return nil, fmt.Errorf("core: Rethreshold MaxK %d deeper than built %d; rebuild instead", cfg.MaxK, h.Cfg.MaxK)
	}
	n := h.NGranules()
	cfg.Scope = h.Cfg.Scope
	nh := &HoldTable{
		Cfg:       cfg,
		Span:      h.Span,
		TxCounts:  h.TxCounts,
		MinCounts: h.minCountsAt(cfg.MinSupport),
		Active:    h.Active,
		NActive:   h.NActive,
		ByK:       [][]itemset.Set{nil},
		freq:      [][]uint64{nil},
		vecs:      [][]*block{nil},
		floor:     h.floor,
	}
	// filter passes stored level k through the new thresholds, visiting
	// only the granules where the itemset was frequent at the build
	// support: the thresholds only rose, so those are a superset of
	// where it is frequent now. It keeps an itemset frequent in the
	// table's floor of granules. The filtered slice of a sorted level
	// stays sorted. h may itself be a view: its stored words are then
	// those of its base, a superset still.
	thr := nh.thresholds()
	fw := make([]uint64, len(h.Active))
	var words []uint64
	var blocks []*block
	filter := func(k int) (level []itemset.Set) {
		words, blocks = words[:0], blocks[:0]
		for i, s := range h.ByK[k] {
			v := h.vecOf(k, i)
			if thresholdWords(fw, h.levelFreq(k, i), v, thr) >= nh.floor {
				level = append(level, s)
				words = append(words, fw...)
				blocks = append(blocks, v...)
			}
		}
		return level
	}
	l1 := filter(1)
	nh.appendLevel(l1, slices.Clone(words), slices.Clone(blocks))
	// Higher levels replay the cold build's loop: stop where it would
	// stop (thin level, empty join, MaxK), append an empty level where
	// it would count candidates and find none. A stored k-level can
	// never lack an itemset the cold build retains: that itemset is
	// granule-frequent at the lower build support too. And a stored
	// k-itemset that survives the filter is frequent in floor granules,
	// where by downward closure all its (k-1)-subsets are frequent too:
	// they are in prev and the join of prev produces it. So a non-empty
	// filtered level proves the join non-empty, and the join itself is
	// run only to tell "counted, none frequent" from "nothing to count".
	prev := l1
	for k := 2; len(prev) > 1 && (cfg.MaxK == 0 || k <= cfg.MaxK) && k < len(h.ByK); k++ {
		level := filter(k)
		if len(level) == 0 {
			cands, _, _, err := generateFromSets(context.Background(), prev)
			if err != nil {
				return nil, err
			}
			if len(cands) == 0 {
				break
			}
		}
		nh.appendLevel(level, slices.Clone(words), slices.Clone(blocks))
		prev = level
	}
	if tr := cfg.tracer(); tr.Enabled() {
		tr.Counter(obs.MetricItemsetsFrequent, int64(nh.TotalItemsets()))
		tr.Gauge(obs.MetricHoldCells, float64(nh.TotalItemsets())*float64(n))
	}
	return nh, nil
}
