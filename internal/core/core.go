// Package core implements temporal association rule mining: the three
// restricted discovery tasks of Chen & Petrounias (ICDE 2000).
//
// A temporal association rule is a pair (AR, TF): an association rule
// AR : X ⇒ Y together with a temporal feature TF describing *when* the
// rule holds. Because the joint search space (rules × temporal
// features) is intractable, the system offers three restricted tasks,
// each an operator over a built HoldTable:
//
//   - MineValidPeriodsFromTableContext (Task I): find the maximal time
//     intervals during which each rule holds.
//   - MineCyclesFromTableContext / MineCalendarPeriodicitiesFromTableContext
//     (Task II): find the periodicities — arithmetic cycles over the
//     granule axis, or calendar classes such as day-of-week — that each
//     rule obeys.
//   - MineDuringFromTableContext (Task III): given a temporal feature
//     expressed in the calendar algebra, find the rules that hold during
//     it.
//
// All three share one counting substrate, the HoldTable: a level-wise
// Apriori pass that counts every candidate itemset in every time
// granule of the dataset in a single scan per level. A caller builds it
// once (BuildHoldTableContext, or HoldCache.GetContext to share it
// across statements), runs any number of operators over it, and
// refreshes it after appends with MaintainContext / ExtendContext. That
// (ctx, hold-table) form is the only spelling of a task here; the
// one-call convenience forms live in the tarm facade.
package core

import (
	"fmt"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/timegran"
)

// Config carries the thresholds shared by every temporal mining task.
type Config struct {
	// Granularity discretises the time axis (e.g. Day: the rule must
	// hold day by day).
	Granularity timegran.Granularity
	// MinSupport is the per-granule minimum support fraction: inside a
	// granule g a rule needs count ≥ ceil(MinSupport · |g|).
	MinSupport float64
	// MinConfidence is the per-granule minimum confidence.
	MinConfidence float64
	// MinFreq is the frequency threshold in (0,1]: the fraction of a
	// temporal feature's (active) granules in which the rule must hold.
	// 1 demands the rule hold in every granule of the feature.
	MinFreq float64
	// MaxK bounds itemset size (0 = unbounded).
	MaxK int
	// MinGranuleTx marks granules with fewer transactions as inactive:
	// they are skipped entirely and count neither for nor against a
	// rule. Zero defaults to 1 (empty granules are inactive).
	MinGranuleTx int
	// Workers parallelises the per-granule counting pass — across
	// contiguous granule blocks on the level-1 scan, both routes of the
	// level-2 pair decision, the flat-bitmap ingest and the naive
	// backend, across candidate chunks on the bitmap and roaring
	// backends. Either way granule counts are identical to a sequential
	// pass. 0 or 1 counts sequentially; the CLIs' -workers defaults to
	// one worker per CPU.
	Workers int
	// Backend selects the support-counting backend of the per-granule
	// pass (auto, naive, bitmap, roaring); see the apriori package.
	// Auto picks from the data shape after the level-1 scan: the flat
	// bitmap while its index fits under the cap, roaring past it.
	Backend apriori.Backend
	// Scope, when set, scopes the build to the one statement it serves:
	// the build keeps only the itemsets that statement can report (and,
	// for DURING, counts only the feature's granules). The task
	// operators emit the same rules over a scoped table as over an
	// unscoped one; the table itself can be neither maintained nor
	// shared, so HoldCache.GetContext drops the scope of a build it
	// caches. See Scope.
	Scope Scope
	// Tracer receives per-pass telemetry from the hold-table build and
	// per-task counters from the mining task drivers. Nil disables
	// tracing at no measurable cost; see internal/obs.
	Tracer obs.Tracer
}

// tracer resolves the configured tracer, mapping nil to the no-op.
func (c Config) tracer() obs.Tracer { return obs.OrNop(c.Tracer) }

// normalise validates and fills defaults.
func (c Config) normalise() (Config, error) {
	if !c.Granularity.Valid() {
		return c, fmt.Errorf("core: invalid granularity %d", int(c.Granularity))
	}
	if c.MinSupport <= 0 || c.MinSupport > 1 {
		return c, fmt.Errorf("core: MinSupport %v outside (0,1]", c.MinSupport)
	}
	if c.MinConfidence < 0 || c.MinConfidence > 1 {
		return c, fmt.Errorf("core: MinConfidence %v outside [0,1]", c.MinConfidence)
	}
	if c.MinFreq <= 0 || c.MinFreq > 1 {
		return c, fmt.Errorf("core: MinFreq %v outside (0,1]", c.MinFreq)
	}
	if c.MinGranuleTx < 0 {
		return c, fmt.Errorf("core: MinGranuleTx %d negative", c.MinGranuleTx)
	}
	if c.MinGranuleTx == 0 {
		c.MinGranuleTx = 1
	}
	if c.MaxK < 0 {
		return c, fmt.Errorf("core: MaxK %d negative", c.MaxK)
	}
	if c.Workers < 0 {
		return c, fmt.Errorf("core: Workers %d negative", c.Workers)
	}
	if !c.Backend.Valid() {
		return c, fmt.Errorf("core: invalid counting backend %d", int(c.Backend))
	}
	return c, nil
}

// TemporalRule pairs an association rule with a discovered temporal
// feature. Support and Confidence inside Rule are aggregates over the
// granules the feature covers (within the mined span).
type TemporalRule struct {
	Rule    apriori.Rule
	Feature timegran.Pattern
	// Granularity the feature is expressed at.
	Granularity timegran.Granularity
	// Freq is the fraction of the feature's active granules in which
	// the rule held (≥ the configured MinFreq).
	Freq float64
	// HoldGranules is the number of active granules in which the rule
	// held; FeatureGranules the number of active granules the feature
	// covers within the mined span.
	HoldGranules, FeatureGranules int
}

// String renders "rule @ feature (freq 0.93)".
func (t TemporalRule) String() string {
	return fmt.Sprintf("%v @ %v (freq %.2f)", t.Rule, t.Feature, t.Freq)
}
