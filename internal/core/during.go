package core

import (
	"context"
	"fmt"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// cancelStride is how many rule candidates the task drivers enumerate
// between context checks: coarse enough to stay off the hot path,
// fine enough to stop a large enumeration promptly.
const cancelStride = 256

// ruleCandidateLoop runs fn for every rule candidate of h, sampling
// ctx every cancelStride candidates, and returns ctx.Err() when the
// enumeration stopped on cancellation. It is the shared cancellation
// scaffold of the task drivers.
func ruleCandidateLoop(ctx context.Context, h *HoldTable, fn func(rc RuleCandidate)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	done := ctx.Done()
	seen := 0
	cancelled := false
	h.EachRuleCandidate(func(rc RuleCandidate) bool {
		if seen++; done != nil && seen%cancelStride == 0 {
			select {
			case <-done:
				cancelled = true
				return false
			default:
			}
		}
		fn(rc)
		return true
	})
	if cancelled {
		return ctx.Err()
	}
	return nil
}

// MineDuring runs Task III: given a temporal feature expressed as a
// calendar-algebra pattern, find the association rules that hold during
// it — i.e. hold (per-granule support and confidence) in at least
// MinFreq of the feature's active granules. The returned rules carry
// aggregate support/confidence over the feature's sub-database.
//
// This restricted task only needs to count inside the feature's
// granules, so it builds its HoldTable from the feature's sub-span
// rather than the whole table.
func MineDuring(tbl *tdb.TxTable, cfg Config, feature timegran.Pattern) ([]TemporalRule, error) {
	return MineDuringContext(context.Background(), tbl, cfg, feature)
}

// MineDuringContext is MineDuring under a context: both the hold-table
// build and the rule enumeration observe cancellation.
func MineDuringContext(ctx context.Context, tbl *tdb.TxTable, cfg Config, feature timegran.Pattern) ([]TemporalRule, error) {
	cfg, err := cfg.normalise()
	if err != nil {
		return nil, err
	}
	if feature == nil {
		return nil, fmt.Errorf("core: MineDuring needs a temporal feature")
	}
	h, err := BuildHoldTableContext(ctx, tbl, cfg)
	if err != nil {
		return nil, err
	}
	return MineDuringFromTableContext(ctx, h, feature)
}

// MineDuringFromTable is MineDuring over a prebuilt HoldTable.
func MineDuringFromTable(h *HoldTable, feature timegran.Pattern) ([]TemporalRule, error) {
	return MineDuringFromTableContext(context.Background(), h, feature)
}

// MineDuringFromTableContext is MineDuringFromTable under a context;
// cancellation is sampled every few hundred rule candidates.
func MineDuringFromTableContext(ctx context.Context, h *HoldTable, feature timegran.Pattern) ([]TemporalRule, error) {
	if feature == nil {
		return nil, fmt.Errorf("core: MineDuring needs a temporal feature")
	}
	if tr := h.Cfg.tracer(); tr.Enabled() {
		tr.StartTask(obs.TaskSpan(obs.TaskDuring))
		defer tr.EndTask()
	}
	// Materialise the feature over the span once.
	inFeature := make([]bool, h.NGranules())
	nFeature := 0
	for gi := range inFeature {
		if h.Active[gi] && feature.Matches(h.Cfg.Granularity, h.Span.Lo+int64(gi)) {
			inFeature[gi] = true
			nFeature++
		}
	}
	if nFeature == 0 {
		return nil, fmt.Errorf("core: temporal feature %v covers no active granule of the data", feature)
	}
	minHold := ceilCount(h.Cfg.MinFreq, nFeature)

	var out []TemporalRule
	err := ruleCandidateLoop(ctx, h, func(rc RuleCandidate) {
		hold, ok := h.Holds(rc)
		if !ok {
			return
		}
		nHold := 0
		for gi, in := range inFeature {
			if in && hold[gi] {
				nHold++
			}
		}
		if nHold < minHold {
			return
		}
		rule, ok := h.AggStats(rc, func(gi int) bool { return inFeature[gi] })
		if !ok {
			return
		}
		out = append(out, TemporalRule{
			Rule:            rule,
			Feature:         feature,
			Granularity:     h.Cfg.Granularity,
			Freq:            float64(nHold) / float64(nFeature),
			HoldGranules:    nHold,
			FeatureGranules: nFeature,
		})
	})
	if err != nil {
		return nil, err
	}
	SortTemporalRules(out)
	h.Cfg.tracer().Counter(obs.MetricRulesEmitted, int64(len(out)))
	return out, nil
}

// MineDuringExpr is MineDuring with the feature given in the textual
// calendar-algebra syntax, e.g. "month in (jun..aug)".
func MineDuringExpr(tbl *tdb.TxTable, cfg Config, expr string) ([]TemporalRule, error) {
	p, err := timegran.ParsePattern(expr)
	if err != nil {
		return nil, err
	}
	return MineDuring(tbl, cfg, p)
}

// MineTraditional is the time-agnostic baseline: plain Apriori over the
// whole table, ignoring timestamps. Experiment E1 compares its output
// against the temporal miners to count the rules a traditional approach
// misses.
func MineTraditional(tbl *tdb.TxTable, minSupport, minConfidence float64, maxK int) ([]apriori.Rule, error) {
	return MineTraditionalContext(context.Background(), tbl, minSupport, minConfidence, maxK, apriori.BackendAuto, 0, nil)
}

// MineTraditionalContext is MineTraditional under a context — the
// level-wise passes observe cancellation between passes — with an
// explicit counting backend, worker count and tracer.
func MineTraditionalContext(ctx context.Context, tbl *tdb.TxTable, minSupport, minConfidence float64, maxK int, backend apriori.Backend, workers int, tracer obs.Tracer) ([]apriori.Rule, error) {
	_, rules, err := apriori.MineRulesContext(
		ctx,
		tbl.All(),
		apriori.Config{MinSupport: minSupport, MaxK: maxK, Backend: backend, Workers: workers, Tracer: tracer},
		apriori.RuleConfig{MinConfidence: minConfidence},
	)
	if err == nil {
		obs.OrNop(tracer).Counter(obs.MetricRulesEmitted, int64(len(rules)))
	}
	return rules, err
}
