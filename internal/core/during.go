package core

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// cancelStride is how many rule candidates the task operators enumerate
// between context checks: coarse enough to stay off the hot path,
// fine enough to stop a large enumeration promptly.
const cancelStride = 256

// floorless, set only by tests, makes every operator enumerate at
// floor 1: the reference its enumeration floor is held to.
var floorless bool

// emitRules is the scaffold shared by the rule-emitting task operators.
// Under a task:<task> span it hands every rule candidate whose full
// itemset is frequent in at least floor granules of mask (of the span
// when mask is nil) — with its hold sequence — to detect, the only
// per-task part: which features the sequence yields, each turned into a
// rule by featureRule and appended to out. floor is the least number of
// holding granules any of the task's detectors accepts there, from the
// function Scope.resolve applies to a scoped build, so an itemset below
// it is skipped before any of its rules is formed (EachRuleCandidate).
// hold is one scratch vector refilled per candidate, valid only during
// the detect call, as are the candidate's antecedent and consequent.
// ctx is sampled every cancelStride candidates. The collected rules are
// sorted by cmp and counted as rules_emitted, beside the candidates
// formed, the itemsets skipped and the floor.
func emitRules[R any](ctx context.Context, h *HoldTable, task string, floor int, mask []uint64, cmp func(a, b R) int,
	detect func(out []R, rc RuleCandidate, hold []uint64) []R) ([]R, error) {
	tr := h.Cfg.tracer()
	if tr.Enabled() {
		tr.StartTask(obs.TaskSpan(task))
		defer tr.EndTask()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if floorless {
		floor = 1
	}
	var out []R
	hold := make([]uint64, len(h.Active))
	conf := h.confTest()
	done := ctx.Done()
	seen := 0
	cancelled := false
	formed, skipped := h.EachRuleCandidate(floor, mask, func(rc RuleCandidate) bool {
		if seen++; done != nil && seen%cancelStride == 0 {
			select {
			case <-done:
				cancelled = true
				return false
			default:
			}
		}
		h.holds(rc, hold, conf)
		out = detect(out, rc, hold)
		return true
	})
	if cancelled {
		return nil, ctx.Err()
	}
	slices.SortFunc(out, cmp)
	tr.Counter(obs.MetricRulesEmitted, int64(len(out)))
	tr.Counter(obs.MetricRuleCandidates, int64(formed))
	tr.Counter(obs.MetricItemsetsBelowFloor, int64(skipped))
	tr.Gauge(obs.MetricTaskFloor, float64(floor))
	return out, nil
}

// MineDuringFromTableContext runs Task III over a built hold table:
// given a temporal feature expressed as a calendar-algebra pattern, find
// the association rules that hold during it — i.e. hold (per-granule
// support and confidence) in at least MinFreq of the feature's active
// granules. The returned rules carry aggregate support/confidence over
// the feature's sub-database.
//
// The operator reads only the feature's active granules, so h may be
// unscoped (a shared table counts every granule of the span) or scoped
// to this statement by DuringScope, which counts only the covered
// granules and makes the build's cost follow the feature's coverage
// (EXPERIMENTS E8). Both emit the same rules. Cancellation is sampled
// every few hundred rule candidates.
func MineDuringFromTableContext(ctx context.Context, h *HoldTable, feature timegran.Pattern) ([]TemporalRule, error) {
	if feature == nil {
		return nil, fmt.Errorf("core: MineDuring needs a temporal feature")
	}
	// Materialise the feature over the span once.
	inFeature := make([]uint64, len(h.Active))
	for gi := 0; gi < h.NGranules(); gi++ {
		if bitAt(h.Active, gi) && feature.Matches(h.Cfg.Granularity, h.Span.Lo+int64(gi)) {
			setBit(inFeature, gi)
		}
	}
	nFeature := popcount(inFeature)
	if nFeature == 0 {
		return nil, fmt.Errorf("core: temporal feature %v covers no active granule of the data", feature)
	}
	minHold := ceilCount(h.Cfg.MinFreq, nFeature)

	return emitRules(ctx, h, obs.TaskDuring, minHold, inFeature, TemporalRule.Compare, func(out []TemporalRule, rc RuleCandidate, hold []uint64) []TemporalRule {
		if apriori.AndCount(inFeature, hold) < minHold {
			return out
		}
		if tr, ok := h.featureRule(rc, hold, feature, inFeature); ok {
			out = append(out, tr)
		}
		return out
	})
}

// Compare orders Task III results canonically, by identity: by rule,
// then by the feature's textual form. The operator emits its rules in
// this order, and a standing refresh merge-walks two results by it.
func (r TemporalRule) Compare(o TemporalRule) int {
	if c := r.Rule.Compare(o.Rule); c != 0 {
		return c
	}
	return strings.Compare(r.Feature.String(), o.Feature.String())
}

// MineTraditionalContext is the time-agnostic baseline: plain Apriori
// over the whole table, ignoring timestamps, at cfg's MinSupport,
// MinConfidence and MaxK, on its Backend, Workers and Tracer; the
// temporal fields (Granularity, MinFreq, MinGranuleTx, Scope) do not
// apply. Experiment E1 compares its output against the temporal miners
// to count the rules a traditional approach misses. The level-wise
// passes observe cancellation between passes. The table goes to
// apriori as one contiguous row block per worker
// (tdb.TxTable.AllBlocks), so every worker counts.
func MineTraditionalContext(ctx context.Context, tbl *tdb.TxTable, cfg Config) ([]apriori.Rule, error) {
	_, rules, err := apriori.MineRulesContext(
		ctx,
		tbl.AllBlocks(cfg.Workers),
		apriori.Config{MinSupport: cfg.MinSupport, MaxK: cfg.MaxK, Backend: cfg.Backend, Workers: cfg.Workers, Tracer: cfg.Tracer},
		apriori.RuleConfig{MinConfidence: cfg.MinConfidence},
	)
	if err == nil {
		obs.OrNop(cfg.Tracer).Counter(obs.MetricRulesEmitted, int64(len(rules)))
	}
	return rules, err
}
