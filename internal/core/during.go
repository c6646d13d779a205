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

// ruleCandidateLoop runs fn for every rule candidate of h, sampling
// ctx every cancelStride candidates, and returns ctx.Err() when the
// enumeration stopped on cancellation.
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

// emitRules is the scaffold shared by the rule-emitting task operators.
// Under a task:<task> span it hands every rule candidate that is
// granule-frequent somewhere, with its hold sequence, to detect — the
// only per-task part: which features the sequence yields, each turned
// into a rule by featureRule and appended to out. hold is one scratch
// vector refilled per candidate, valid only during the detect call, as
// are the candidate's antecedent and consequent. The collected rules are
// sorted by cmp and counted as rules_emitted.
func emitRules[R any](ctx context.Context, h *HoldTable, task string, cmp func(a, b R) int,
	detect func(out []R, rc RuleCandidate, hold []uint64) []R) ([]R, error) {
	if tr := h.Cfg.tracer(); tr.Enabled() {
		tr.StartTask(obs.TaskSpan(task))
		defer tr.EndTask()
	}
	var out []R
	hold := make([]uint64, len(h.Active))
	err := ruleCandidateLoop(ctx, h, func(rc RuleCandidate) {
		h.Holds(rc, hold)
		out = detect(out, rc, hold)
	})
	if err != nil {
		return nil, err
	}
	slices.SortFunc(out, cmp)
	h.Cfg.tracer().Counter(obs.MetricRulesEmitted, int64(len(out)))
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

	return emitRules(ctx, h, obs.TaskDuring, temporalRuleCmp, func(out []TemporalRule, rc RuleCandidate, hold []uint64) []TemporalRule {
		if apriori.AndCount(inFeature, hold) < minHold {
			return out
		}
		if tr, ok := h.featureRule(rc, hold, feature, inFeature); ok {
			out = append(out, tr)
		}
		return out
	})
}

// temporalRuleCmp orders results canonically: by rule, then by the
// feature's textual form.
func temporalRuleCmp(a, b TemporalRule) int {
	if c := a.Rule.Compare(b.Rule); c != 0 {
		return c
	}
	return strings.Compare(a.Feature.String(), b.Feature.String())
}

// MineTraditionalContext is the time-agnostic baseline: plain Apriori
// over the whole table, ignoring timestamps, on the given counting
// backend, worker count and tracer. Experiment E1 compares its output
// against the temporal miners to count the rules a traditional approach
// misses. The level-wise passes observe cancellation between passes.
// The table goes to apriori as one contiguous row block per worker
// (tdb.TxTable.AllBlocks), so every worker counts.
func MineTraditionalContext(ctx context.Context, tbl *tdb.TxTable, minSupport, minConfidence float64, maxK int, backend apriori.Backend, workers int, tracer obs.Tracer) ([]apriori.Rule, error) {
	_, rules, err := apriori.MineRulesContext(
		ctx,
		tbl.AllBlocks(workers),
		apriori.Config{MinSupport: minSupport, MaxK: maxK, Backend: backend, Workers: workers, Tracer: tracer},
		apriori.RuleConfig{MinConfidence: minConfidence},
	)
	if err == nil {
		obs.OrNop(tracer).Counter(obs.MetricRulesEmitted, int64(len(rules)))
	}
	return rules, err
}
