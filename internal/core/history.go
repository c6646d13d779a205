package core

import (
	"context"
	"fmt"

	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/timegran"
)

// GranuleStat is one granule of a rule's support history.
type GranuleStat struct {
	Granule    timegran.Granule
	TxCount    int
	Count      int     // transactions containing ante ∪ cons
	Support    float64 // Count / TxCount
	Confidence float64 // Count / count(ante)
	Active     bool
	Holds      bool // support ≥ per-granule threshold and confidence ≥ MinConfidence
}

// History returns the per-granule support/confidence series of the
// rule, for result analysis in the IQMI loop ("why does this rule hold
// only in summer?"). ok is false when the rule's itemset is not
// granule-frequent anywhere — then no counts were retained.
func (h *HoldTable) History(rc RuleCandidate) ([]GranuleStat, bool) {
	rc, ok := h.candidate(rc.Ante, rc.Cons)
	if !ok {
		return nil, false
	}
	hold := make([]uint64, len(h.Active))
	h.Holds(rc, hold)
	fullCounts, anteCounts := rc.full, rc.ante
	out := make([]GranuleStat, h.NGranules())
	for gi := range out {
		s := GranuleStat{
			Granule: h.Span.Lo + int64(gi),
			TxCount: h.TxCounts[gi],
			Count:   int(fullCounts.at(gi)),
			Active:  bitAt(h.Active, gi),
			Holds:   bitAt(hold, gi),
		}
		if s.TxCount > 0 {
			s.Support = float64(s.Count) / float64(s.TxCount)
		}
		if anteCounts != nil {
			if a := anteCounts.at(gi); a > 0 {
				s.Confidence = float64(s.Count) / float64(a)
			}
		}
		out[gi] = s
	}
	return out, true
}

// RuleHistoryFromTableContext returns a rule's per-granule history from
// a built hold table, which must be at least len(ante ∪ cons) levels
// deep (MaxK 0 or ≥ it). The lookup itself is cheap (one pass over the
// span), so the context is only checked up front.
func RuleHistoryFromTableContext(ctx context.Context, h *HoldTable, ante, cons itemset.Set) ([]GranuleStat, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if tr := h.Cfg.tracer(); tr.Enabled() {
		tr.StartTask(obs.TaskSpan(obs.TaskHistory))
		defer tr.EndTask()
	}
	if ante.Len() == 0 || cons.Len() == 0 {
		return nil, fmt.Errorf("core: rule history needs non-empty antecedent and consequent")
	}
	if ante.Intersect(cons).Len() != 0 {
		return nil, fmt.Errorf("core: antecedent and consequent overlap")
	}
	full := ante.Union(cons)
	if h.Cfg.MaxK != 0 && h.Cfg.MaxK < full.Len() {
		return nil, fmt.Errorf("core: hold table counts only %d-itemsets; rule needs %d", h.Cfg.MaxK, full.Len())
	}
	stats, ok := h.History(RuleCandidate{Ante: ante, Cons: cons, Full: full})
	if !ok {
		return nil, fmt.Errorf("core: rule %v => %v is not frequent in any granule at support %g",
			ante, cons, h.Cfg.MinSupport)
	}
	return stats, nil
}
