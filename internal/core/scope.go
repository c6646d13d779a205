package core

import (
	"fmt"

	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// Scope names the one statement a private build serves, so the build
// counts only what that statement can report. The zero Scope is no
// scope: the table keeps every itemset frequent in one active granule
// and serves any task, which is what a shared (cached) table must do.
//
// A scoped build applies two things, both derived in resolve from the
// bounds the task's own detector compares against, so the two cannot
// drift:
//
//   - A floor m: an itemset is kept only if it is frequent in at least
//     m active granules. A rule holds only where its itemset is
//     frequent, and every detector needs some number of holding
//     granules, so an itemset below the least of them emits nothing.
//     "Frequent in ≥ m granules" is anti-monotone — a subset is
//     frequent wherever its superset is — so the floor is a sound
//     Apriori prune at every level, and a rule's antecedent and
//     consequent pass wherever its itemset does.
//   - A cover (DURING only): the granules outside the feature become
//     inactive, so the scans count only the rows the feature covers.
//     The task reads nothing else: it scores a rule over the feature's
//     active granules alone.
//
// A scoped table answers its own statement exactly as an unscoped one
// would; it cannot be maintained or shared. See DESIGN §"A statement's
// scope".
type Scope struct {
	task    string // obs task key; "" is no scope
	periods PeriodConfig
	cycles  CycleConfig      // cycles and calendars
	feature timegran.Pattern // during
}

// PeriodsScope scopes a build to one Task I statement.
func PeriodsScope(p PeriodConfig) Scope { return Scope{task: obs.TaskPeriods, periods: p} }

// CyclesScope scopes a build to one Task II cycles statement.
func CyclesScope(c CycleConfig) Scope { return Scope{task: obs.TaskCycles, cycles: c} }

// CalendarsScope scopes a build to one Task II calendars statement.
func CalendarsScope(c CycleConfig) Scope { return Scope{task: obs.TaskCalendars, cycles: c} }

// DuringScope scopes a build to one Task III statement over feature.
func DuringScope(feature timegran.Pattern) Scope {
	return Scope{task: obs.TaskDuring, feature: feature}
}

// String names the scope's statement: its task, and DURING's feature.
func (s Scope) String() string {
	if s.feature != nil {
		return fmt.Sprintf("%s %q", s.task, s.feature.String())
	}
	return s.task
}

// resolve applies s to the header of a table being built — h's
// activity, span and MinFreq, no itemsets yet: it sets h.floor, and for
// DURING clears the granules outside the feature from h.Active. A task
// configuration its operator would reject leaves h unscoped, so the
// operator reports the error as it would over any table. A floor above
// h.NActive means the task can report nothing here: the build keeps no
// itemset and scans nothing.
func (s Scope) resolve(h *HoldTable) {
	switch s.task {
	case obs.TaskPeriods:
		p, err := s.periods.normalise()
		if err != nil {
			return
		}
		h.floor = periodsFloor(h.Cfg.MinFreq, p)
	case obs.TaskCycles:
		c, err := s.cycles.normalise()
		if err != nil {
			return
		}
		h.floor = cyclesFloor(cycleClasses(h.Active, h.NGranules(), h.Span.Lo, c.MaxLen, c.MinReps, h.Cfg.MinFreq), h.NActive)
	case obs.TaskCalendars:
		c, err := s.cycles.normalise()
		fields := calendarFieldsFor(h.Cfg.Granularity)
		if err != nil || len(fields) == 0 {
			return
		}
		h.floor = calendarsFloor(h.calendarClasses(fields, c.MinReps), h.NActive)
	case obs.TaskDuring:
		if s.feature == nil {
			return
		}
		for gi := range h.NGranules() {
			if bitAt(h.Active, gi) && !s.feature.Matches(h.Cfg.Granularity, h.Span.Lo+int64(gi)) {
				h.Active[gi>>6] &^= 1 << uint(gi&63)
				h.MinCounts[gi] = 0
				h.NActive--
			}
		}
		h.floor = ceilCount(h.Cfg.MinFreq, h.NActive)
	}
}

// The task floors: the least number of holding granules any detector
// of the task accepts, so an itemset frequent in fewer emits nothing.
// Scope.resolve raises a scoped build's floor to them, and the task's
// operator skips the itemsets below them at enumeration over any table;
// both call these, so the build's prune and the skip cannot drift.
// DURING's is ceilCount(MinFreq, ·) over the feature's active granules.

// periodsFloor is Task I's floor: an interval spans ≥ MinLen active
// granules with both endpoints holding — two distinct ones once
// MinLen ≥ 2 — and holds in minHits of them; minHits grows with the
// span.
func periodsFloor(minFreq float64, p PeriodConfig) int {
	return max(minHits(minFreq, p.MinLen), min(p.MinLen, 2))
}

// cyclesFloor is the cycle detector's floor: the least need of its
// classes (they ascend in need), or nActive+1 — nothing — without one.
func cyclesFloor(classes []cycleClass, nActive int) int {
	least := nActive + 1
	if len(classes) > 0 {
		least = classes[0].need
	}
	return max(1, least)
}

// calendarsFloor is the calendar detector's floor: the least need of
// any field's classes (a class under MinReps needs math.MaxInt), or
// nActive+1 without one.
func calendarsFloor(classes [][]valueClass, nActive int) int {
	least := nActive + 1
	for _, field := range classes {
		for _, vc := range field {
			least = min(least, vc.need)
		}
	}
	return max(1, least)
}

// ScopeInfo is a resolved scope, for EXPLAIN: the floor, DURING's
// feature (nil for the other tasks) and the active granules the build
// counts.
type ScopeInfo struct {
	Floor   int
	Cover   timegran.Pattern
	Counted int
}

// ScopeOf reports the scope GetContext would apply to a build of
// (tbl, cfg) now: ok is false when cfg carries none, when the table
// cannot be built, or when c is non-nil — a cache builds tables to
// share, unscoped. Read-only, like Probe.
func (c *HoldCache) ScopeOf(tbl *tdb.TxTable, cfg Config) (info ScopeInfo, ok bool) {
	if c != nil {
		return ScopeInfo{}, false
	}
	return ResolveScope(tbl, cfg)
}

// ResolveScope reports what cfg's Scope resolves to over tbl now,
// whoever builds the table: its Floor is also the floor the task's
// operator enumerates at over a table of tbl, scoped or shared. ok is
// false when cfg carries no scope or the table cannot be built.
// Read-only.
func ResolveScope(tbl *tdb.TxTable, cfg Config) (info ScopeInfo, ok bool) {
	if cfg.Scope.task == "" {
		return ScopeInfo{}, false
	}
	cfg, err := cfg.normalise()
	if err != nil {
		return ScopeInfo{}, false
	}
	view, ok := tbl.Granules(cfg.Granularity)
	if !ok {
		return ScopeInfo{}, false
	}
	h, err := newHoldTable(view, cfg)
	if err != nil {
		return ScopeInfo{}, false
	}
	cfg.Scope.resolve(h)
	return ScopeInfo{Floor: h.floor, Cover: cfg.Scope.feature, Counted: h.NActive}, true
}

// ResolvedScope reports the scope h's build applied — what ScopeOf
// predicts, read off the table: ok is false for an unscoped table.
func (h *HoldTable) ResolvedScope() (info ScopeInfo, ok bool) {
	if h.Cfg.Scope.task == "" {
		return ScopeInfo{}, false
	}
	return ScopeInfo{Floor: h.floor, Cover: h.Cfg.Scope.feature, Counted: h.NActive}, true
}

// refreshErr is the refusal of a refresh on a table that cannot take
// one. A scoped table lacks the itemsets below its floor (and DURING's
// uncovered granules) that a refresh would need. A threshold view's
// stored words are not those of its thresholds. Either way the caller
// rebuilds.
func (h *HoldTable) refreshErr(op string) error {
	switch {
	case h.view:
		return fmt.Errorf("core: %s on a threshold view at support %g; refresh the table it was served from, or rebuild", op, h.Cfg.MinSupport)
	case h.Cfg.Scope.task != "":
		return fmt.Errorf("core: %s on a table scoped to one %s statement (floor %d); rebuild instead", op, h.Cfg.Scope, h.floor)
	}
	return nil
}
