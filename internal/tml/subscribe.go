package tml

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/core"
	"github.com/tarm-project/tarm/internal/minisql"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// Continuous mining: a SUBSCRIBE MINE statement registers a *standing*
// statement that re-runs when granules close and emits only what
// changed. This file is the transport-free half — the Standing type
// that owns one statement's lifecycle (close detection, cache
// pre-maintenance, re-execution, the typed diff) and the delta/fold
// algebra a consumer needs to reconstruct the full result from the
// stream. The tarmd server wraps Standings with queues and HTTP; iqms
// drives them inline after each statement.

// Delta kinds. "changed" covers support/confidence/frequency movement
// of a rule whose identity is unchanged.
const (
	DeltaAdded   = "added"
	DeltaRemoved = "removed"
	DeltaChanged = "changed"
)

// RuleDelta is one change to a standing statement's result set.
type RuleDelta struct {
	Kind string `json:"kind"`
	// Key is the row's identity: every display cell except the measure
	// columns (support, confidence, frequency), joined by "\x1f". Two
	// refreshes talk about the same rule iff their keys match.
	Key string `json:"key"`
	// Row is the current display row (added and changed kinds).
	Row []string `json:"row,omitempty"`
	// Prev is the previous display row (removed and changed kinds).
	Prev []string `json:"prev,omitempty"`
}

// measureCol reports whether a result column carries a measure rather
// than identity: measures may move without the rule becoming a
// different rule.
func measureCol(name string) bool {
	switch name {
	case "support", "confidence", "frequency":
		return true
	}
	return false
}

// identityKey joins a row's non-measure cells. The display rendering is
// canonical (it is what clients see), so key equality is cell equality.
func identityKey(cols, row []string) string {
	parts := make([]string, 0, len(row))
	for i, c := range cols {
		if i < len(row) && !measureCol(c) {
			parts = append(parts, row[i])
		}
	}
	return strings.Join(parts, "\x1f")
}

// KeyRows indexes display rows by identity key, the form RuleSet folds
// and DiffRows compare. Identity collisions (impossible for the current
// renderers, whose non-measure columns are unique per row) are
// disambiguated deterministically so a fold can never silently lose a
// row.
func KeyRows(cols []string, rows [][]string) map[string][]string {
	m := make(map[string][]string, len(rows))
	for _, r := range rows {
		k := identityKey(cols, r)
		for i := 2; ; i++ {
			if _, dup := m[k]; !dup {
				break
			}
			k = fmt.Sprintf("%s\x1f#%d", identityKey(cols, r), i)
		}
		m[k] = r
	}
	return m
}

// equalRows compares two display rows cell for cell.
func equalRows(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// DiffRows computes the delta from prev to cur (both keyed by
// identityKey), in the order a standing refresh emits. It is the
// display-string form of the diff: a refresh diffs typed rules
// (typedRows.diff), and DiffRows stays as the reference the refresh is
// held to.
func DiffRows(prev, cur map[string][]string) []RuleDelta {
	var removed, changed, added []RuleDelta
	for k, p := range prev {
		if c, ok := cur[k]; !ok {
			removed = append(removed, RuleDelta{Kind: DeltaRemoved, Key: k, Prev: p})
		} else if !equalRows(p, c) {
			changed = append(changed, RuleDelta{Kind: DeltaChanged, Key: k, Row: c, Prev: p})
		}
	}
	for k, c := range cur {
		if _, ok := prev[k]; !ok {
			added = append(added, RuleDelta{Kind: DeltaAdded, Key: k, Row: c})
		}
	}
	return emissionOrder(removed, changed, added)
}

// emissionOrder joins a diff's deltas in the one order both diffs emit:
// removed, then changed, then added, each sorted by key, so equal
// states always produce byte-identical streams.
func emissionOrder(removed, changed, added []RuleDelta) []RuleDelta {
	byKey := func(a, b RuleDelta) int { return strings.Compare(a.Key, b.Key) }
	slices.SortFunc(removed, byKey)
	slices.SortFunc(changed, byKey)
	slices.SortFunc(added, byKey)
	out := make([]RuleDelta, 0, len(removed)+len(changed)+len(added))
	out = append(out, removed...)
	out = append(out, changed...)
	return append(out, added...)
}

// typedRows is a render operator's answer before it becomes a table:
// the task's rules in the operator's identity order, and how to render
// one. A statement materialises it (result); a standing refresh keeps
// it and diffs the next refresh's against it (diff).
type typedRows[R any] struct {
	columns []string
	rules   []R
	row     func(R) []tdb.Value
	// cmp is the identity order the operator emits its rules in (core's
	// Compare methods, apriori.Rule.Compare): equal means one rule
	// identity, which displays as one identity key. sameMeasures reports
	// whether two rules of one identity carry bit-identical displayed
	// measures.
	cmp          func(a, b R) int
	sameMeasures func(a, b R) bool
}

// refreshRows is a typedRows of any task, as a Standing keeps it.
type refreshRows interface {
	header() []string
	size() int
	// diff returns the deltas from prev (nil before the first refresh)
	// to the receiver; prev is a refresh of the same statement.
	diff(prev refreshRows) []RuleDelta
}

func (t *typedRows[R]) header() []string { return t.columns }
func (t *typedRows[R]) size() int        { return len(t.rules) }

// result materialises the rows as a statement's table.
func (t *typedRows[R]) result() *minisql.Result {
	res := &minisql.Result{Cols: t.columns}
	if len(t.rules) > 0 {
		res.Rows = make([]tdb.Row, len(t.rules))
		for i, r := range t.rules {
			res.Rows[i] = t.row(r)
		}
	}
	return res
}

// display renders one rule as DisplayCells renders its row.
func (t *typedRows[R]) display(r R) []string { return displayRow(t.row(r)) }

// diff is a refresh's diff, over typed rules: it emits exactly the
// deltas DiffRows emits over both results' display rows, but renders
// only the rules those deltas carry. Both sides are in identity order,
// so one merge walk pairs them. An identity on one side only is a
// removed or added rule. A shared identity whose measures differ in
// their bits is rendered on both sides and compared as display rows,
// so formatting, not the typed compare, decides "changed". A removed
// or changed rule's Prev re-renders from the previous typed rule: the
// dictionary is append-only, so its names render as they did.
func (t *typedRows[R]) diff(prev refreshRows) []RuleDelta {
	var old []R
	if prev != nil {
		old = prev.(*typedRows[R]).rules
	}
	cur := t.rules
	var removed, changed, added []RuleDelta
	for i, j := 0, 0; i < len(old) || j < len(cur); {
		c := 0
		switch {
		case i == len(old):
			c = 1
		case j == len(cur):
			c = -1
		default:
			c = t.cmp(old[i], cur[j])
		}
		switch {
		case c < 0:
			p := t.display(old[i])
			removed = append(removed, RuleDelta{Kind: DeltaRemoved, Key: identityKey(t.columns, p), Prev: p})
			i++
		case c > 0:
			r := t.display(cur[j])
			added = append(added, RuleDelta{Kind: DeltaAdded, Key: identityKey(t.columns, r), Row: r})
			j++
		default:
			if !t.sameMeasures(old[i], cur[j]) {
				if p, r := t.display(old[i]), t.display(cur[j]); !equalRows(p, r) {
					changed = append(changed, RuleDelta{Kind: DeltaChanged, Key: identityKey(t.columns, r), Row: r, Prev: p})
				}
			}
			i++
			j++
		}
	}
	return emissionOrder(removed, changed, added)
}

// sameRuleMeasures reports whether two rules carry bit-identical
// support and confidence, the measures a rule row displays.
func sameRuleMeasures(a, b apriori.Rule) bool {
	return math.Float64bits(a.Support) == math.Float64bits(b.Support) &&
		math.Float64bits(a.Confidence) == math.Float64bits(b.Confidence)
}

// sameTemporalMeasures adds the frequency a temporal rule row displays.
func sameTemporalMeasures(a, b core.TemporalRule) bool {
	return sameRuleMeasures(a.Rule, b.Rule) && math.Float64bits(a.Freq) == math.Float64bits(b.Freq)
}

// RuleSet is a folded view of a delta stream: apply every SubUpdate's
// deltas in order, starting from the empty set, and Rows is exactly the
// standing statement's current result. The streaming differential
// oracle compares it against a from-scratch MINE.
type RuleSet struct {
	Cols []string
	Rows map[string][]string
}

// Apply folds one batch of deltas into the set. It is strict: removing
// or changing an unknown key, or adding a present one, means the stream
// was corrupted (or events were dropped) and errors rather than
// papering over it.
func (s *RuleSet) Apply(deltas []RuleDelta) error {
	if s.Rows == nil {
		s.Rows = make(map[string][]string)
	}
	for _, d := range deltas {
		_, present := s.Rows[d.Key]
		switch d.Kind {
		case DeltaAdded:
			if present {
				return fmt.Errorf("tml: delta adds existing key %q", d.Key)
			}
			s.Rows[d.Key] = d.Row
		case DeltaRemoved:
			if !present {
				return fmt.Errorf("tml: delta removes unknown key %q", d.Key)
			}
			delete(s.Rows, d.Key)
		case DeltaChanged:
			if !present {
				return fmt.Errorf("tml: delta changes unknown key %q", d.Key)
			}
			s.Rows[d.Key] = d.Row
		default:
			return fmt.Errorf("tml: unknown delta kind %q", d.Kind)
		}
	}
	return nil
}

// Sorted returns the folded rows ordered by identity key, the canonical
// form both sides of the oracle compare.
func (s *RuleSet) Sorted() [][]string {
	keys := make([]string, 0, len(s.Rows))
	for k := range s.Rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]string, len(keys))
	for i, k := range keys {
		out[i] = s.Rows[k]
	}
	return out
}

// SubUpdate is one emission of a standing statement: the deltas since
// the previous emission plus the state they advance to.
type SubUpdate struct {
	// ClosedThrough is the last closed granule at emission time (under
	// the stream clock), with its human label.
	ClosedThrough timegran.Granule `json:"closed_through"`
	ClosedLabel   string           `json:"closed_label"`
	// Epoch is the table epoch this refresh is current through: every
	// append up to it is reflected. Consumers compare it with the
	// table's epoch to detect a settled stream.
	Epoch int64 `json:"epoch"`
	// Initial marks the registration snapshot (every rule arrives as
	// "added").
	Initial bool `json:"initial,omitempty"`
	// Rules is the size of the result set after this update.
	Rules  int         `json:"rules"`
	Cols   []string    `json:"cols"`
	Deltas []RuleDelta `json:"deltas"`
}

// Standing is one registered SUBSCRIBE MINE statement. Step — called
// whenever the table may have advanced — detects granule closes over
// the append stream's clock (timegran.ClosedThrough of the newest
// transaction), pre-maintains the hold-table cache from the change
// log's dirty granules, re-runs the statement through the shared
// executor (plan pipeline, journal and metrics included), diffs its
// typed rules against the last refresh's and returns the delta update,
// or nil when nothing warranted a refresh. Safe for concurrent Step
// calls (they serialise).
type Standing struct {
	exec *Executor
	stmt *MineStmt
	tbl  *tdb.TxTable

	mu  sync.Mutex
	cur refreshRows // the last refresh's typed rules; nil before the first
	// closed is the last granule seen closed, valid once baselined: the
	// first Step over a non-empty table takes it as the baseline, and
	// later Steps only ever raise it, so a clock that moves backwards
	// never un-closes a granule.
	closed    timegran.Granule
	baselined bool
	epoch     int64 // table epoch the last refresh was current through
	started   bool  // the registration snapshot has been emitted
}

// NewStanding validates and registers stmt (which must be a SUBSCRIBE
// form) against e's database.
func NewStanding(e *Executor, stmt *MineStmt) (*Standing, error) {
	if !stmt.Subscribe {
		return nil, fmt.Errorf("tml: statement is not a SUBSCRIBE form")
	}
	if stmt.Target == TargetHistory {
		return nil, fmt.Errorf("tml: SUBSCRIBE applies to the discovery targets, not MINE HISTORY")
	}
	tbl, err := e.txTable(stmt.Table)
	if err != nil {
		return nil, err
	}
	return &Standing{exec: e, stmt: stmt, tbl: tbl}, nil
}

// Stmt returns the standing statement.
func (s *Standing) Stmt() *MineStmt { return s.stmt }

// Task returns the statement's task key, as Route reports it.
func (s *Standing) Task() string { return taskKey(s.stmt) }

// Table returns the transaction table the statement mines.
func (s *Standing) Table() *tdb.TxTable { return s.tbl }

// Step advances the subscription. A refresh runs when (a) this is the
// first Step (the registration snapshot), (b) the stream clock closed
// one or more granules since the last Step, or (c) out-of-order appends
// dirtied an already-closed granule. Appends confined to the open
// granule do not refresh: their granule's rules are not final and will
// be mined when it closes. Returns nil (no update) when no refresh ran.
func (s *Standing) Step(ctx context.Context) (*SubUpdate, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	clock, ok := s.tbl.MaxAt()
	if !ok {
		return nil, nil // empty table: nothing to mine yet
	}
	// Everything already closed at the baseline is history, not a close.
	closedAny := false
	switch ct := timegran.ClosedThrough(clock, s.stmt.Granularity); {
	case !s.baselined:
		s.closed, s.baselined = ct, true
	case ct > s.closed:
		s.closed, closedAny = ct, true
	}
	refresh := !s.started || closedAny
	if !refresh {
		dirty, _, logOK := s.tbl.DirtySince(s.stmt.Granularity, s.epoch)
		if !logOK {
			// Change log trimmed past our window: we can no longer tell
			// what moved, so refresh.
			refresh = true
		} else {
			for _, g := range dirty {
				if g <= s.closed {
					refresh = true
					break
				}
			}
		}
	}
	if !refresh {
		return nil, nil
	}
	// Read the epoch before mining: an append racing the scan may or may
	// not be in this result, but it stays dirty relative to this epoch
	// and triggers a follow-up refresh, so the stream always converges
	// to the table's settled state.
	epoch := s.tbl.Epoch()
	if _, err := s.exec.Cache.Premaintain(ctx, s.tbl, s.exec.Tracer); err != nil {
		return nil, err
	}
	out, err := s.exec.run(ctx, s.stmt, planRefresh)
	if err != nil {
		return nil, err
	}
	cur := out.(refreshRows)
	upd := &SubUpdate{
		ClosedThrough: s.closed,
		ClosedLabel:   timegran.FormatGranule(s.closed, s.stmt.Granularity),
		Epoch:         epoch,
		Initial:       !s.started,
		Rules:         cur.size(),
		Cols:          cur.header(),
		Deltas:        cur.diff(s.cur),
	}
	s.cur, s.epoch, s.started = cur, epoch, true
	return upd, nil
}

// DisplayCells renders a result's rows exactly as the CLI's text table
// spells its cells (tdb.Value.Display): the rows of the server's JSON
// answer, and the canonical cell form deltas and folds are defined over.
func DisplayCells(res *minisql.Result) [][]string {
	rows := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		rows[i] = displayRow(row)
	}
	return rows
}

// displayRow renders one row's cells with tdb.Value.Display.
func displayRow(row tdb.Row) []string {
	cells := make([]string, len(row))
	for j, v := range row {
		cells[j] = v.Display()
	}
	return cells
}
