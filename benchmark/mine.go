package main

import (
	"fmt"
	"path/filepath"
	"time"

	"github.com/tarm-project/tarm/internal/apriori"
)

// cold_mine and warm_session: the statement path.

const confidence = "0.6"

func temporalStatement(task string, support float64) string {
	clause := fmt.Sprintf("AT GRANULARITY day THRESHOLD SUPPORT %g CONFIDENCE %s", support, confidence)
	if task == "during" {
		return "MINE RULES FROM " + tableName + " DURING 'month in (jun..aug)' " + clause
	}
	return "MINE " + task + " FROM " + tableName + " " + clause
}

var temporalTasks = []string{"PERIODS", "CYCLES", "CALENDARS", "during"}

// The support grid. Cold statements start at 0.04: a cold 0.03 build
// is 1.4 s on this data (86 % of it in the level-2 pass), four of them
// would be two thirds of a pass and leave too few passes in a run for
// a steady median. The warm session does include 0.03 — it is the
// resident build everything else re-thresholds.
var (
	coldSupports = []float64{0.04, 0.05, 0.06, 0.08}
	warmSupports = []float64{0.03, 0.04, 0.05, 0.06, 0.08}
)

const traditionalStatement = "MINE RULES FROM " + tableName + " THRESHOLD SUPPORT 0.02 CONFIDENCE " + confidence

type mineWorkload struct {
	cold     bool
	dir      string
	days     [][]basket
	ds       *dataset
	stmts    []string
	expected map[string]string
}

func (w *mineWorkload) name() string {
	if w.cold {
		return "cold_mine"
	}
	return "warm_session"
}

// generate draws the year of history and lists the statements.
func (w *mineWorkload) generate(seed int64) (err error) {
	if w.ds, err = newDataset(seed); err != nil {
		return err
	}
	w.days = w.ds.days(0, historyDays, mineTxPerDay)
	supports := warmSupports
	if w.cold {
		supports = coldSupports
	}
	// Support-major order: consecutive statements differ in task, so a
	// cold server cannot profit from anything but its own work, and a
	// warm one alternates hit/re-threshold and all four miners.
	for _, s := range supports {
		for _, task := range temporalTasks {
			w.stmts = append(w.stmts, temporalStatement(task, s))
		}
	}
	if w.cold {
		w.stmts = append(w.stmts, traditionalStatement)
	}
	return nil
}

func (w *mineWorkload) goldenDigests(e *env, backend apriori.Backend, cached bool) (golden, error) {
	if w.ds == nil {
		if err := w.generate(e.seed); err != nil {
			return nil, err
		}
	}
	db, tbl, err := w.ds.memTable(w.days, true)
	if err != nil {
		return nil, err
	}
	// Supports ascend: a cached reference counts once, at the lowest
	// support, and re-thresholds the rest.
	return newReference(db, tbl, backend, cached).digests(w.stmts)
}

func (w *mineWorkload) prepare(e *env) error {
	if err := w.generate(e.seed); err != nil {
		return err
	}
	w.dir = filepath.Join(e.tmp, "db")
	if _, err := w.ds.prepareStore(w.dir, w.days); err != nil {
		return err
	}
	var err error
	w.expected, err = expect(e, w.name(), w)
	w.ds, w.days = nil, nil // the server has its copy; the measured phase needs none
	return err
}

func (w *mineWorkload) run(e *env, dur time.Duration, traced bool) (*result, error) {
	flags := journalFlag(traced)
	// A cold set-up is 60 ms of process start and recovery: the median
	// of five still moved 13 % between two sets of runs of one binary.
	repeats := 11
	var prime func(*tarmd) error
	if w.cold {
		// -cache 0 would be the natural spelling, but server.Config
		// treats 0 as "unset" and falls back to the 256 MB default.
		flags = append(flags, "-cache", "-1")
	} else {
		repeats = 3 // each set-up carries a 1.4 s build
		// Priming is the session's lowest-support statement of each
		// task: one cold build, then three hits.
		prime = func(s *tarmd) error {
			for _, st := range w.stmts[:len(temporalTasks)] {
				body, err := s.statement(st, "")
				if err != nil {
					return err
				}
				if got := digest(body); got != w.expected[st] {
					return fmt.Errorf("priming %q: digest %s, want %s", st, got, w.expected[st])
				}
			}
			return nil
		}
	}
	s, setups, err := startPrepared(e, w.name(), w.dir, repeats, flags, prime)
	if err != nil {
		return nil, err
	}
	defer s.kill()

	r := newResult()
	r.setupS = setups
	if traced {
		r.journal = newJournalAgg()
	}
	primed, err := s.cache()
	if err != nil {
		return nil, err
	}
	cpu0, err := s.cpuMS()
	if err != nil {
		return nil, err
	}

	// Whole passes only, so every run measures the same statement mix;
	// stop when another pass would overrun the budget.
	t0 := time.Now()
	var lastPass time.Duration
	for pass := 0; pass == 0 || time.Since(t0)+lastPass <= dur; pass++ {
		p0 := time.Now()
		for i, st := range w.stmts {
			rid := ""
			if traced {
				rid = fmt.Sprintf("p%d-s%d", pass, i)
			}
			start := time.Now()
			body, err := s.statement(st, rid)
			lat := time.Since(start)
			if err != nil {
				r.fail(e, "%q: %v", st, err)
				continue
			}
			if got := digest(body); got != w.expected[st] {
				r.fail(e, "%q: digest %s, want %s", st, got, w.expected[st])
				continue
			}
			r.ok(i, float64(lat)/1e6)
			if traced {
				id := e.rec.add(rid, "client:statement", 0, start, lat, map[string]string{"statement": st})
				if err := fetchTrace(e, s, r, rid, id, start, lat); err != nil {
					return nil, err
				}
			}
		}
		lastPass = time.Since(p0)
		r.passS = append(r.passS, lastPass.Seconds())
	}
	r.passOps = len(w.stmts)
	r.wallS = time.Since(t0).Seconds()

	if err := finishServer(s, w.dir, r, cpu0); err != nil {
		return nil, err
	}
	// Validity: the workload must have exercised the path it is named
	// for, or its numbers describe something else.
	c := r.cache.Stats
	if w.cold {
		if n := c.Hits + c.Rethresholds + c.Deltas; n != 0 {
			e.violate("cold_mine: %d statements were served from the cache", n)
		}
	} else {
		if c.Misses != primed.Stats.Misses {
			e.violate("warm_session: %d cache misses after priming", c.Misses-primed.Stats.Misses)
		}
		if c.Evictions != 0 {
			e.violate("warm_session: %d cache evictions", c.Evictions)
		}
	}
	return r, nil
}
