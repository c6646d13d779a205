package bench

import (
	"context"
	"fmt"
	"time"

	"github.com/tarm-project/tarm/internal/core"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// Cfg returns the default per-granule thresholds used across the
// experiments. MinFreq 0.8 tolerates the per-granule sampling noise of
// the generator (a planted rule holds in a granule only with high
// probability, not certainty); MaxK 3 bounds the level-wise search the
// way the companion papers bound rule size, keeping low-support sweeps
// from blowing up on degenerate candidates.
func Cfg() core.Config {
	return core.Config{
		Granularity:   timegran.Day,
		MinSupport:    0.15,
		MinConfidence: 0.6,
		MinFreq:       0.8,
		MaxK:          3,
		Workers:       Workers,
		Tracer:        Tracer,
	}
}

func timed(fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// mine is one cold run of a task: build tbl's hold table, then one
// operator over it, so every timed call includes the counting pass.
func mine[P, R any](tbl *tdb.TxTable, cfg core.Config, op func(context.Context, *core.HoldTable, P) (R, error), param P) (R, error) {
	ctx := context.Background()
	h, err := core.BuildHoldTableContext(ctx, tbl, cfg)
	if err != nil {
		var zero R
		return zero, err
	}
	return op(ctx, h, param)
}

// E1MissedRules reproduces the paper's headline claim: temporal mining
// discovers rules that traditional (time-agnostic) mining misses. One
// standard dataset, five miners, and for each the number of planted
// rules recovered.
func E1MissedRules(sc StandardConfig) (Table, error) {
	tbl, truth, err := StandardDataset(sc)
	if err != nil {
		return Table{}, err
	}
	cfg := Cfg()
	t := Table{
		ID:     "E1",
		Title:  "temporal vs traditional mining, " + describe(sc),
		Header: []string{"miner", "rules found", "planted recovered", "which"},
	}

	recoveredNames := func(match func(g GroundTruth) bool) (int, string) {
		n, names := 0, ""
		for _, g := range truth {
			if match(g) {
				n++
				if names != "" {
					names += ","
				}
				names += g.Name
			}
		}
		if names == "" {
			names = "-"
		}
		return n, names
	}

	// Traditional Apriori over the whole year.
	trad, err := core.MineTraditionalContext(context.Background(), tbl, cfg)
	if err != nil {
		return t, err
	}
	n, which := recoveredNames(func(g GroundTruth) bool {
		for _, r := range trad {
			if g.MatchesRule(r.Antecedent, r.Consequent) {
				return true
			}
		}
		return false
	})
	t.AddRow("traditional Apriori", fmt.Sprint(len(trad)), fmt.Sprintf("%d/4", n), which)

	// Task I: valid periods.
	periods, err := mine(tbl, cfg, core.MineValidPeriodsFromTableContext, core.PeriodConfig{MinLen: 7})
	if err != nil {
		return t, err
	}
	n, which = recoveredNames(func(g GroundTruth) bool {
		if g.Kind == "cycle" {
			return false // a weekly cycle is not an interval feature
		}
		for _, r := range periods {
			if g.MatchesRule(r.Rule.Antecedent, r.Rule.Consequent) {
				return true
			}
		}
		return false
	})
	t.AddRow("Task I (valid periods)", fmt.Sprint(len(periods)), fmt.Sprintf("%d/2", n), which)

	// Task II: cycles.
	cycles, err := mine(tbl, cfg, core.MineCyclesFromTableContext, core.CycleConfig{MaxLen: 10, MinReps: 4})
	if err != nil {
		return t, err
	}
	n, which = recoveredNames(func(g GroundTruth) bool {
		if g.Kind == "interval" || g.Name == "summer" {
			return false
		}
		for _, r := range cycles {
			if g.MatchesRule(r.Rule.Antecedent, r.Rule.Consequent) {
				return true
			}
		}
		return false
	})
	t.AddRow("Task II (cycles)", fmt.Sprint(len(cycles)), fmt.Sprintf("%d/2", n), which)

	// Task II: calendar periodicities.
	cals, err := mine(tbl, cfg, core.MineCalendarPeriodicitiesFromTableContext, core.CycleConfig{MinReps: 4})
	if err != nil {
		return t, err
	}
	n, which = recoveredNames(func(g GroundTruth) bool {
		if g.Kind != "calendar" {
			return false
		}
		for _, r := range cals {
			if g.MatchesRule(r.Rule.Antecedent, r.Rule.Consequent) {
				return true
			}
		}
		return false
	})
	t.AddRow("Task II (calendars)", fmt.Sprint(len(cals)), fmt.Sprintf("%d/2", n), which)

	// Task III: mining during the summer feature.
	summer, err := timegran.ParsePattern("month in (jun..aug)")
	if err != nil {
		return t, err
	}
	during, err := mine(tbl, cfg, core.MineDuringFromTableContext, summer)
	if err != nil {
		return t, err
	}
	n, which = recoveredNames(func(g GroundTruth) bool {
		if g.Name != "summer" {
			return false
		}
		for _, r := range during {
			if g.MatchesRule(r.Rule.Antecedent, r.Rule.Consequent) {
				return true
			}
		}
		return false
	})
	t.AddRow("Task III (during summer)", fmt.Sprint(len(during)), fmt.Sprintf("%d/1", n), which)

	t.Notes = append(t.Notes,
		"planted rules: summer (jun-aug), weekend (sat-sun), weekly (7-day cycle), promo (1998-03-01..1998-04-15)",
		"per-granule thresholds: support 0.15, confidence 0.6",
	)
	return t, nil
}

// E2SupportSweep measures each task's runtime as minimum support
// falls — the classic Apriori cost curve, reproduced per task.
func E2SupportSweep(sc StandardConfig, supports []float64) (Table, error) {
	tbl, _, err := StandardDataset(sc)
	if err != nil {
		return Table{}, err
	}
	if len(supports) == 0 {
		supports = []float64{0.25, 0.20, 0.15, 0.10, 0.05}
	}
	t := Table{
		ID:     "E2",
		Title:  "runtime vs minimum support, " + describe(sc),
		Header: []string{"minsup", "taskI ms", "taskII ms", "taskIII ms", "traditional ms"},
	}
	// Weekends exist in any span, so the Task III timing does not
	// depend on the dataset covering a particular season.
	weekend, err := timegran.ParsePattern("weekday in (sat, sun)")
	if err != nil {
		return t, err
	}
	// cell times the four miners at one support, each a cold build plus
	// its operator.
	cell := func(cfg core.Config) (d [4]time.Duration, err error) {
		runs := [4]func() error{
			func() error {
				_, err := mine(tbl, cfg, core.MineValidPeriodsFromTableContext, core.PeriodConfig{MinLen: 7})
				return err
			},
			func() error {
				_, err := mine(tbl, cfg, core.MineCyclesFromTableContext, core.CycleConfig{MaxLen: 10, MinReps: 4})
				return err
			},
			func() error {
				_, err := mine(tbl, cfg, core.MineDuringFromTableContext, weekend)
				return err
			},
			func() error {
				_, err := core.MineTraditionalContext(context.Background(), tbl, cfg)
				return err
			},
		}
		for i, run := range runs {
			if d[i], err = timed(run); err != nil {
				return d, err
			}
		}
		return d, nil
	}
	// One untimed cell first, every miner once: the first row should
	// time the sweep's work, not the process's first run of each miner
	// (heap growth, cold caches, first-use code paths).
	if _, err := cell(Cfg()); err != nil {
		return t, err
	}
	for _, s := range supports {
		cfg := Cfg()
		cfg.MinSupport = s
		d, err := cell(cfg)
		if err != nil {
			return t, err
		}
		t.AddRow(f(s), ms(d[0].Seconds()*1000), ms(d[1].Seconds()*1000), ms(d[2].Seconds()*1000), ms(d[3].Seconds()*1000))
	}
	return t, nil
}

// E3ScaleUp measures runtime as the number of transactions grows by
// lengthening the history at fixed daily volume — the linear scale-up
// figure. (Scaling tx/day instead would also scale the absolute
// per-granule support threshold and change the candidate population,
// confounding the size axis.)
func E3ScaleUp(days []int, seed int64) (Table, error) {
	if len(days) == 0 {
		days = []int{91, 182, 364, 728}
	}
	t := Table{
		ID:     "E3",
		Title:  "runtime vs database size (100 tx/day, varying history length)",
		Header: []string{"days", "transactions", "taskI ms", "traditional ms"},
	}
	for _, d := range days {
		tbl, _, err := StandardDataset(StandardConfig{TxPerDay: 100, Days: d, Seed: seed})
		if err != nil {
			return t, err
		}
		cfg := Cfg()
		d1, err := timed(func() error {
			_, err := mine(tbl, cfg, core.MineValidPeriodsFromTableContext, core.PeriodConfig{MinLen: 7})
			return err
		})
		if err != nil {
			return t, err
		}
		d2, err := timed(func() error {
			_, err := core.MineTraditionalContext(context.Background(), tbl, cfg)
			return err
		})
		if err != nil {
			return t, err
		}
		t.AddRow(fmt.Sprint(d), fmt.Sprint(tbl.Len()), ms(d1.Seconds()*1000), ms(d2.Seconds()*1000))
	}
	return t, nil
}

// E4TransactionSize measures runtime as the mean basket size |T| grows.
func E4TransactionSize(sizes []float64, seed int64) (Table, error) {
	if len(sizes) == 0 {
		sizes = []float64{5, 10, 15, 20}
	}
	t := Table{
		ID:     "E4",
		Title:  "runtime vs mean transaction size (364 days × 50 tx/day)",
		Header: []string{"|T|", "taskI ms"},
	}
	for _, sz := range sizes {
		tbl, _, err := StandardDataset(StandardConfig{TxPerDay: 50, AvgTxLen: sz, Seed: seed})
		if err != nil {
			return t, err
		}
		d, err := timed(func() error {
			_, err := mine(tbl, Cfg(), core.MineValidPeriodsFromTableContext, core.PeriodConfig{MinLen: 7})
			return err
		})
		if err != nil {
			return t, err
		}
		t.AddRow(f(sz), ms(d.Seconds()*1000))
	}
	return t, nil
}
