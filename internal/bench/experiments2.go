package bench

import (
	"fmt"
	"math/rand"

	"github.com/tarm-project/tarm/internal/core"
	"github.com/tarm-project/tarm/internal/gen"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// intervalDataset plants k interval rules with random spans for E5.
func intervalDataset(k, txPerDay int, seed int64) (*tdb.TxTable, []gen.PlantedRule, error) {
	r := rand.New(rand.NewSource(seed))
	days := 364
	var rules []gen.PlantedRule
	for i := 0; i < k; i++ {
		length := 14 + r.Intn(47) // 14..60 days
		start := r.Intn(days - length)
		w, err := timegran.NewWindow(
			year0.AddDate(0, 0, start),
			year0.AddDate(0, 0, start+length),
		)
		if err != nil {
			return nil, nil, err
		}
		rules = append(rules, gen.PlantedRule{
			Name:    fmt.Sprintf("iv%d", i),
			Items:   itemset.New(plantedBase+itemset.Item(2*i), plantedBase+itemset.Item(2*i+1)),
			Pattern: w,
			PInside: 0.35, POutside: 0.004,
		})
	}
	cfg := gen.TemporalConfig{
		Quest:        gen.QuestConfig{NItems: 1000, NPatterns: 200, AvgTxLen: 10, AvgPatLen: 4},
		Start:        year0,
		Granularity:  timegran.Day,
		NGranules:    days,
		TxPerGranule: txPerDay,
		Rules:        rules,
	}
	tbl, err := gen.GenerateTemporal(cfg, seed)
	return tbl, rules, err
}

// E5ValidPeriodRecovery plants interval rules and scores how well Task
// I recovers the planted intervals (Jaccard overlap of the best
// recovered period against the planted window).
func E5ValidPeriodRecovery(txPerDay int, seed int64) (Table, error) {
	if txPerDay == 0 {
		txPerDay = 100
	}
	tbl, planted, err := intervalDataset(6, txPerDay, seed)
	if err != nil {
		return Table{}, err
	}
	cfg := Cfg()
	found, err := mine(tbl, cfg, core.MineValidPeriodsFromTableContext, core.PeriodConfig{MinLen: 7})
	if err != nil {
		return Table{}, err
	}
	span, _ := tbl.Span(timegran.Day)
	t := Table{
		ID:     "E5",
		Title:  fmt.Sprintf("Task I recovery of 6 planted intervals (364 days × %d tx/day)", txPerDay),
		Header: []string{"rule", "planted", "recovered", "jaccard", "hit(≥0.8)"},
	}
	hits := 0
	for _, p := range planted {
		truthSet := timegran.Granules(p.Pattern, timegran.Day, span)
		best := 0.0
		bestIv := "-"
		for _, r := range found {
			if !r.Rule.Antecedent.Union(r.Rule.Consequent).Equal(p.Items) {
				continue
			}
			got := timegran.NewIntervalSet(r.Interval)
			inter := truthSet.Intersect(got).Count()
			union := truthSet.Union(got).Count()
			if union == 0 {
				continue
			}
			j := float64(inter) / float64(union)
			if j > best {
				best = j
				bestIv = r.Interval.Format(timegran.Day)
			}
		}
		hit := "no"
		if best >= 0.8 {
			hit = "yes"
			hits++
		}
		plantedStr := "-"
		if ivs := truthSet.Intervals(); len(ivs) > 0 {
			plantedStr = ivs[0].Format(timegran.Day)
		}
		t.AddRow(p.Name, plantedStr, bestIv, f(best), hit)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("recall at Jaccard ≥ 0.8: %d/%d", hits, len(planted)))
	return t, nil
}

// cycleDataset plants cycles of the given lengths for E6/E7/E10.
func cycleDataset(lengths []int, pInside float64, txPerDay, days int, seed int64) (*tdb.TxTable, []gen.PlantedRule, error) {
	r := rand.New(rand.NewSource(seed))
	g0 := timegran.GranuleOf(year0, timegran.Day)
	var rules []gen.PlantedRule
	for i, l := range lengths {
		c, err := timegran.NewCycle(int64(l), g0+int64(r.Intn(l)))
		if err != nil {
			return nil, nil, err
		}
		rules = append(rules, gen.PlantedRule{
			Name:    fmt.Sprintf("cyc%d", l),
			Items:   itemset.New(plantedBase+itemset.Item(2*i), plantedBase+itemset.Item(2*i+1)),
			Pattern: c,
			PInside: pInside, POutside: 0.004,
		})
	}
	cfg := gen.TemporalConfig{
		Quest:        gen.QuestConfig{NItems: 1000, NPatterns: 200, AvgTxLen: 10, AvgPatLen: 4},
		Start:        year0,
		Granularity:  timegran.Day,
		NGranules:    days,
		TxPerGranule: txPerDay,
		Rules:        rules,
	}
	tbl, err := gen.GenerateTemporal(cfg, seed)
	return tbl, rules, err
}

// E6CycleRecovery plants cycles of several lengths and checks Task II
// recovers each exactly, across a MaxLen sweep.
func E6CycleRecovery(txPerDay int, seed int64) (Table, error) {
	if txPerDay == 0 {
		txPerDay = 100
	}
	lengths := []int{3, 7, 14, 28}
	tbl, planted, err := cycleDataset(lengths, 0.35, txPerDay, 364, seed)
	if err != nil {
		return Table{}, err
	}
	cfg := Cfg()
	cfg.MinFreq = 0.9 // exact cycles are unrecoverable under sampling noise
	t := Table{
		ID:     "E6",
		Title:  fmt.Sprintf("Task II recovery of planted cycles (364 days × %d tx/day)", txPerDay),
		Header: []string{"maxlen", "cyclic rules", "planted recovered", "ms"},
	}
	for _, maxLen := range []int{7, 14, 31} {
		var rules []core.CyclicRule
		d, err := timed(func() error {
			var err error
			rules, err = mine(tbl, cfg, core.MineCyclesFromTableContext, core.CycleConfig{MaxLen: maxLen, MinReps: 4})
			return err
		})
		if err != nil {
			return t, err
		}
		recovered := 0
		for _, p := range planted {
			truthCycle := p.Pattern.(timegran.Cycle)
			if truthCycle.Length > int64(maxLen) {
				continue
			}
			for _, r := range rules {
				if r.Rule.Antecedent.Union(r.Rule.Consequent).Equal(p.Items) &&
					r.Cycle.Length == truthCycle.Length && r.Cycle.Offset == truthCycle.Offset {
					recovered++
					break
				}
			}
		}
		inRange := 0
		for _, p := range planted {
			if p.Pattern.(timegran.Cycle).Length <= int64(maxLen) {
				inRange++
			}
		}
		t.AddRow(fmt.Sprint(maxLen), fmt.Sprint(len(rules)),
			fmt.Sprintf("%d/%d", recovered, inRange), ms(d.Seconds()*1000))
	}
	t.Notes = append(t.Notes, "planted cycle lengths: 3, 7, 14, 28 days; recovery requires the exact (length, offset)")
	return t, nil
}

// E7CycleAblation compares the sequential and interleaved itemset-cycle
// miners: identical results, different counting work.
func E7CycleAblation(txPerDay int, seed int64, supports []float64) (Table, error) {
	if txPerDay == 0 {
		txPerDay = 60
	}
	if len(supports) == 0 {
		supports = []float64{0.25, 0.20, 0.15, 0.10}
	}
	tbl, _, err := cycleDataset([]int{7, 14}, 0.35, txPerDay, 364, seed)
	if err != nil {
		return Table{}, err
	}
	t := Table{
		ID:     "E7",
		Title:  fmt.Sprintf("sequential vs interleaved cyclic mining (364 days × %d tx/day)", txPerDay),
		Header: []string{"minsup", "seq pairs", "inter pairs", "work saved", "seq ms", "inter ms", "results equal"},
	}
	for _, s := range supports {
		cfg := Cfg()
		cfg.MinSupport = s
		cfg.MinFreq = 1
		ccfg := core.CycleConfig{MaxLen: 14, MinReps: 4}
		var seq, inter []core.ItemsetCycles
		var seqStats, interStats core.CycleMinerStats
		dSeq, err := timed(func() error {
			var err error
			seq, seqStats, err = core.MineItemsetCyclesSequential(tbl, cfg, ccfg)
			return err
		})
		if err != nil {
			return t, err
		}
		dInter, err := timed(func() error {
			var err error
			inter, interStats, err = core.MineItemsetCyclesInterleaved(tbl, cfg, ccfg)
			return err
		})
		if err != nil {
			return t, err
		}
		equal := len(seq) == len(inter)
		if equal {
			for i := range seq {
				if !seq[i].Set.Equal(inter[i].Set) || len(seq[i].Cycles) != len(inter[i].Cycles) {
					equal = false
					break
				}
			}
		}
		savedStr := "-"
		if seqStats.CandidateGranulePairs > 0 {
			saved := 1 - float64(interStats.CandidateGranulePairs)/float64(seqStats.CandidateGranulePairs)
			savedStr = fmt.Sprintf("%.0f%%", saved*100)
		}
		t.AddRow(f(s),
			fmt.Sprint(seqStats.CandidateGranulePairs),
			fmt.Sprint(interStats.CandidateGranulePairs),
			savedStr,
			ms(dSeq.Seconds()*1000), ms(dInter.Seconds()*1000),
			fmt.Sprint(equal))
	}
	t.Notes = append(t.Notes, "pairs = (candidate, granule) support counts at levels k ≥ 2 (level 1 is one identical full pass in both miners)")
	return t, nil
}

// E8CalendarSelectivity measures Task III cost and yield as the
// temporal feature narrows.
func E8CalendarSelectivity(sc StandardConfig) (Table, error) {
	tbl, _, err := StandardDataset(sc)
	if err != nil {
		return Table{}, err
	}
	features := []string{
		"always",
		"month in (1..6)",
		"month in (1..3)",
		"weekday in (sat, sun)",
		"month in (1)",
	}
	t := Table{
		ID:     "E8",
		Title:  "Task III cost vs feature selectivity, " + describe(sc),
		Header: []string{"feature", "granules", "rules", "ms"},
	}
	cfg := Cfg()
	cfg.MinFreq = 0.8
	span, _ := tbl.Span(timegran.Day)
	for _, expr := range features {
		p, err := timegran.ParsePattern(expr)
		if err != nil {
			return t, err
		}
		covered := timegran.Granules(p, timegran.Day, span).Count()
		cfg.Scope = core.DuringScope(p) // count only what the feature covers
		var rules []core.TemporalRule
		d, err := timed(func() error {
			var err error
			rules, err = mine(tbl, cfg, core.MineDuringFromTableContext, p)
			return err
		})
		if err != nil {
			return t, err
		}
		t.AddRow(expr, fmt.Sprint(covered), fmt.Sprint(len(rules)), ms(d.Seconds()*1000))
	}
	return t, nil
}

// E9TML measures the end-to-end cost of each TML statement form through
// the IQMS session (parse + plan + mine + render), plus a SQL statement
// for the query half of the loop.
func E9TML(sc StandardConfig) (Table, error) {
	session, err := newSession(sc)
	if err != nil {
		return Table{}, err
	}
	stmts := []string{
		`SELECT item, COUNT(*) AS n FROM baskets GROUP BY item ORDER BY n DESC LIMIT 5`,
		`MINE RULES FROM baskets THRESHOLD SUPPORT 0.15 CONFIDENCE 0.6`,
		`MINE RULES FROM baskets DURING 'month in (jun..aug)' THRESHOLD SUPPORT 0.15 CONFIDENCE 0.6 FREQUENCY 0.8`,
		`MINE PERIODS FROM baskets THRESHOLD SUPPORT 0.15 CONFIDENCE 0.6 FREQUENCY 0.9 MIN LENGTH 7`,
		`MINE CYCLES FROM baskets THRESHOLD SUPPORT 0.15 CONFIDENCE 0.6 MAX LENGTH 10 MIN REPS 4`,
		`MINE CALENDARS FROM baskets THRESHOLD SUPPORT 0.15 CONFIDENCE 0.6 FREQUENCY 0.8 MIN REPS 4`,
	}
	t := Table{
		ID:     "E9",
		Title:  "IQMS end-to-end statement cost, " + describe(sc),
		Header: []string{"statement", "rows", "ms"},
	}
	for _, stmt := range stmts {
		var rows int
		d, err := timed(func() error {
			res, err := session.Exec(stmt)
			if err != nil {
				return err
			}
			rows = len(res.Rows)
			return nil
		})
		if err != nil {
			return t, fmt.Errorf("%s: %w", stmt, err)
		}
		label := stmt
		if len(label) > 60 {
			label = label[:57] + "..."
		}
		t.AddRow(label, fmt.Sprint(rows), ms(d.Seconds()*1000))
	}
	return t, nil
}

// E10FrequencySweep plants a noisy weekly cycle and sweeps the
// frequency threshold: strict matching misses it, tolerant matching
// recovers it, too-tolerant matching drowns it in spurious features.
func E10FrequencySweep(txPerDay int, seed int64) (Table, error) {
	if txPerDay == 0 {
		txPerDay = 80
	}
	// pInside 0.22 with per-granule support threshold 0.15 means an
	// occurrence day clears the bar only most of the time: the hold
	// sequence is noisy by construction.
	tbl, planted, err := cycleDataset([]int{7}, 0.22, txPerDay, 364, seed)
	if err != nil {
		return Table{}, err
	}
	truthCycle := planted[0].Pattern.(timegran.Cycle)
	t := Table{
		ID:     "E10",
		Title:  fmt.Sprintf("cyclic rules vs frequency threshold (364 days × %d tx/day, noisy weekly plant)", txPerDay),
		Header: []string{"minfreq", "cyclic rules", "weekly plant recovered", "ms"},
	}
	for _, mf := range []float64{1.0, 0.9, 0.8, 0.7, 0.5} {
		cfg := Cfg()
		cfg.MinFreq = mf
		var rules []core.CyclicRule
		d, err := timed(func() error {
			var err error
			rules, err = mine(tbl, cfg, core.MineCyclesFromTableContext, core.CycleConfig{MaxLen: 10, MinReps: 4})
			return err
		})
		if err != nil {
			return t, err
		}
		rec := "no"
		for _, r := range rules {
			if r.Rule.Antecedent.Union(r.Rule.Consequent).Equal(planted[0].Items) &&
				r.Cycle.Length == truthCycle.Length && r.Cycle.Offset == truthCycle.Offset {
				rec = "yes"
				break
			}
		}
		t.AddRow(f(mf), fmt.Sprint(len(rules)), rec, ms(d.Seconds()*1000))
	}
	return t, nil
}

// Experiment is one registry entry: a lowercase id and its
// default-parameter runner.
type Experiment struct {
	ID  string
	Run func() (Table, error)
}

// Experiments is the suite in run order — the paper-style experiments
// E1–E11, plus the multi-client (E13) and density (E14) tables that
// benchmark/ has no workload for. cmd/tarmine walks it.
var Experiments = []Experiment{
	{"e1", func() (Table, error) { return E1MissedRules(StandardConfig{}) }},
	{"e2", func() (Table, error) { return E2SupportSweep(StandardConfig{}, nil) }},
	{"e3", func() (Table, error) { return E3ScaleUp(nil, 1998) }},
	{"e4", func() (Table, error) { return E4TransactionSize(nil, 1998) }},
	{"e5", func() (Table, error) { return E5ValidPeriodRecovery(0, 1998) }},
	{"e6", func() (Table, error) { return E6CycleRecovery(0, 1998) }},
	{"e7", func() (Table, error) { return E7CycleAblation(0, 1998, nil) }},
	{"e8", func() (Table, error) { return E8CalendarSelectivity(StandardConfig{}) }},
	{"e9", func() (Table, error) { return E9TML(StandardConfig{TxPerDay: 50}) }},
	{"e10", func() (Table, error) { return E10FrequencySweep(0, 1998) }},
	{"e11", func() (Table, error) { return E11CountingBackends(1998) }},
	{"e13", func() (Table, error) { return E13ConcurrentSessions(StandardConfig{TxPerDay: 50}) }},
	{"e14", func() (Table, error) { return E14DensitySweep(1998) }},
}

// Select resolves tarmine's -experiment argument: one id, or "all" for
// the whole suite in run order.
func Select(id string) ([]Experiment, error) {
	if id == "all" {
		return Experiments, nil
	}
	ids := make([]string, len(Experiments))
	for i, e := range Experiments {
		if e.ID == id {
			return Experiments[i : i+1], nil
		}
		ids[i] = e.ID
	}
	return nil, fmt.Errorf("unknown experiment %q (have %v)", id, ids)
}
