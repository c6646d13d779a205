package bench

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// smallCfg keeps tests fast: a quarter-year at 30 tx/day.
func smallCfg() StandardConfig {
	return StandardConfig{TxPerDay: 30, Days: 168, Seed: 77}
}

func TestStandardDataset(t *testing.T) {
	tbl, truth, err := StandardDataset(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() < 168*15 {
		t.Errorf("dataset suspiciously small: %d transactions", tbl.Len())
	}
	if len(truth) != 4 {
		t.Fatalf("ground truth = %d rules", len(truth))
	}
	for _, g := range truth {
		ante, cons := g.Items[:1], g.Items[1:]
		if !g.MatchesRule(ante, cons) || !g.MatchesRule(cons, ante) {
			t.Errorf("MatchesRule fails on its own truth %s", g.Name)
		}
		if g.MatchesRule(ante, ante) {
			t.Errorf("MatchesRule matches a wrong pair for %s", g.Name)
		}
	}
}

func TestE1RecoversPlantedRules(t *testing.T) {
	table, err := E1MissedRules(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 5 {
		t.Fatalf("E1 rows = %d", len(table.Rows))
	}
	// Traditional mining must miss all planted rules; every temporal
	// task must recover its own.
	byMiner := map[string][]string{}
	for _, row := range table.Rows {
		byMiner[row[0]] = row
	}
	if got := byMiner["traditional Apriori"][2]; got != "0/4" {
		t.Errorf("traditional recovered %s, want 0/4", got)
	}
	if got := byMiner["Task I (valid periods)"][2]; got != "2/2" {
		t.Errorf("Task I recovered %s, want 2/2 (summer, promo)", got)
	}
	if got := byMiner["Task II (cycles)"][2]; got != "2/2" {
		t.Errorf("Task II cycles recovered %s, want 2/2 (weekend, weekly)", got)
	}
	if got := byMiner["Task II (calendars)"][2]; got != "2/2" {
		t.Errorf("Task II calendars recovered %s, want 2/2", got)
	}
	if got := byMiner["Task III (during summer)"][2]; got != "1/1" {
		t.Errorf("Task III recovered %s, want 1/1", got)
	}
	out := table.String()
	if !strings.Contains(out, "E1") || !strings.Contains(out, "miner") {
		t.Errorf("render broken:\n%s", out)
	}
}

func TestE5RecoveryScoresHigh(t *testing.T) {
	table, err := E5ValidPeriodRecovery(30, 7)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, row := range table.Rows {
		if row[4] == "yes" {
			hits++
		}
	}
	if hits < 5 {
		t.Errorf("interval recovery hits = %d/6, want ≥ 5\n%s", hits, table)
	}
}

func TestE6RecoversAllCyclesAtFullRange(t *testing.T) {
	table, err := E6CycleRecovery(30, 7)
	if err != nil {
		t.Fatal(err)
	}
	last := table.Rows[len(table.Rows)-1]
	if last[2] != "4/4" {
		t.Errorf("maxlen 31 recovery = %s, want 4/4\n%s", last[2], table)
	}
	first := table.Rows[0]
	if first[2] != "2/2" {
		t.Errorf("maxlen 7 recovery = %s, want 2/2\n%s", first[2], table)
	}
}

func TestE7AblationSavesWorkAndAgrees(t *testing.T) {
	table, err := E7CycleAblation(30, 7, []float64{0.2, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		if row[6] != "true" {
			t.Errorf("miners disagree at minsup %s\n%s", row[0], table)
		}
		if !strings.HasSuffix(row[3], "%") {
			t.Errorf("work saved cell = %q", row[3])
		}
	}
}

func TestE8E9E10Run(t *testing.T) {
	sc := smallCfg()
	if _, err := E8CalendarSelectivity(sc); err != nil {
		t.Errorf("E8: %v", err)
	}
	if _, err := E9TML(StandardConfig{TxPerDay: 30, Days: 168, Seed: 3}); err != nil {
		t.Errorf("E9: %v", err)
	}
	table, err := E10FrequencySweep(40, 7)
	if err != nil {
		t.Fatalf("E10: %v", err)
	}
	// The sweep must be monotone: lowering the threshold can only add
	// cyclic rules.
	prev := -1
	for _, row := range table.Rows {
		n, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatalf("bad count cell %q", row[1])
		}
		if prev >= 0 && n < prev {
			t.Errorf("rule count decreased as threshold fell:\n%s", table)
		}
		prev = n
	}
}

func TestE2E3E4SmokeSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweeps skipped in -short mode")
	}
	sc := StandardConfig{TxPerDay: 30, Days: 84, Seed: 3}
	if _, err := E2SupportSweep(sc, []float64{0.25, 0.15}); err != nil {
		t.Errorf("E2: %v", err)
	}
	if _, err := E3ScaleUp([]int{28, 56}, 3); err != nil {
		t.Errorf("E3: %v", err)
	}
	if _, err := E4TransactionSize([]float64{5, 10}, 3); err != nil {
		t.Errorf("E4: %v", err)
	}
}

func TestExperimentRegistry(t *testing.T) {
	want := []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e13", "e14"}
	ids := func(exps []Experiment) []string {
		var out []string
		for _, e := range exps {
			if e.Run == nil {
				t.Errorf("experiment %s has no runner", e.ID)
			}
			out = append(out, e.ID)
		}
		return out
	}
	if got := ids(Experiments); !reflect.DeepEqual(got, want) {
		t.Fatalf("registry = %v, want %v", got, want)
	}
	all, err := Select("all")
	if err != nil || !reflect.DeepEqual(ids(all), want) {
		t.Errorf("Select(all) = %v, %v; want exactly the registry in run order", ids(all), err)
	}
	for _, id := range want {
		one, err := Select(id)
		if err != nil || len(one) != 1 || one[0].ID != id {
			t.Errorf("Select(%s) = %v, %v", id, ids(one), err)
		}
	}
	// The retired ids are unknown, and the error lists what is left.
	for _, id := range []string{"e12", "e15", "e16", "e17", "E1", ""} {
		_, err := Select(id)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(want)) {
			t.Errorf("Select(%q) error = %v, want unknown-experiment listing %v", id, err, want)
		}
	}
}
