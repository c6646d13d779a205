package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/timegran"
)

// holdTablesEqual compares every retained count vector.
func holdTablesEqual(a, b *HoldTable) bool {
	if a.NGranules() != b.NGranules() || a.NActive != b.NActive {
		return false
	}
	if len(a.ByK) != len(b.ByK) {
		return false
	}
	for k := 1; k < len(a.ByK); k++ {
		if len(a.ByK[k]) != len(b.ByK[k]) {
			return false
		}
		for i, s := range a.ByK[k] {
			if !s.Equal(b.ByK[k][i]) {
				return false
			}
			if !reflect.DeepEqual(a.Counts(s), b.Counts(s)) {
				return false
			}
			// The stored support test too: a refresh (Maintain, Extend)
			// must leave the words a cold build would compute.
			if !reflect.DeepEqual(a.levelFreq(k, i), b.levelFreq(k, i)) {
				return false
			}
		}
	}
	return true
}

func TestParallelBuildMatchesSequentialFixture(t *testing.T) {
	tbl := buildFixture(t)
	seqCfg := fixtureConfig()
	seq := mustBuild(t, tbl, seqCfg)
	for _, workers := range []int{2, 3, 8, 100} {
		parCfg := fixtureConfig()
		parCfg.Workers = workers
		par, err := BuildHoldTableContext(bg, tbl, parCfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !holdTablesEqual(seq, par) {
			t.Errorf("workers=%d: parallel build differs from sequential", workers)
		}
	}
}

func TestQuickParallelBuildEquivalent(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 15,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(r.Int63())
		},
	}
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tbl := randomTemporalTable(r)
		mcfg := Config{
			Granularity:   timegran.Day,
			MinSupport:    0.25,
			MinConfidence: 0.5,
			MinFreq:       1,
		}
		seq, err := BuildHoldTableContext(bg, tbl, mcfg)
		if err != nil {
			return false
		}
		// Any production backend, any worker count, and a pair
		// triangle with room for the whole of the eight-item
		// universe (28 cells), for part of it, or for a row at a time.
		mcfg.Backend = []apriori.Backend{apriori.BackendBitmap, apriori.BackendRoaring}[r.Intn(2)]
		mcfg.Workers = 1 + r.Intn(7)
		pairCells := []int{apriori.MaxPairCells, 10, 0}[r.Intn(3)]
		par, err := buildHoldTable(context.Background(), tbl, mcfg, pairCells, apriori.MaxVerticalItems)
		if err != nil {
			return false
		}
		return holdTablesEqual(seq, par)
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Error(err)
	}
}

func TestWorkersValidation(t *testing.T) {
	tbl := buildFixture(t)
	cfg := fixtureConfig()
	cfg.Workers = -1
	if _, err := BuildHoldTableContext(bg, tbl, cfg); err == nil {
		t.Error("negative Workers accepted")
	}
}

func TestParallelMiningEndToEnd(t *testing.T) {
	tbl := buildFixture(t)
	cfg := fixtureConfig()
	cfg.Workers = 4
	rules, err := MineValidPeriodsFromTableContext(bg, mustBuild(t, tbl, cfg), PeriodConfig{MinLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfgSeq := fixtureConfig()
	seqRules, err := MineValidPeriodsFromTableContext(bg, mustBuild(t, tbl, cfgSeq), PeriodConfig{MinLen: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != len(seqRules) {
		t.Fatalf("parallel found %d periods, sequential %d", len(rules), len(seqRules))
	}
	for i := range rules {
		if rules[i].Interval != seqRules[i].Interval || !rules[i].Rule.Antecedent.Equal(seqRules[i].Rule.Antecedent) {
			t.Errorf("period %d differs: %+v vs %+v", i, rules[i], seqRules[i])
		}
	}
}
