package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// TestExtendMatchesRebuildFixture appends a week to the fixture and
// checks that Extend produces exactly what a full rebuild would.
func TestExtendMatchesRebuildFixture(t *testing.T) {
	tbl := buildFixture(t)
	h := mustBuild(t, tbl, fixtureConfig())

	// Week 5 arrives: a new pair {7,8} becomes frequent there, which
	// exercises the newcomer path (it needs historical recounting).
	for d := 28; d < 35; d++ {
		at := fixtureStart.AddDate(0, 0, d)
		for i := 0; i < 10; i++ {
			items := []itemset.Item{bread, 7, 8}
			if i < 8 {
				items = append(items, milk)
			}
			tbl.Append(at.Add(time.Duration(i)*time.Minute), itemset.New(items...))
		}
	}

	extended, err := h.ExtendContext(bg, tbl)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := mustBuild(t, tbl, fixtureConfig())
	if !holdTablesEqual(extended, rebuilt) {
		t.Fatal("Extend differs from full rebuild")
	}
	// The newcomer pair is tracked with correct zero history.
	v := extended.Counts(itemset.New(7, 8))
	if v == nil {
		t.Fatal("newcomer pair not tracked")
	}
	for gi := 0; gi < 28; gi++ {
		if v[gi] != 0 {
			t.Errorf("newcomer pair has history count %d at day %d", v[gi], gi)
		}
	}
	for gi := 28; gi < 35; gi++ {
		if v[gi] != 10 {
			t.Errorf("newcomer pair count %d at day %d, want 10", v[gi], gi)
		}
	}
}

func TestExtendErrors(t *testing.T) {
	tbl := buildFixture(t)
	h := mustBuild(t, tbl, fixtureConfig())
	// Nothing new.
	if _, err := h.ExtendContext(bg, tbl); err == nil {
		t.Error("Extend with no new granules accepted")
	}
	// Span start moved (data prepended): must demand a rebuild.
	tbl.Append(fixtureStart.AddDate(0, 0, -3), itemset.New(bread))
	tbl.Append(fixtureStart.AddDate(0, 0, 30), itemset.New(bread))
	if _, err := h.ExtendContext(bg, tbl); err == nil {
		t.Error("Extend after prepend accepted")
	}
	empty, _ := tdb.NewTxTable("empty")
	if _, err := h.ExtendContext(bg, empty); err == nil {
		t.Error("Extend on empty table accepted")
	}
}

// TestQuickExtendEquivalent grows random tables granule by granule and
// compares incremental maintenance against full rebuilds.
func TestQuickExtendEquivalent(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 12,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(r.Int63())
		},
	}
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tbl := randomTemporalTable(r)
		mcfg := Config{
			Granularity:   timegran.Day,
			MinSupport:    0.3,
			MinConfidence: 0.5,
			MinFreq:       1,
		}
		h, err := BuildHoldTableContext(bg, tbl, mcfg)
		if err != nil {
			return false
		}
		// Append 1-3 new days of random data.
		span, _ := tbl.Span(timegran.Day)
		base := timegran.Start(span.Hi+1, timegran.Day)
		days := 1 + r.Intn(3)
		for d := 0; d < days; d++ {
			nTx := 4 + r.Intn(4)
			for i := 0; i < nTx; i++ {
				var items []itemset.Item
				for x := 0; x < 8; x++ {
					if r.Float64() < 0.3 {
						items = append(items, itemset.Item(x))
					}
				}
				if len(items) == 0 {
					items = []itemset.Item{0}
				}
				tbl.Append(base.AddDate(0, 0, d).Add(time.Duration(i)*time.Minute), itemset.New(items...))
			}
		}
		extended, err := h.ExtendContext(bg, tbl)
		if err != nil {
			return false
		}
		rebuilt, err := BuildHoldTableContext(bg, tbl, mcfg)
		if err != nil {
			return false
		}
		return holdTablesEqual(extended, rebuilt)
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Error(err)
	}
}

// TestExtendThenMine exercises the end-to-end path: mine from an
// extended table and from a rebuilt one; identical output.
func TestExtendThenMine(t *testing.T) {
	tbl := buildFixture(t)
	h := mustBuild(t, tbl, fixtureConfig())
	for d := 28; d < 42; d++ {
		at := fixtureStart.AddDate(0, 0, d)
		weekend := d%7 == 5 || d%7 == 6
		for i := 0; i < 10; i++ {
			items := []itemset.Item{bread}
			if i < 8 {
				items = append(items, milk)
			}
			if weekend && i < 9 {
				items = append(items, choc, wine)
			}
			tbl.Append(at.Add(time.Duration(i)*time.Minute), itemset.New(items...))
		}
	}
	extended, err := h.ExtendContext(bg, tbl)
	if err != nil {
		t.Fatal(err)
	}
	a, err := MineCyclesFromTableContext(bg, extended, CycleConfig{MaxLen: 10, MinReps: 2})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, _ := BuildHoldTableContext(bg, tbl, fixtureConfig())
	b, err := MineCyclesFromTableContext(bg, rebuilt, CycleConfig{MaxLen: 10, MinReps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("extended mining found %d cyclic rules, rebuilt %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Cycle != b[i].Cycle || !a[i].Rule.Antecedent.Equal(b[i].Rule.Antecedent) {
			t.Errorf("rule %d differs", i)
		}
	}
}
