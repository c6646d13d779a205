package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// routeTable draws a day table for the route law. A day holds 0 to 150
// rows, so granules fall under a word, straddle word boundaries at any
// offset, or are empty (inactive); one in six tables is a single day.
// Items come from a universe of 2–9, dense ids or sparse ones near the
// top of the id space, drawn with a per-day density, so |L1| runs from 0
// up and the locally frequent items differ from day to day.
func routeTable(t *testing.T, r *rand.Rand) *tdb.TxTable {
	t.Helper()
	tbl, err := tdb.NewTxTable("route")
	if err != nil {
		t.Fatal(err)
	}
	universe := make([]itemset.Item, 2+r.Intn(8))
	for i := range universe {
		universe[i] = itemset.Item(i)
		if r.Intn(2) == 0 {
			universe[i] = itemset.Item(4_000_000_000 - 70_001*i)
		}
	}
	days := 2 + r.Intn(6)
	if r.Intn(6) == 0 {
		days = 1
	}
	start := time.Date(2001, 3, 1, 0, 0, 0, 0, time.UTC)
	for d := range days {
		rows := []int{0, 1 + r.Intn(63), 64 + r.Intn(87)}[r.Intn(3)]
		if days == 1 && rows == 0 {
			rows = 1 + r.Intn(150)
		}
		density := 0.1 + 0.6*r.Float64()
		for i := range rows {
			var items []itemset.Item
			for _, x := range universe {
				if r.Float64() < density {
					items = append(items, x)
				}
			}
			if len(items) == 0 {
				items = append(items, universe[r.Intn(len(universe))])
			}
			tbl.Append(start.AddDate(0, 0, d).Add(time.Duration(i)*time.Minute), itemset.New(items...))
		}
	}
	return tbl
}

// TestPairRoutesAgree is the route law of the level-2 decision: a
// granule's pairs are decided the same on either kernel. Over random
// tables it builds on the flat bitmap with the route threshold at 0
// (every granule on the triangle), unbounded (every granule on the
// index) and calibrated, at 1, 2, 3 and 8 workers, with the triangle's
// scratch whole, ten cells or one row a scan, and each table must equal
// the naive build — level 2 and every level after it. The decision must
// be exact, not merely a superset the keep loop trims: at MaxK 2 every
// pair given a count vector is granule-frequent. The trace must show
// each route taken where the threshold sends it.
func TestPairRoutesAgree(t *testing.T) {
	var vertical, horizontal int64
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		tbl := routeTable(t, r)
		cfg := Config{
			Granularity:   timegran.Day,
			MinSupport:    []float64{0.2, 0.3, 0.5}[r.Intn(3)],
			MinConfidence: 0.5,
			MinFreq:       0.5,
		}
		if r.Intn(4) == 0 {
			cfg.MinGranuleTx = 40
		}
		if r.Intn(2) == 0 {
			cfg.MaxK = 2 // then every count vector is a level-2 survivor's
		}
		ref := cfg
		ref.Backend = apriori.BackendNaive
		want, err := BuildHoldTableContext(bg, tbl, ref)
		if err != nil {
			continue // every granule inactive: no build to compare
		}
		pairCells := []int{apriori.MaxPairCells, 10, 0}[r.Intn(3)]
		for _, threshold := range []int{0, apriori.MaxVerticalItems, math.MaxInt} {
			for _, workers := range []int{1, 2, 3, 8} {
				label := fmt.Sprintf("seed %d threshold %d workers %d pairCells %d", seed, threshold, workers, pairCells)
				got := cfg
				got.Backend, got.Workers = apriori.BackendBitmap, workers
				trace := obs.NewTrace("")
				got.Tracer = trace
				h, err := buildHoldTable(bg, tbl, got, pairCells, threshold)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameHoldTable(t, label, want, h)
				sum := obs.Summarize(trace.Tree())
				switch {
				case cfg.MaxK == 2 && len(h.ByK) > 2 && sum.CountVectors != int64(len(h.ByK[2])):
					t.Fatalf("%s: %d pairs counted, %d granule-frequent; the decision must be exact",
						label, sum.CountVectors, len(h.ByK[2]))
				case threshold == 0 && sum.PairVertical != 0:
					t.Fatalf("%s: %d granules decided on the index", label, sum.PairVertical)
				case threshold == math.MaxInt && sum.PairHorizontal != 0:
					t.Fatalf("%s: %d granules decided by the triangle", label, sum.PairHorizontal)
				}
				vertical += sum.PairVertical
				horizontal += sum.PairHorizontal
			}
		}
	}
	if vertical == 0 || horizontal == 0 {
		t.Errorf("granules decided: %d vertical, %d horizontal; the law went untested on a route", vertical, horizontal)
	}
}

// TestPairRoutesOnlyOnTheFlatIndex: roaring has no flat index to decide
// on, so every granule takes the triangle however high the threshold.
func TestPairRoutesOnlyOnTheFlatIndex(t *testing.T) {
	tbl := backendTestTable(t, 42)
	for _, backend := range []apriori.Backend{apriori.BackendRoaring} {
		trace := obs.NewTrace("")
		cfg := Config{Granularity: timegran.Day, MinSupport: 0.1, MinConfidence: 0.5, MinFreq: 0.8,
			Backend: backend, Workers: 2, Tracer: trace}
		if _, err := buildHoldTable(bg, tbl, cfg, apriori.MaxPairCells, math.MaxInt); err != nil {
			t.Fatal(err)
		}
		if sum := obs.Summarize(trace.Tree()); sum.PairVertical != 0 || sum.PairHorizontal == 0 {
			t.Errorf("%v: %d granules vertical, %d horizontal; want all horizontal", backend, sum.PairVertical, sum.PairHorizontal)
		}
	}
}

// TestJointlyFrequentPrune: from level 3 on, the production backends
// count only the candidates whose subsets are frequent together in some
// granule, and the table is the one the naive backend — which counts the
// whole join — builds. The pass telemetry still reports the join.
func TestJointlyFrequentPrune(t *testing.T) {
	s := itemset.New
	// {1,2}, {1,3} and {2,3} are each frequent, but on different days:
	// {1,2,3} survives the join and the subset prune, yet no day holds
	// all three pairs, so it gets no count vector.
	tbl := tableOfDays(t,
		[]itemset.Set{s(1, 2), s(1, 2), s(3), s(4)},
		[]itemset.Set{s(1, 3), s(1, 3), s(2), s(4)},
		[]itemset.Set{s(2, 3), s(2, 3), s(1), s(4)},
	)
	cfg := Config{Granularity: timegran.Day, MinSupport: 0.5, MinConfidence: 0.5, MinFreq: 0.5}
	ref := cfg
	ref.Backend = apriori.BackendNaive
	want := mustBuild(t, tbl, ref)
	for _, backend := range []apriori.Backend{apriori.BackendBitmap, apriori.BackendRoaring} {
		trace := obs.NewTrace("")
		got := cfg
		got.Backend, got.Tracer = backend, trace
		h := mustBuild(t, tbl, got)
		sameHoldTable(t, backend.String(), want, h)
		sum := obs.Summarize(trace.Tree())
		if sum.CountVectors != 3 {
			t.Errorf("%v: %d count vectors, want the 3 pairs only", backend, sum.CountVectors)
		}
		if len(sum.Passes) < 3 || sum.Passes[2].Generated != 1 || sum.Passes[2].Counted != 1 || sum.Passes[2].Frequent != 0 {
			t.Errorf("%v: passes %+v, want L3 reporting its one joined candidate as counted", backend, sum.Passes)
		}
	}
}

// TestKeepLoopChecksContext pins the keep loop's cancellation bound: it
// samples the context at least once per keepCheckEvery candidates, and
// returns the error once it is cancelled.
func TestKeepLoopChecksContext(t *testing.T) {
	tbl := buildFixture(t)
	h := mustBuild(t, tbl, fixtureConfig())
	var cands []itemset.Set
	for a := itemset.Item(0); a < 120; a++ {
		for b := a + 1; b < 120; b++ {
			cands = append(cands, itemset.New(a, b))
		}
	}
	view, _ := tbl.Granules(h.Cfg.Granularity)
	counts, err := apriori.NewSliceCounter(apriori.BackendNaive, h.slices(view), nil, 0).Count(bg, cands)
	if err != nil {
		t.Fatal(err)
	}
	fw := make([]uint64, len(h.Active))
	ctx := newCheckpointCtx(math.MaxInt64)
	if _, _, _, err := h.keepFrequent(ctx, cands, counts, h.thresholds(), fw, nil); err != nil {
		t.Fatal(err)
	}
	calls := math.MaxInt64 - ctx.left.Load()
	if min := int64(len(cands)-1) / keepCheckEvery; calls < min {
		t.Errorf("%d candidates kept with %d context checks, want ≥ %d", len(cands), calls, min)
	}
	if _, _, _, err := h.keepFrequent(newCheckpointCtx(2), cands, counts, h.thresholds(), fw, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled keep loop: err = %v, want context.Canceled", err)
	}
}
