package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/timegran"
)

// passCancelTracer cancels a context when the build finishes its n-th
// counting pass — a deterministic way to cancel mid-build without
// timing assumptions.
type passCancelTracer struct {
	cancel context.CancelFunc
	after  int
	seen   int
	onEnd  func() // optional extra hook, runs after the cancel
}

func (t *passCancelTracer) Enabled() bool         { return true }
func (t *passCancelTracer) StartTask(string)      {}
func (t *passCancelTracer) EndTask()              {}
func (t *passCancelTracer) StartPass(int)         {}
func (t *passCancelTracer) Counter(string, int64) {}
func (t *passCancelTracer) Gauge(string, float64) {}
func (t *passCancelTracer) EndPass(obs.PassStats) {
	t.seen++
	if t.seen == t.after {
		t.cancel()
		if t.onEnd != nil {
			t.onEnd()
		}
	}
}

func TestBuildHoldTableCancelMidBuild(t *testing.T) {
	tbl := buildFixture(t)
	backends := map[string]apriori.Backend{
		"auto":   apriori.BackendAuto,
		"bitmap": apriori.BackendBitmap,
		"naive":  apriori.BackendNaive,
	}
	for name, backend := range backends {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := fixtureConfig()
			cfg.MinSupport = 0.1 // deep enough for several passes
			cfg.Tracer = &passCancelTracer{cancel: cancel, after: 1}
			cfg.Backend = backend
			_, err := BuildHoldTableContext(ctx, tbl, cfg)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}

// startPassCancelTracer cancels as pass `level` opens: after the loop's
// own check at the top of the level, before anything of the pass ran.
type startPassCancelTracer struct {
	passCancelTracer
	level int
}

func (t *startPassCancelTracer) StartPass(k int) {
	if k == t.level {
		t.cancel()
	}
}

// TestBuildHoldTableCancelDuringPairPrefilter cancels between the top
// of level 2 and its pair decision. The decision stops at its first
// granule boundary with no pair marked; taken at face value that is a level with
// zero survivors, and the build would return a table that ends at L1.
func TestBuildHoldTableCancelDuringPairPrefilter(t *testing.T) {
	tbl := buildFixture(t)
	for _, backend := range []apriori.Backend{apriori.BackendBitmap, apriori.BackendRoaring} {
		for _, workers := range []int{1, 4} {
			ctx, cancel := context.WithCancel(context.Background())
			cfg := fixtureConfig()
			cfg.Backend, cfg.Workers = backend, workers
			cfg.Tracer = &startPassCancelTracer{passCancelTracer: passCancelTracer{cancel: cancel}, level: 2}
			h, err := BuildHoldTableContext(ctx, tbl, cfg)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%v/workers=%d: table %v, err = %v, want context.Canceled", backend, workers, h != nil, err)
			}
		}
	}
}

func TestBuildHoldTableCancelParallel(t *testing.T) {
	tbl := buildFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := fixtureConfig()
	cfg.Workers = 4
	cfg.Tracer = &passCancelTracer{cancel: cancel, after: 1}
	_, err := BuildHoldTableContext(ctx, tbl, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// checkpointCtx is cancelled by its n-th Err call. A build samples
// cancellation through Err at its checkpoints — pass boundaries, ingest
// slices, candidate blocks — so sweeping n over every call a build
// makes cancels it at each of them in turn, the ingest's included.
type checkpointCtx struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
}

func newCheckpointCtx(n int64) *checkpointCtx {
	ctx, cancel := context.WithCancel(context.Background())
	c := &checkpointCtx{Context: ctx, cancel: cancel}
	c.left.Store(n)
	return c
}

func (c *checkpointCtx) Err() error {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestBuildHoldTableCancelAtEveryCheckpoint cancels a flat-bitmap build
// at each of its cancellation checkpoints, at every worker count, and a
// roaring one (serial ingest) likewise: the build must return
// context.Canceled, or — when no check ran after the cancel — exactly
// the uncancelled table. An ingest cut short must never be installed
// and counted as if whole.
func TestBuildHoldTableCancelAtEveryCheckpoint(t *testing.T) {
	tbl := ingestEdgeTable(t, 1)
	cases := []struct {
		backend apriori.Backend
		workers int
	}{
		{apriori.BackendBitmap, 1}, {apriori.BackendBitmap, 2}, {apriori.BackendBitmap, 3},
		{apriori.BackendBitmap, 8}, {apriori.BackendRoaring, 3},
	}
	for _, tc := range cases {
		cfg := Config{Granularity: timegran.Day, MinSupport: 0.3, MinConfidence: 0.5, MinFreq: 0.5,
			Backend: tc.backend, Workers: tc.workers}
		label := fmt.Sprintf("%v/workers=%d", tc.backend, tc.workers)
		probe := newCheckpointCtx(math.MaxInt64)
		want, err := BuildHoldTableContext(probe, tbl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		calls := math.MaxInt64 - probe.left.Load()
		if calls < int64(tbl.Len()/64) {
			t.Fatalf("%s: the build made only %d cancellation checks", label, calls)
		}
		for n := int64(1); n <= calls; n++ {
			h, err := BuildHoldTableContext(newCheckpointCtx(n), tbl, cfg)
			switch {
			case errors.Is(err, context.Canceled):
				if h != nil {
					t.Fatalf("%s: cancelled at check %d/%d, still returned a table", label, n, calls)
				}
			case err != nil:
				t.Fatalf("%s: cancelled at check %d/%d: %v", label, n, calls, err)
			case !holdTablesEqual(want, h):
				t.Fatalf("%s: cancelled at check %d/%d, returned a table that differs from the uncancelled build", label, n, calls)
			}
		}
	}
}

// TestTaskDriversCancelled runs every FromTable task driver under an
// already-cancelled context: each must return context.Canceled without
// emitting results.
func TestTaskDriversCancelled(t *testing.T) {
	tbl := buildFixture(t)
	h := mustBuild(t, tbl, fixtureConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	feature, err := timegran.ParsePattern("weekday in (sat, sun)")
	if err != nil {
		t.Fatal(err)
	}
	drivers := map[string]func() error{
		"during": func() error {
			_, err := MineDuringFromTableContext(ctx, h, feature)
			return err
		},
		"periods": func() error {
			_, err := MineValidPeriodsFromTableContext(ctx, h, PeriodConfig{})
			return err
		},
		"cycles": func() error {
			_, err := MineCyclesFromTableContext(ctx, h, CycleConfig{})
			return err
		},
		"calendars": func() error {
			_, err := MineCalendarPeriodicitiesFromTableContext(ctx, h, CycleConfig{})
			return err
		},
		"history": func() error {
			_, err := RuleHistoryFromTableContext(ctx, h, itemset.New(bread), itemset.New(milk))
			return err
		},
		"extend": func() error {
			_, err := h.ExtendContext(ctx, tbl)
			return err
		},
	}
	for name, run := range drivers {
		if err := run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestHoldCacheCancelNoPoison checks a cancelled build never leaves a
// cache entry behind: the next Get with a live context rebuilds
// cleanly and succeeds.
func TestHoldCacheCancelNoPoison(t *testing.T) {
	tbl := buildFixture(t)
	cache := NewHoldCache(64 << 20)
	cfg := fixtureConfig()

	ctx, cancel := context.WithCancel(context.Background())
	cfg.Tracer = &passCancelTracer{cancel: cancel, after: 1}
	if _, err := cache.GetContext(ctx, tbl, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: err = %v, want context.Canceled", err)
	}
	cancel()

	cfg.Tracer = nil
	h, err := cache.GetContext(context.Background(), tbl, cfg)
	if err != nil {
		t.Fatalf("rebuild after cancelled build: %v", err)
	}
	if h == nil || h.NGranules() == 0 {
		t.Fatal("rebuild returned an empty table")
	}
	st := cache.Stats()
	if st.Hits != 0 {
		t.Errorf("hits = %d; a cancelled build must not be served as a hit", st.Hits)
	}
	if st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (cancelled build + clean rebuild)", st.Misses)
	}
}

// TestHoldCacheLoserRetriesAfterWinnerCancelled: a waiter that joined a
// flight whose *winner* was cancelled must not inherit the winner's
// context error; it retries and gets a real table.
func TestHoldCacheLoserRetriesAfterWinnerCancelled(t *testing.T) {
	tbl := buildFixture(t)
	cache := NewHoldCache(64 << 20)

	winnerCtx, winnerCancel := context.WithCancel(context.Background())
	defer winnerCancel()
	started := make(chan struct{})
	cfgWinner := fixtureConfig()
	cfgWinner.Tracer = &passCancelTracer{
		cancel: winnerCancel,
		after:  1,
		onEnd: func() {
			close(started)                    // let the loser join the flight
			time.Sleep(50 * time.Millisecond) // keep the flight open briefly
		},
	}

	winnerErr := make(chan error, 1)
	go func() {
		_, err := cache.GetContext(winnerCtx, tbl, cfgWinner)
		winnerErr <- err
	}()

	<-started
	h, err := cache.GetContext(context.Background(), tbl, fixtureConfig())
	if err != nil {
		t.Fatalf("loser: err = %v, want clean retry", err)
	}
	if h == nil || h.NGranules() != 28 {
		t.Fatalf("loser got a bad table: %+v", h)
	}
	if err := <-winnerErr; !errors.Is(err, context.Canceled) {
		t.Errorf("winner: err = %v, want context.Canceled", err)
	}
}

// TestHoldCacheWaiterCancelled: a waiter whose own context dies while
// the flight is in progress returns its ctx.Err() promptly, while the
// winner completes normally.
func TestHoldCacheWaiterCancelled(t *testing.T) {
	tbl := buildFixture(t)
	cache := NewHoldCache(64 << 20)

	started := make(chan struct{})
	release := make(chan struct{})
	var once bool
	cfgWinner := fixtureConfig()
	// Hold the build open after the first pass so the waiter reliably
	// joins the flight and can be cancelled while waiting.
	cfgWinner.Tracer = tracerFunc(func() {
		if !once {
			once = true
			close(started)
			<-release
		}
	})

	winnerErr := make(chan error, 1)
	go func() {
		_, err := cache.GetContext(context.Background(), tbl, cfgWinner)
		winnerErr <- err
	}()

	<-started
	waiterCtx, waiterCancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, err := cache.GetContext(waiterCtx, tbl, fixtureConfig())
		waiterDone <- err
	}()
	// Give the waiter a moment to join the flight, then cancel it.
	time.Sleep(20 * time.Millisecond)
	waiterCancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter: err = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-winnerErr; err != nil {
		t.Fatalf("winner: %v", err)
	}
}

// tracerFunc adapts a func to a Tracer whose EndPass calls it.
type tracerFuncT struct{ f func() }

func tracerFunc(f func()) obs.Tracer { return &tracerFuncT{f: f} }

func (t *tracerFuncT) Enabled() bool         { return true }
func (t *tracerFuncT) StartTask(string)      {}
func (t *tracerFuncT) EndTask()              {}
func (t *tracerFuncT) StartPass(int)         {}
func (t *tracerFuncT) EndPass(obs.PassStats) { t.f() }
func (t *tracerFuncT) Counter(string, int64) {}
func (t *tracerFuncT) Gauge(string, float64) {}
