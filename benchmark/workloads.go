package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"github.com/tarm-project/tarm/internal/apriori"
)

// env is what one benchmark invocation runs in.
type env struct {
	root     string // checkout root
	bin      string // tarmd binary
	benchDir string // benchmark/ (goldens, out/)
	tmp      string // scratch under the checkout, removed on exit
	seed     int64
	rec      *recorder // nil unless traced
	// oneSetup skips the set-up repeats: the traced run reports no
	// setup_s and has no time to spare.
	oneSetup bool
	// violations collects workload-validity failures; any entry makes
	// the run incorrect.
	violations []string
	// notes are one-line remarks printed with the metrics.
	notes []string
}

func (e *env) violate(format string, args ...any) {
	e.violations = append(e.violations, fmt.Sprintf(format, args...))
}

func (e *env) logPath(name string) string {
	return filepath.Join(e.benchDir, "out", name+".tarmd.log")
}

// result is what a measured run of one workload produced.
type result struct {
	lat       []float64 // client-observed op latency, ms, verified ops only
	kind      []int     // op kind of each latency
	attempted int
	failed    int
	wallS     float64 // wall time of the measured phase
	// The phase is a sequence of passes of passOps ops each — a sweep
	// of the statement list, a block of stream cycles, an ingest round.
	// Throughput is passOps over the median pass (see endToEndMetrics).
	passS      []float64
	passOps    int
	setupS     []float64
	peakRSSMB  float64
	liveHeapMB float64 // heap in use after a forced collection, end of phase
	cpuMS      float64 // server CPU over the measured phase
	diskBytes  int64
	storedTx   int
	// parts are named client-side stopwatch series (ms), e.g. the three
	// addends of a stream cycle.
	parts   map[string][]float64
	metrics map[string]float64 // /metrics at the end of the phase
	cache   cacheStats
	mem     memstats
	journal *journalAgg // traced runs only
	seqGaps int64       // subscription events lost, by sequence number
}

func newResult() *result { return &result{parts: map[string][]float64{}} }

func (r *result) part(name string, ms float64) { r.parts[name] = append(r.parts[name], ms) }

// fail counts one attempted op that did not verify.
func (r *result) fail(e *env, format string, args ...any) {
	r.attempted++
	r.reject(e, format, args...)
}

// reject marks an op already counted as attempted as failed; the first
// few are reported.
func (r *result) reject(e *env, format string, args ...any) {
	r.failed++
	if r.failed <= 5 {
		e.notes = append(e.notes, "FAILED op: "+fmt.Sprintf(format, args...))
	}
}

// ok records a verified op of the given kind (a statement's index in
// the pass; 0 where a workload has one kind of op).
func (r *result) ok(kind int, ms float64) {
	r.attempted++
	r.lat = append(r.lat, ms)
	r.kind = append(r.kind, kind)
}

// byKind splits the latencies by op kind.
func (r *result) byKind() map[int][]float64 {
	out := map[int][]float64{}
	for i, ms := range r.lat {
		out[r.kind[i]] = append(out[r.kind[i]], ms)
	}
	return out
}

// workload is one of the four benchmark workloads.
type workload interface {
	// prepare generates the inputs, the store and the expected results.
	// None of it is on any clock but gen.prepare_s.
	prepare(e *env) error
	// run starts tarmd, measures for about dur and verifies. traced
	// selects the journalled server and per-op span collection.
	run(e *env, dur time.Duration, traced bool) (*result, error)
	// goldenDigests computes the workload's pinned result digests for
	// e.seed in process, on the given backend, with or without a
	// hold-table cache: referenceBackend + cache at run time, naive and
	// uncached for -regen-golden.
	goldenDigests(e *env, backend apriori.Backend, cached bool) (golden, error)
}

// expect computes a workload's run-time reference digests and, where a
// golden is committed for the seed, holds them against it.
func expect(e *env, name string, w workload) (map[string]string, error) {
	expected, err := w.goldenDigests(e, referenceBackend, true)
	if err != nil {
		return nil, err
	}
	g, err := committedGolden(e, name)
	if err != nil || g == nil {
		return expected, err
	}
	return expected, checkGolden(g, expected)
}

// committedGolden loads the golden for the run's seed, saying so in the
// output when there is none.
func committedGolden(e *env, name string) (golden, error) {
	g, err := loadGolden(e.benchDir, name, e.seed)
	if err == nil && g == nil {
		e.notes = append(e.notes, fmt.Sprintf("no golden for seed %d: results are checked against the in-process reference only", e.seed))
	}
	return g, err
}

var workloads = map[string]func() workload{
	"cold_mine":      func() workload { return &mineWorkload{cold: true} },
	"warm_session":   func() workload { return &mineWorkload{} },
	"stream_cycle":   func() workload { return &streamWorkload{} },
	"ingest_recover": func() workload { return &ingestWorkload{} },
}

var workloadOrder = []string{"cold_mine", "warm_session", "stream_cycle", "ingest_recover"}

// journalFlag selects the server's query journal: off for every
// end-to-end number, a small ring for the traced run, whose per-op
// span trees are fetched one by one.
func journalFlag(traced bool) []string {
	if traced {
		return []string{"-journal", "256"}
	}
	return []string{"-journal", "-1"}
}

// startPrepared brings tarmd up on a prepared store `repeats` times,
// killing all but the last, and returns the survivor with every
// set-up time: process start → recovery → /healthz 200 → prime.
// A single set-up of a fraction of a second does not repeat; the
// median of several does.
func startPrepared(e *env, name, dir string, repeats int, flags []string, prime func(*tarmd) error) (*tarmd, []float64, error) {
	if e.oneSetup {
		repeats = 1
	}
	var setups []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		s, err := startTarmd(e.bin, dir, e.logPath(name), flags...)
		if err != nil {
			return nil, nil, err
		}
		if prime != nil {
			if err := prime(s); err != nil {
				s.kill()
				return nil, nil, fmt.Errorf("prime: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == repeats-1 {
			return s, setups, nil
		}
		s.kill()
	}
}

// finishServer takes the end-of-phase readings every workload reports:
// CPU, counters, cache and runtime stats, peak RSS, then a final
// checkpoint and the bytes it leaves on disk.
func finishServer(s *tarmd, dir string, r *result, cpu0 float64) error {
	cpu1, err := s.cpuMS()
	if err != nil {
		return err
	}
	r.cpuMS = cpu1 - cpu0
	if r.metrics, err = s.scrape(); err != nil {
		return err
	}
	if r.cache, err = s.cache(); err != nil {
		return err
	}
	if r.mem, err = s.memstats(); err != nil {
		return err
	}
	// What the server still holds once garbage is gone — table, cache,
	// subscriptions: the heap profile endpoint collects before it
	// answers. Unlike the resident-set peak, which follows the
	// collector's timing (84–120 MB on warm_session runs of one binary),
	// this repeats to the kilobyte.
	if _, err := s.do(http.MethodGet, "/debug/pprof/heap?gc=1", "", nil); err != nil {
		return err
	}
	live, err := s.memstats()
	if err != nil {
		return err
	}
	r.liveHeapMB = float64(live.Memstats.HeapAlloc) / (1 << 20)
	if err := s.flush(); err != nil {
		return err
	}
	if r.storedTx, err = s.rows(); err != nil {
		return err
	}
	rss, err := s.peakRSSMB()
	if err != nil {
		return err
	}
	if rss > r.peakRSSMB {
		r.peakRSSMB = rss
	}
	r.diskBytes, err = dirBytes(dir)
	return err
}

// fetchTrace pulls one op's journal record after the op's stopwatch
// has stopped, folds it into the aggregate and hangs its span tree
// under the client span.
func fetchTrace(e *env, s *tarmd, r *result, rid string, parent int, start time.Time, dur time.Duration) error {
	var rec queryRecord
	if err := s.getJSON("/v1/queries/"+rid, &rec); err != nil {
		return fmt.Errorf("trace %s: %w", rid, err)
	}
	r.journal.add(&rec)
	e.rec.attach(rid, parent, start, dur, rec.Spans)
	return nil
}
