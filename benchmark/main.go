// Command benchmark is the end-to-end benchmark of tarmd: four
// closed-loop, single-client workloads driven over loopback HTTP
// against the real cmd/tarmd binary, every answer verified, plus a
// separate traced run that attributes the time to the layers. See
// README.md for the metric dictionary and how to read the output.
//
//	bash benchmark/run.sh --workload cold_mine --seed 1998 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload stream_cycle --seed 7 --seconds 20 --trace 1
//	bash benchmark/run.sh -aa            # A/A calibration of the whole suite
//	bash benchmark/run.sh -regen-golden  # rewrite golden/ with the naive backend
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// spec mirrors BENCHMARK.json, the contract the driver checks: which
// metrics exist, their units, directions and regression bounds.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// outcome is the last line of standard output.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "cold_mine, warm_session, stream_cycle or ingest_recover")
		seed         = flag.Int64("seed", 1998, "input seed; reaches the generator and nothing else")
		seconds      = flag.Float64("seconds", 0, "length of the measured phase (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "1 = traced run: per-layer metrics and out/trace_<workload>.json")
		aa           = flag.Bool("aa", false, "A/A calibration: two interleaved sets of runs of every workload (or of -workload) on one binary")
		aaRuns       = flag.Int("aa-runs", 5, "runs per set and workload under -aa")
		regen        = flag.Bool("regen-golden", false, "recompute golden/ for seeds 1998 and 2024 with the naive backend")
		root         = flag.String("root", ".", "checkout root (holds BENCHMARK.json)")
		bin          = flag.String("tarmd", "", "tarmd binary built from the checkout")
	)
	flag.Parse()
	// The harness holds a year of baskets and allocates per answer; on
	// two cores its collector would compete with the server under test.
	debug.SetGCPercent(400)

	sp, err := loadSpec(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	benchDir := filepath.Join(*root, "benchmark")
	if err := os.MkdirAll(filepath.Join(benchDir, "out"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	// Scratch lives inside the checkout and goes away on every exit
	// path, including a signal.
	if err := os.MkdirAll(filepath.Join(*root, ".bench_build"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	tmp, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		// tarmd children die with us (Pdeathsig); the scratch must not
		// outlive us either.
		os.RemoveAll(tmp)
		os.Exit(130)
	}()

	base := env{root: *root, bin: *bin, benchDir: benchDir, tmp: tmp, seed: *seed}
	switch {
	case *regen:
		err = regenGolden(&base)
	case *aa:
		err = runAA(&base, sp, *workloadName, *seconds, *aaRuns)
	default:
		if _, ok := workloads[*workloadName]; !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown -workload %q (want one of %s)\n", *workloadName, strings.Join(workloadOrder, ", "))
			return 2
		}
		if *bin == "" {
			fmt.Fprintln(os.Stderr, "benchmark: -tarmd is required (run through benchmark/run.sh)")
			return 2
		}
		var out *outcome
		out, err = runOnce(&base, sp, *workloadName, *seconds, *trace != 0, os.Stdout)
		if err == nil {
			line, _ := json.Marshal(out) // plain numbers and strings
			fmt.Println(string(line))
			if !out.Correct {
				return 1
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runOnce runs one workload the way the driver asks for it and prints
// the stamp, the notes and every metric as "name value unit" to w. The
// returned outcome carries the end-to-end metrics (untraced) or the
// per-layer metrics (traced).
func runOnce(base *env, sp *spec, name string, seconds float64, traced bool, w *os.File) (*outcome, error) {
	dur := time.Duration(seconds * float64(time.Second))
	values := map[string]float64{}
	var specs []metricSpec
	var r *result
	var violations, notes []string

	// sub runs one prepare+run of the workload in its own scratch.
	sub := func(tag string, d time.Duration, rec *recorder) (*result, float64, error) {
		e := *base
		e.tmp = filepath.Join(base.tmp, tag)
		e.rec = rec
		e.oneSetup = traced
		if err := os.MkdirAll(e.tmp, 0o755); err != nil {
			return nil, 0, err
		}
		wl := workloads[name]()
		t0 := time.Now()
		if err := wl.prepare(&e); err != nil {
			return nil, 0, fmt.Errorf("%s: prepare: %w", name, err)
		}
		prepS := time.Since(t0).Seconds()
		t1 := time.Now()
		res, err := wl.run(&e, d, rec != nil)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", name, err)
		}
		notes = append(notes, fmt.Sprintf("%s: prepare %.1f s, run %.1f s of which %.1f s measured", tag, prepS, time.Since(t1).Seconds(), res.wallS))
		violations = append(violations, e.violations...)
		notes = append(notes, e.notes...)
		return res, prepS, os.RemoveAll(e.tmp)
	}

	if !traced {
		var err error
		if r, _, err = sub("e2e", dur, nil); err != nil {
			return nil, err
		}
		endToEndMetrics(r, values)
		specs = sp.EndToEnd
	} else {
		// The traced run is its own measurement: a short untraced phase
		// for the overhead ratio, then the traced phase, then the layer
		// probes, alone on the box.
		rec := newRecorder()
		plain, _, err := sub("plain", dur/3, nil)
		if err != nil {
			return nil, err
		}
		var prepS float64
		if r, prepS, err = sub("traced", dur-dur/3, rec); err != nil {
			return nil, err
		}
		e := *base
		e.rec = rec
		probes := map[string]float64{}
		if err := runProbes(&e, probes, historyDays, mineTxPerDay); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		layerMetrics(plain, r, probes, prepS, values)
		violations = append(violations, checkAttribution(name, r)...)
		r.attempted += plain.attempted
		r.failed += plain.failed
		path := filepath.Join(base.benchDir, "out", "trace_"+name+".json")
		if err := rec.write(path, stamp(base)); err != nil {
			return nil, err
		}
		notes = append(notes, fmt.Sprintf("%d spans written to %s", len(rec.spans), path))
		specs = sp.PerLayer
	}

	for _, kv := range stamp(base) {
		fmt.Fprintf(w, "# %s: %s\n", kv[0], kv[1])
	}
	fmt.Fprintf(w, "# set-up samples (s): %.4f\n", r.setupS)
	fmt.Fprintf(w, "# pass walls (s): %.4f\n", r.passS)
	fmt.Fprintf(w, "# workload %s seed %d seconds %g traced %v: %d ops attempted, %d failed, latency over %d samples\n",
		name, base.seed, seconds, traced, r.attempted, r.failed, len(r.lat))
	for _, n := range notes {
		fmt.Fprintln(w, "# note:", n)
	}
	for _, v := range violations {
		fmt.Fprintln(w, "# VALIDITY VIOLATION:", v)
	}
	out := &outcome{
		Correct:   r.failed == 0 && len(violations) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, ms := range specs {
		v, ok := values[ms.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s of BENCHMARK.json is not produced by the harness", ms.Name)
		}
		fmt.Fprintf(w, "%s %v %s\n", ms.Name, v, ms.Unit)
		out.Metrics[ms.Name] = metricValue{v, ms.Unit}
	}
	return out, nil
}

// endToEndMetrics derives the five gated numbers from a run.
func endToEndMetrics(r *result, m map[string]float64) {
	m["setup_s"] = median(r.setupS)
	// Throughput from the median pass, not the phase's wall clock: the
	// box slows down for seconds at a time, and a mean carries every
	// such stretch into the number.
	m["ops_per_s"] = float64(r.passOps) / median(r.passS)
	m["op_p50_ms"] = typicalLatency(r)
	m["live_heap_mb"] = r.liveHeapMB
	if r.storedTx > 0 {
		m["disk_bytes_per_tx"] = float64(r.diskBytes) / float64(r.storedTx)
	}
}

// typicalLatency is the median op latency where a workload has one
// kind of op, and the geometric mean of the per-kind medians where it
// has several. The plain median of a mixed population sits in a gap
// between two kinds of statement (the 9th of cold_mine's 17 takes
// 119 ms, the 10th 142 ms) and hops across it from run to run; the
// geometric mean moves by the same share whichever statement moved.
func typicalLatency(r *result) float64 {
	kinds := r.byKind()
	if len(kinds) == 0 {
		return 0
	}
	logSum := 0.0
	for _, xs := range kinds {
		logSum += math.Log(median(xs))
	}
	return math.Exp(logSum / float64(len(kinds)))
}

// layerMetrics derives the per-layer numbers from the traced phase r,
// the short untraced phase before it and the probes.
func layerMetrics(plain, r *result, probes map[string]float64, prepS float64, m map[string]float64) {
	for k, v := range probes {
		m[k] = v
	}
	perOp := func(v float64) float64 { return ratio(v, float64(r.attempted-r.failed)) }

	// J: what the statements' own span trees say, per traced statement.
	j := r.journal
	perStmt := func(v float64) float64 { return ratio(v, float64(j.statements)) }
	m["apriori.pass_k1_ms"] = perStmt(j.passMS[0])
	m["apriori.pass_k2_ms"] = perStmt(j.passMS[1])
	m["apriori.pass_k3plus_ms"] = perStmt(j.passMS[2])
	m["apriori.candidates_counted"] = perStmt(j.counted)
	m["apriori.candidates_pruned"] = perStmt(j.pruned)
	m["apriori.rows_scanned"] = perStmt(j.rows)
	m["apriori.frequent_ratio"] = ratio(j.frequent, j.counted)
	for _, op := range []string{"build-hold", "cached-hold", "mine", "prune", "render"} {
		m["plan.op."+op+"_ms"] = perStmt(j.opMS[op])
	}
	m["plan.self_ms"] = perStmt(j.selfMS)
	m["plan.statement_ms"] = perStmt(j.stmtMS)

	// M: counters the server publishes.
	c := r.cache.Stats
	m["core.cache_hits"] = float64(c.Hits)
	m["core.cache_rethresholds"] = float64(c.Rethresholds)
	m["core.cache_deltas"] = float64(c.Deltas)
	m["core.cache_misses"] = float64(c.Misses)
	m["core.cache_evictions"] = float64(c.Evictions)
	useful := float64(c.Hits + c.Rethresholds + c.Deltas)
	m["core.cache_useful_ratio"] = ratio(useful, useful+float64(c.Misses))
	m["server.rejects_429_503"] = r.metrics["tarmd_rejected_queue_full_total"] + r.metrics["tarmd_rejected_draining_total"]
	m["client.sub_seq_gaps"] = float64(r.seqGaps)
	m["runtime.peak_rss_mb"] = r.peakRSSMB
	m["runtime.cpu_ms_per_op"] = perOp(r.cpuMS)
	m["runtime.alloc_mb_per_op"] = perOp(float64(r.mem.Memstats.TotalAlloc) / (1 << 20))
	m["runtime.gc_cycles"] = float64(r.mem.Memstats.NumGC)
	m["runtime.gc_pause_total_ms"] = float64(r.mem.Memstats.PauseTotalNs) / 1e6

	// C: the client's stopwatches.
	m["client.cycle.append_ack_p50_ms"] = median(r.parts["append_ack"])
	m["client.cycle.close_to_emit_p50_ms"] = median(r.parts["close_to_emit"])
	m["client.cycle.delta_stmt_p50_ms"] = median(r.parts["delta_stmt"])
	m["server.append_overhead_ms"] = median(r.parts["append_overhead"])
	// Statement overhead: what the client waited beyond the journal's
	// Begin→End wall — HTTP, admission, text rendering onto the wire.
	stmtMS := sum(r.lat)
	if len(r.parts["delta_stmt"]) > 0 { // a stream cycle's statement is its last step
		stmtMS = sum(r.parts["delta_stmt"])
	}
	m["server.stmt_overhead_ms"] = perStmt(stmtMS - j.journalMS)
	pct, tail := tailPercentile(r.lat)
	m["client.op_tail_pct"] = pct
	m["client.op_tail_ms"] = tail
	m["client.op_max_ms"] = quantile(r.lat, 1)
	m["client.op_samples"] = float64(len(r.lat))
	m["client.ops_attempted"] = float64(r.attempted)
	m["client.ops_failed"] = float64(r.failed)
	m["gen.prepare_s"] = prepS
	// Tracing overhead: busy-time throughput with the journal on and
	// span trees fetched, over the same without. Busy time (Σ latency)
	// leaves the fetches themselves out; they sit between ops.
	m["obs.trace_overhead_ratio"] = ratio(ratio(float64(len(r.lat)), sum(r.lat)), ratio(float64(len(plain.lat)), sum(plain.lat)))
}

// ratio is a/b, and 0 where there is nothing to divide by: a metric
// that does not apply to a workload reads 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checkAttribution enforces what the traced run must show for the
// layer numbers to be an explanation of the end-to-end ones.
func checkAttribution(name string, r *result) []string {
	var bad []string
	j := r.journal
	opSum := j.selfMS
	for _, v := range j.opMS {
		opSum += v
	}
	switch name {
	case "cold_mine", "warm_session":
		if d := relDiff(opSum, j.stmtMS); d > 0.02 {
			bad = append(bad, fmt.Sprintf("%s: plan.op.* + plan.self sum to %.1f ms, statement spans to %.1f ms (%.1f %% apart)", name, opSum, j.stmtMS, d*100))
		}
		// Span wall and journal wall are two stopwatches around the
		// same statement; with the client's overhead they must account
		// for what the client saw.
		if d := relDiff(j.stmtMS, j.journalMS); d > 0.02 {
			bad = append(bad, fmt.Sprintf("%s: statement spans %.1f ms vs journal walls %.1f ms (%.1f %% apart)", name, j.stmtMS, j.journalMS, d*100))
		}
		share := j.opMS["build-hold"] / j.stmtMS
		if name == "cold_mine" && share < 0.70 {
			bad = append(bad, fmt.Sprintf("cold_mine: op:build-hold is %.0f %% of statement time, want ≥ 70 %%", share*100))
		}
		if name == "warm_session" && j.opMS["build-hold"] != 0 {
			bad = append(bad, "warm_session: op:build-hold spans present after priming")
		}
	case "stream_cycle":
		parts := sum(r.parts["append_ack"]) + sum(r.parts["close_to_emit"]) + sum(r.parts["delta_stmt"])
		if d := relDiff(parts, sum(r.lat)); d > 0.001 {
			bad = append(bad, fmt.Sprintf("stream_cycle: cycle addends sum to %.1f ms, ops to %.1f ms", parts, sum(r.lat)))
		}
	case "ingest_recover":
		if j.stray != 0 {
			bad = append(bad, fmt.Sprintf("ingest_recover: %d append records carry mining spans", j.stray))
		}
	}
	return bad
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return 1
	}
	d := (a - b) / b
	if d < 0 {
		d = -d
	}
	return d
}

// stamp identifies the machine and build a set of numbers came from,
// as ordered key, value pairs.
func stamp(e *env) [][2]string {
	return [][2]string{
		{"commit", commit(e.root)},
		{"go", runtime.Version()},
		{"gomaxprocs", fmt.Sprint(runtime.GOMAXPROCS(0))},
		{"nproc", fmt.Sprint(runtime.NumCPU())},
		{"cpu", cpuModel()},
		{"scratch_fs", fsType(e.tmp)},
		{"fsync", "always (tarmd -wal default)"},
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads HEAD without shelling out; the driver's checkout is not
// a git repository, and says so.
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "not a git checkout"
	}
	ref := strings.TrimSpace(string(head))
	if rest, ok := strings.CutPrefix(ref, "ref: "); ok {
		raw, err := os.ReadFile(filepath.Join(root, ".git", rest))
		if err != nil {
			return rest
		}
		ref = strings.TrimSpace(string(raw))
	}
	if len(ref) > 12 {
		ref = ref[:12]
	}
	return ref
}

// fsType names the filesystem under path from /proc/mounts (longest
// mount-point prefix wins).
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
