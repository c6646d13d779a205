package main

import (
	"math"
	"reflect"
	"regexp"
	"testing"

	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tml"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		pct, v := tailPercentile(xs)
		if pct != tc.want {
			t.Errorf("n=%d: percentile %v, want %v", tc.n, pct, tc.want)
		}
		if beyond := float64(tc.n) * (100 - pct) / 100; pct > 50 && beyond < 10-1e-9 {
			t.Errorf("n=%d: p%v has only %.1f samples beyond it", tc.n, pct, beyond)
		}
		if want := quantile(xs, pct/100); v != want {
			t.Errorf("n=%d: value %v, want %v", tc.n, v, want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	node := func(start, wall float64, kids ...*obs.SpanNode) *obs.SpanNode {
		return &obs.SpanNode{StartMS: start, WallMS: wall, Children: kids}
	}
	for _, tc := range []struct {
		name string
		n    *obs.SpanNode
		want float64
	}{
		{"leaf", node(0, 10), 10},
		{"sequential children", node(0, 10, node(1, 2), node(5, 3)), 5},
		{"overlapping children count once", node(0, 10, node(1, 4), node(3, 4)), 4},
		{"nested child interval", node(0, 10, node(1, 8), node(2, 2)), 2},
		{"child sticking out is clipped", node(5, 10, node(0, 7), node(14, 5)), 7},
		{"children cover everything", node(0, 10, node(0, 6), node(6, 4)), 0},
	} {
		if got := selfMS(tc.n); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

// The client folds a subscription with tml.RuleSet.Apply; its digest of
// the fold must equal the digest of the state the deltas lead to,
// whatever order rows were inserted in.
func TestFoldDigestEqualsStateDigest(t *testing.T) {
	cols := []string{"antecedent", "consequent", "support", "from"}
	states := [][][]string{
		{{"{a}", "{b}", "0.5", "d1"}, {"{a}", "{c}", "0.4", "d1"}},
		{{"{a}", "{b}", "0.6", "d1"}, {"{b}", "{c}", "0.3", "d2"}},
		{{"{b}", "{c}", "0.3", "d2"}, {"{a}", "{b}", "0.6", "d1"}, {"{c}", "{d}", "0.2", "d3"}},
		{},
		{{"{z}", "{y}", "0.9", "d9"}},
	}
	var fold tml.RuleSet
	prev := map[string][]string{}
	for i, rows := range states {
		cur := tml.KeyRows(cols, rows)
		if err := fold.Apply(tml.DiffRows(prev, cur)); err != nil {
			t.Fatalf("state %d: %v", i, err)
		}
		if got, want := rowsDigest(fold.Rows), rowsDigest(cur); got != want {
			t.Errorf("state %d: fold digest %s, state digest %s", i, got, want)
		}
		prev = cur
	}
	// Strictness is what makes a lost event visible.
	if err := fold.Apply([]tml.RuleDelta{{Kind: tml.DeltaRemoved, Key: "nope"}}); err == nil {
		t.Error("removing an unknown key folded silently")
	}
}

func TestDigestStability(t *testing.T) {
	a := map[string][]string{}
	b := map[string][]string{}
	keys := []string{"k3", "k1", "k2", "k0"}
	for _, k := range keys {
		a[k] = []string{k, "x"}
	}
	for i := len(keys) - 1; i >= 0; i-- {
		b[keys[i]] = []string{keys[i], "x"}
	}
	if rowsDigest(a) != rowsDigest(b) {
		t.Error("rowsDigest depends on insertion order")
	}
	b["k0"] = []string{"k0", "y"}
	if rowsDigest(a) == rowsDigest(b) {
		t.Error("rowsDigest misses a changed cell")
	}
	// Text results rely on the row order the server guarantees: a
	// reordered table is a different result.
	if digest([]byte("| a |\n| b |\n")) == digest([]byte("| b |\n| a |\n")) {
		t.Error("text digest ignores row order")
	}
}

func TestDatasetIsAFunctionOfTheSeed(t *testing.T) {
	gen := func(seed int64) [][]basket {
		ds, err := newDataset(seed)
		if err != nil {
			t.Fatal(err)
		}
		return ds.days(0, 3, 50)
	}
	a, b, c := gen(5), gen(5), gen(6)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different baskets")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same baskets")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONKeepsTheContract(t *testing.T) {
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", sp.RunSeconds)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadOrder) {
		t.Errorf("workloads %v, harness has %v", names, workloadOrder)
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	setup := false
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-]", m.Name)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range sp.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s has %v)", m.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
}

// A dry run — tiny inputs, no server — must produce exactly the metrics
// BENCHMARK.json lists: a listed metric nobody computes fails the
// driver, a computed metric nobody lists is never seen.
func TestDryRunPrintsEveryMetric(t *testing.T) {
	sp, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	r := newResult()
	r.lat = []float64{1, 2, 3}
	r.kind = []int{0, 0, 0}
	r.attempted, r.passOps, r.passS = 3, 3, []float64{0.006}
	r.setupS, r.liveHeapMB, r.diskBytes, r.storedTx = []float64{0.1}, 50, 1000, 10
	r.journal = newJournalAgg()
	r.metrics = map[string]float64{}

	e2e := map[string]float64{}
	endToEndMetrics(r, e2e)
	for _, m := range sp.EndToEnd {
		if _, ok := e2e[m.Name]; !ok {
			t.Errorf("end-to-end metric %s is not produced", m.Name)
		}
		delete(e2e, m.Name)
	}
	for k := range e2e {
		t.Errorf("end-to-end metric %s is produced but not listed in BENCHMARK.json", k)
	}

	probes := map[string]float64{}
	e := &env{tmp: t.TempDir(), seed: 1}
	// 160 days reach June (the DURING miner needs a summer), at the real
	// density: at a tenth of it a 0.03 support is two baskets a day and
	// the candidate sets explode.
	if err := runProbes(e, probes, 160, mineTxPerDay); err != nil {
		t.Fatal(err)
	}
	layers := map[string]float64{}
	layerMetrics(r, r, probes, 1, layers)
	for _, m := range sp.PerLayer {
		if _, ok := layers[m.Name]; !ok {
			t.Errorf("per-layer metric %s is not produced", m.Name)
		}
		delete(layers, m.Name)
	}
	for k := range layers {
		t.Errorf("per-layer metric %s is produced but not listed in BENCHMARK.json", k)
	}
}
