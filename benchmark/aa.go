package main

import (
	"fmt"
	"os"

	"github.com/tarm-project/tarm/internal/apriori"
)

// aaSeeds are the inputs of the calibration runs: a different seed per
// run, the same list for both sets — what the driver does when it
// decides whether the benchmark is quiet enough to gate on.
var aaSeeds = []int64{1998, 2024, 7, 11, 23, 42, 101, 313, 4096, 65537}

// runAA measures the benchmark against itself: every workload runs as
// two interleaved sets (A1 B1 A2 B2 …) on the same binary, and for each
// end-to-end metric it prints both medians, the quartile spread as a
// share of the median, and the A/B gap as a share of the metric's
// bound. A gap above half the bound, or a spread above the bound,
// fails: the bound could not tell a regression from a quiet day. only,
// when set, restricts the calibration to one workload.
func runAA(base *env, sp *spec, only string, seconds float64, runs int) error {
	if runs > len(aaSeeds) {
		runs = len(aaSeeds)
	}
	for _, kv := range stamp(base) {
		fmt.Printf("# %s: %s\n", kv[0], kv[1])
	}
	fmt.Printf("# A/A: %d runs per set, %g s measured per run, seeds %v\n", runs, seconds, aaSeeds[:runs])
	fmt.Println("| workload | metric | median A | median B | spread A | spread B | gap | bound | gap/bound |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer devnull.Close()
	failed := false
	for _, name := range workloadOrder {
		if only != "" && name != only {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < runs; i++ {
			for set := 0; set < 2; set++ {
				e := *base
				e.seed = aaSeeds[i]
				out, err := runOnce(&e, sp, name, seconds, false, devnull)
				if err != nil {
					return err
				}
				if !out.Correct {
					return fmt.Errorf("%s seed %d: run invalid (%d of %d ops failed)", name, e.seed, out.Failed, out.Attempted)
				}
				for k, v := range out.Metrics {
					sets[set][k] = append(sets[set][k], v.Value)
				}
			}
		}
		for _, ms := range sp.EndToEnd {
			a1, a2, a3 := quartiles(sets[0][ms.Name])
			b1, b2, b3 := quartiles(sets[1][ms.Name])
			gap := (b2 - a2) / a2
			if ms.Better == "higher" {
				gap = -gap
			}
			if gap < 0 {
				gap = -gap // either set may be "first"; the worse direction is what matters
			}
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			verdict := ""
			// setup_s is exempt from the spread rule (the driver gates
			// only its medians), not from the gap rule.
			if gap > ms.Bound/2 || (ms.Name != "setup_s" && (spreadA > ms.Bound || spreadB > ms.Bound)) {
				verdict = " FAIL"
				failed = true
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.2f %% | %.2f %% | %.2f %% | %.0f %% | %.2f%s |\n",
				name, ms.Name, a2, b2, spreadA*100, spreadB*100, gap*100, ms.Bound*100, gap/ms.Bound, verdict)
		}
	}
	if failed {
		return fmt.Errorf("A/A: at least one metric cannot hold its bound")
	}
	return nil
}

// goldenSeeds are the seeds golden digests are committed for.
var goldenSeeds = []int64{1998, 2024}

// regenGolden recomputes golden/ from first principles: the generator's
// baskets in a fresh in-memory database, mined by the naive backend
// with no cache — never by tarmd. It takes minutes; it runs when the
// workloads or the generator change, not per benchmark run.
func regenGolden(base *env) error {
	for _, seed := range goldenSeeds {
		e := *base
		e.seed = seed
		naive := func(w interface {
			goldenDigests(*env, apriori.Backend, bool) (golden, error)
		}, name string) error {
			g, err := w.goldenDigests(&e, apriori.BackendNaive, false)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			fmt.Printf("golden %s seed %d: %d digests\n", name, seed, len(g))
			return saveGolden(base.benchDir, name, seed, g)
		}
		for _, name := range workloadOrder {
			if err := naive(workloads[name](), name); err != nil {
				return err
			}
		}
	}
	return nil
}
