package core

import (
	"context"
	"fmt"
	"sort"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// This file implements the "special search techniques" for periodicity
// discovery as an ablation pair over *itemset* cycles (an itemset's
// hold sequence is its per-granule frequency):
//
//   - MineItemsetCyclesSequential counts every candidate in every
//     granule (the straightforward approach) and then detects cycles.
//   - MineItemsetCyclesInterleaved interleaves cycle detection with
//     counting, applying cycle-pruning (a candidate inherits the
//     intersection of its subsets' cycles), cycle-skipping (a candidate
//     is not counted in a granule that none of its live cycles occupy)
//     and cycle-elimination (a miss kills every cycle through that
//     granule).
//
// Both return identical results for exact cycles; the interleaved
// miner does strictly less counting work, which Experiment E7
// quantifies through the Stats it reports.

// ItemsetCycles pairs an itemset with the exact cycles of its
// per-granule frequency sequence (redundant multiples removed).
type ItemsetCycles struct {
	Set    itemset.Set
	Cycles []timegran.Cycle
}

// CycleMinerStats quantifies the counting work a cycle miner did at
// levels k ≥ 2. Level 1 is excluded: both miners make the same single
// pass that tallies every item per granule, so including it would only
// blur the comparison the ablation is about.
type CycleMinerStats struct {
	// CandidateGranulePairs is the number of (candidate, granule)
	// support counts computed — the unit of work cycle-skipping saves.
	CandidateGranulePairs int64
	// GranulesScanned is the number of granule scans performed (a
	// granule all of whose candidates are skipped is never scanned).
	GranulesScanned int64
	// Candidates is the total number of candidates generated across
	// levels — cycle-pruning reduces it.
	Candidates int64
}

// cycKey packs a cycle for set membership.
type cycKey struct{ l, o int64 }

// MineItemsetCyclesSequential is the baseline: a full HoldTable build
// followed by cycle detection on every granule-frequent itemset.
func MineItemsetCyclesSequential(tbl *tdb.TxTable, cfg Config, ccfg CycleConfig) ([]ItemsetCycles, CycleMinerStats, error) {
	cfg, err := cfg.normalise()
	if err != nil {
		return nil, CycleMinerStats{}, err
	}
	ccfg, err = ccfg.normalise()
	if err != nil {
		return nil, CycleMinerStats{}, err
	}
	h, err := BuildHoldTableContext(context.Background(), tbl, cfg)
	if err != nil {
		return nil, CycleMinerStats{}, err
	}
	stats := CycleMinerStats{}
	// The sequential miner counts every level's candidates in every
	// active granule; reconstruct that work measure for levels k ≥ 2.
	for k := 2; k < len(h.ByK); k++ {
		cands, _, _, _ := generateFromSets(context.TODO(), h.ByK[k-1]) // never done: no error
		nCands := int64(len(cands))
		stats.Candidates += nCands
		stats.CandidateGranulePairs += nCands * int64(h.NActive)
		stats.GranulesScanned += int64(h.NActive)
	}

	var out []ItemsetCycles
	classes := cycleClasses(h.Active, h.NGranules(), h.Span.Lo, ccfg.MaxLen, ccfg.MinReps, 1)
	for k := 1; k < len(h.ByK); k++ {
		for i, s := range h.ByK[k] {
			// An itemset's hold sequence is its frequency words.
			cycles := FilterRedundantCycles(detectCycles(h.levelFreq(k, i), classes))
			if len(cycles) > 0 {
				out = append(out, ItemsetCycles{Set: s, Cycles: cycles})
			}
		}
	}
	sortItemsetCycles(out)
	return out, stats, nil
}

// liveCand tracks one candidate during the interleaved pass.
type liveCand struct {
	set    itemset.Set
	cycles map[cycKey]struct{}
	// raw keeps every cycle that survived, for output filtering and
	// for the next level's pruning intersection.
}

// MineItemsetCyclesInterleaved is the optimized miner. Level 1 counts
// items directly (nothing to skip: every cycle is still alive); each
// subsequent level seeds candidate cycle sets by intersecting the
// parents' surviving cycles, skips granules no live cycle occupies, and
// eliminates cycles on every miss.
func MineItemsetCyclesInterleaved(tbl *tdb.TxTable, cfg Config, ccfg CycleConfig) ([]ItemsetCycles, CycleMinerStats, error) {
	cfg, err := cfg.normalise()
	if err != nil {
		return nil, CycleMinerStats{}, err
	}
	ccfg, err = ccfg.normalise()
	if err != nil {
		return nil, CycleMinerStats{}, err
	}
	view, ok := tbl.Granules(cfg.Granularity)
	if !ok {
		return nil, CycleMinerStats{}, fmt.Errorf("core: transaction table %q is empty", tbl.Name())
	}
	span := view.Span
	head, err := newHoldTable(view, cfg)
	if err != nil {
		return nil, CycleMinerStats{}, err
	}
	n, active, minCounts := head.NGranules(), head.Active, head.MinCounts
	stats := CycleMinerStats{}

	// Level 1: count every item per active granule, the build's level-1
	// scan over the granules of the reading the header came from.
	items, c1 := apriori.CountLevel1(context.Background(), head.slices(view), cfg.Workers)
	thr := head.thresholds()
	hold := make([]uint64, len(active))
	classes := cycleClasses(active, n, span.Lo, ccfg.MaxLen, ccfg.MinReps, 1)
	var prev []*liveCand
	for r, v := range c1 {
		frequentGranules(hold, v, thr)
		cycles := detectCycles(hold, classes)
		if len(cycles) == 0 {
			continue
		}
		lc := &liveCand{set: itemset.Set{items[r]}, cycles: make(map[cycKey]struct{}, len(cycles))}
		for _, c := range cycles {
			lc.cycles[cycKey{c.Length, c.Offset}] = struct{}{}
		}
		prev = append(prev, lc)
	}
	sort.Slice(prev, func(i, j int) bool { return prev[i].set.Compare(prev[j].set) < 0 })

	var out []ItemsetCycles
	emit := func(cands []*liveCand) {
		for _, lc := range cands {
			if len(lc.cycles) == 0 {
				continue
			}
			cs := make([]timegran.Cycle, 0, len(lc.cycles))
			for k := range lc.cycles {
				cs = append(cs, timegran.Cycle{Length: k.l, Offset: k.o})
			}
			cs = FilterRedundantCycles(cs)
			out = append(out, ItemsetCycles{Set: lc.set, Cycles: cs})
		}
	}
	emit(prev)

	for k := 2; len(prev) > 1 && (cfg.MaxK == 0 || k <= cfg.MaxK); k++ {
		cands := interleavedCandidates(prev)
		if len(cands) == 0 {
			break
		}
		stats.Candidates += int64(len(cands))
		// keep names the level's items, the ingest filter of the vertical
		// indexes: without it every granule would pay a level-1 scan to
		// rank its items.
		keep := new(itemset.Ranks)
		for _, lc := range cands {
			for _, x := range lc.set {
				keep.Add(x)
			}
		}

		// Index live candidates by the granules their cycles occupy.
		// byGranule[gi] lists candidates that must be counted at gi.
		byGranule := make([][]int32, n)
		for ci, lc := range cands {
			for gi := 0; gi < n; gi++ {
				if !bitAt(active, gi) {
					continue
				}
				if candOccupies(lc, span.Lo+int64(gi)) {
					byGranule[gi] = append(byGranule[gi], int32(ci))
				}
			}
		}

		for gi := 0; gi < n; gi++ {
			ids := byGranule[gi]
			if len(ids) == 0 {
				continue // cycle-skipping: nothing to learn here
			}
			// Re-check liveness: earlier granules may have eliminated
			// all cycles through gi for some candidates.
			var sets []itemset.Set
			var liveIDs []int32
			for _, ci := range ids {
				if candOccupies(cands[ci], span.Lo+int64(gi)) {
					sets = append(sets, cands[ci].set)
					liveIDs = append(liveIDs, ci)
				}
			}
			if len(sets) == 0 {
				continue
			}
			stats.GranulesScanned++
			stats.CandidateGranulePairs += int64(len(sets))
			// One granule, these candidates: the counting seam's smallest case.
			granule := []apriori.Source{view.Source(gi)}
			counts, err := apriori.NewSliceCounter(cfg.Backend, granule, keep, 0).Count(context.Background(), sets)
			if err != nil {
				return nil, CycleMinerStats{}, err
			}
			for i, ci := range liveIDs {
				if v := counts.Row(i); v == nil || int(v[0]) < minCounts[gi] {
					eliminateAt(cands[ci], span.Lo+int64(gi)) // cycle-elimination
				}
			}
		}

		var next []*liveCand
		for _, lc := range cands {
			if len(lc.cycles) > 0 {
				next = append(next, lc)
			}
		}
		emit(next)
		prev = next
	}
	sortItemsetCycles(out)
	return out, stats, nil
}

// interleavedCandidates joins the surviving level and seeds each
// candidate's cycles with the intersection of every (k-1)-subset's
// surviving cycles (cycle-pruning). Candidates with an empty
// intersection, or with a subset that has no cycles at all, are
// dropped before any counting.
func interleavedCandidates(prev []*liveCand) []*liveCand {
	bySet := make(map[string]*liveCand, len(prev))
	for _, lc := range prev {
		bySet[lc.set.Key()] = lc
	}
	var out []*liveCand
	for i := 0; i < len(prev); i++ {
		for j := i + 1; j < len(prev); j++ {
			candSet, ok := prev[i].set.JoinPrefix(prev[j].set)
			if !ok {
				break // sorted level: prefix diverged
			}
			// Intersect cycle sets over all (k-1)-subsets.
			inter := intersectCycles(prev[i].cycles, prev[j].cycles)
			if len(inter) == 0 {
				continue
			}
			viable := true
			candSet.EachSubsetK1(func(sub itemset.Set) bool {
				parent, ok := bySet[sub.Key()]
				if !ok {
					viable = false
					return false
				}
				inter = intersectCycles(inter, parent.cycles)
				if len(inter) == 0 {
					viable = false
					return false
				}
				return true
			})
			if !viable {
				continue
			}
			out = append(out, &liveCand{set: candSet, cycles: inter})
		}
	}
	return out
}

func intersectCycles(a, b map[cycKey]struct{}) map[cycKey]struct{} {
	if len(b) < len(a) {
		a, b = b, a
	}
	out := make(map[cycKey]struct{}, len(a))
	for k := range a {
		if _, ok := b[k]; ok {
			out[k] = struct{}{}
		}
	}
	return out
}

// candOccupies reports whether any live cycle of lc has an occurrence
// at absolute granule g.
func candOccupies(lc *liveCand, g int64) bool {
	for k := range lc.cycles {
		m := g % k.l
		if m < 0 {
			m += k.l
		}
		if m == k.o {
			return true
		}
	}
	return false
}

// eliminateAt removes every cycle of lc with an occurrence at g.
func eliminateAt(lc *liveCand, g int64) {
	for k := range lc.cycles {
		m := g % k.l
		if m < 0 {
			m += k.l
		}
		if m == k.o {
			delete(lc.cycles, k)
		}
	}
}

func sortItemsetCycles(out []ItemsetCycles) {
	sort.Slice(out, func(i, j int) bool { return out[i].Set.Compare(out[j].Set) < 0 })
}
