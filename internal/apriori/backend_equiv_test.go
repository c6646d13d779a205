package apriori_test

// The cross-backend equivalence property test lives in an external
// test package: it draws its workloads from internal/gen, which
// depends on apriori through the transaction database.

import (
	"fmt"
	"testing"

	. "github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/gen"
)

// questSource draws a deterministic Quest workload for property tests.
func questSource(t testing.TB, n int, seed int64) Transactions {
	t.Helper()
	q, err := gen.NewQuest(gen.QuestConfig{NItems: 200, NPatterns: 50}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return Transactions(q.Transactions(n))
}

// sameFrequent asserts two mining results agree exactly: same levels,
// same sets, same counts.
func sameFrequent(t *testing.T, label string, want, got *Frequent) {
	t.Helper()
	if got.N != want.N || got.MinCount != want.MinCount {
		t.Fatalf("%s: N/MinCount = %d/%d, want %d/%d", label, got.N, got.MinCount, want.N, want.MinCount)
	}
	if len(got.ByK) != len(want.ByK) {
		t.Fatalf("%s: %d levels, want %d", label, len(got.ByK)-1, len(want.ByK)-1)
	}
	for k := 1; k < len(want.ByK); k++ {
		if len(got.ByK[k]) != len(want.ByK[k]) {
			t.Fatalf("%s: level %d has %d itemsets, want %d", label, k, len(got.ByK[k]), len(want.ByK[k]))
		}
		for i, w := range want.ByK[k] {
			g := got.ByK[k][i]
			if !g.Set.Equal(w.Set) || g.Count != w.Count {
				t.Fatalf("%s: level %d item %d = %v(%d), want %v(%d)", label, k, i, g.Set, g.Count, w.Set, w.Count)
			}
		}
	}
}

// sparseIDs moves the upper half of a Quest source's 200 items to the
// top of the uint32 id space, keeping their order: ids no table indexed
// by id can follow, which the level-1 scan and the vertical indexes must
// then rank through a map.
func sparseIDs(src Transactions) Transactions {
	out := make(Transactions, len(src))
	for i, tx := range src {
		moved := tx.Clone()
		for j, x := range moved {
			if x >= 100 {
				moved[j] = x + 4_000_000_000
			}
		}
		out[i] = moved
	}
	return out
}

// TestBackendEquivalence is the cross-backend property test: on random
// generated data every backend must produce the identical Frequent
// result across a grid of supports and MaxK, including the bitmap
// backend under a parallel worker pool. Seed 3 runs with sparse ids.
func TestBackendEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		src := questSource(t, 1200, seed)
		if seed == 3 {
			src = sparseIDs(src)
		}
		for _, minsup := range []float64{0.05, 0.02, 0.01} {
			for _, maxK := range []int{0, 2, 3} {
				base := Config{MinSupport: minsup, MaxK: maxK}
				cfgN := base
				cfgN.Backend = BackendNaive
				want, err := Mine(src, cfgN)
				if err != nil {
					t.Fatal(err)
				}
				variants := []Config{}
				for _, b := range []Backend{BackendAuto, BackendBitmap, BackendRoaring} {
					c := base
					c.Backend = b
					variants = append(variants, c)
				}
				for _, b := range []Backend{BackendBitmap, BackendRoaring} {
					par := base
					par.Backend = b
					par.Workers = 4
					variants = append(variants, par)
				}
				for _, cfg := range variants {
					got, err := Mine(src, cfg)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("seed=%d minsup=%g maxK=%d backend=%v workers=%d",
						seed, minsup, maxK, cfg.Backend, cfg.Workers)
					sameFrequent(t, label, want, got)
				}
			}
		}
	}
}
