package apriori

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/tarm-project/tarm/internal/itemset"
)

// generateWithMapPrune is the join+prune as it was before the prune
// learnt to skip the join parents: a string-keyed map of the level,
// probed with every (k-1)-subset of every joined candidate. It is the
// oracle of TestGenerateCandidatesMatchesMapPrune.
func generateWithMapPrune(level []ItemsetCount) (out []itemset.Set, generated, pruned int) {
	if len(level) < 2 {
		return nil, 0, 0
	}
	freq := make(map[string]bool, len(level))
	for _, ic := range level {
		freq[ic.Set.Key()] = true
	}
	keyBuf := make([]byte, 0, 4*(len(level[0].Set)+1))
	for i := 0; i < len(level); i++ {
		for j := i + 1; j < len(level); j++ {
			cand, ok := level[i].Set.JoinPrefix(level[j].Set)
			if !ok {
				break
			}
			generated++
			isPruned := false
			cand.EachSubsetK1(func(sub itemset.Set) bool {
				if !freq[string(sub.AppendKey(keyBuf[:0]))] {
					isPruned = true
					return false
				}
				return true
			})
			if isPruned {
				pruned++
				continue
			}
			out = append(out, cand)
		}
	}
	return out, generated, pruned
}

// TestGenerateCandidatesMatchesMapPrune holds the join+prune to the
// map-probing oracle on random sorted levels of k = 1..5 over small
// universes, dense enough that joins are common and that at k ≥ 2 some
// joined candidates lose a subset and some keep all of them. Generated,
// pruned and emitted candidates must be identical.
func TestGenerateCandidatesMatchesMapPrune(t *testing.T) {
	var kept, pruned [6]int
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(5)
		universe := k + 1 + rng.Intn(9)
		sets := randomCandidates(rng, 1+rng.Intn(120), k, universe)
		level := make([]ItemsetCount, len(sets))
		for i, s := range sets {
			level[i] = ItemsetCount{Set: s, Count: 1 + rng.Intn(9)}
		}
		got, gGen, gPruned, err := GenerateCandidatesCounted(context.Background(), level)
		if err != nil {
			t.Fatal(err)
		}
		want, wGen, wPruned := generateWithMapPrune(level)
		label := fmt.Sprintf("seed=%d k=%d |level|=%d", seed, k, len(level))
		if gGen != wGen || gPruned != wPruned || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: got %d generated, %d pruned, %v; oracle %d, %d, %v", label, gGen, gPruned, got, wGen, wPruned, want)
		}
		kept[k] += len(got)
		pruned[k] += gPruned
	}
	for k := 2; k <= 5; k++ {
		if kept[k] == 0 || pruned[k] == 0 {
			t.Errorf("k=%d levels kept %d and pruned %d candidates: the prune went untested", k, kept[k], pruned[k])
		}
	}
	if pruned[1] != 0 {
		t.Errorf("pair candidates pruned %d times: both subsets of a pair are its join parents", pruned[1])
	}
}

// errCountCtx counts its Err calls and, when cancelAt is positive,
// cancels itself on that call — a deterministic cancellation point.
type errCountCtx struct {
	context.Context
	cancel   context.CancelFunc
	calls    int
	cancelAt int
}

func newErrCountCtx(cancelAt int) *errCountCtx {
	ctx, cancel := context.WithCancel(context.Background())
	return &errCountCtx{Context: ctx, cancel: cancel, cancelAt: cancelAt}
}

func (c *errCountCtx) Err() error {
	c.calls++
	if c.calls == c.cancelAt {
		c.cancel()
	}
	return c.Context.Err()
}

// TestGenerateCandidatesChecksContext pins the join's cancellation
// bound: at most joinCheckEvery candidates are joined between two
// context checks, at k = 1 and past it, and a cancelled join returns
// the error and no candidates.
func TestGenerateCandidatesChecksContext(t *testing.T) {
	var singles, pairs []ItemsetCount
	for a := itemset.Item(0); a < 300; a++ {
		singles = append(singles, ItemsetCount{Set: itemset.New(a)})
	}
	for a := itemset.Item(0); a < 40; a++ {
		for b := a + 1; b < 40; b++ {
			pairs = append(pairs, ItemsetCount{Set: itemset.New(a, b)})
		}
	}
	for _, level := range [][]ItemsetCount{singles, pairs} {
		ctx := newErrCountCtx(0)
		_, generated, _, err := GenerateCandidatesCounted(ctx, level)
		if err != nil {
			t.Fatal(err)
		}
		if generated < 4*joinCheckEvery {
			t.Fatalf("k=%d: %d candidates joined; the case needs several blocks", len(level[0].Set), generated)
		}
		if bound := ctx.calls * joinCheckEvery; generated > bound {
			t.Errorf("k=%d: %d candidates joined with %d context checks, want ≤ %d per check",
				len(level[0].Set), generated, ctx.calls, joinCheckEvery)
		}
		out, _, _, err := GenerateCandidatesCounted(newErrCountCtx(2), level)
		if !errors.Is(err, context.Canceled) || out != nil {
			t.Errorf("k=%d: cancelled join returned %d candidates, err = %v; want none and context.Canceled",
				len(level[0].Set), len(out), err)
		}
	}
}
