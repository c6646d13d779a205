package prune

import (
	"context"
	"math"
	"testing"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/itemset"
)

func rule(ante, cons itemset.Set, supp, conf, lift float64) apriori.Rule {
	return apriori.Rule{
		Antecedent: ante, Consequent: cons,
		Support: supp, Confidence: conf, Lift: lift,
	}
}

func TestFilterLift(t *testing.T) {
	rules := []apriori.Rule{
		rule(itemset.New(1), itemset.New(2), 0.10, 0.8, 2.0),
		rule(itemset.New(3), itemset.New(4), 0.10, 0.8, 0.9), // uncorrelated
	}
	out, stats, err := Filter(rules, Options{MinLift: 1.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || !out[0].Antecedent.Equal(itemset.New(1)) {
		t.Errorf("survivors = %v", out)
	}
	if stats.DropLift != 1 || stats.Kept != 1 || stats.In != 2 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestFilterImprovement(t *testing.T) {
	// {1,2}⇒{9} adds nothing over {1}⇒{9}; {3,4}⇒{9} beats {3}⇒{9}.
	rules := []apriori.Rule{
		rule(itemset.New(1), itemset.New(9), 0.2, 0.80, 1.5),
		rule(itemset.New(1, 2), itemset.New(9), 0.1, 0.81, 1.5),
		rule(itemset.New(3), itemset.New(9), 0.2, 0.50, 1.5),
		rule(itemset.New(3, 4), itemset.New(9), 0.1, 0.90, 1.5),
	}
	out, stats, err := Filter(rules, Options{MinImprovement: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DropImprove != 1 {
		t.Errorf("stats = %+v", stats)
	}
	for _, r := range out {
		if r.Antecedent.Equal(itemset.New(1, 2)) {
			t.Error("redundant rule survived")
		}
	}
	// The improving specialization survives.
	found := false
	for _, r := range out {
		if r.Antecedent.Equal(itemset.New(3, 4)) {
			found = true
		}
	}
	if !found {
		t.Error("genuinely better specialization dropped")
	}
}

func TestFilterSignificance(t *testing.T) {
	n := 10000
	// Strong rule: X and Y each 10%, joint 5% (expected 1% if indep).
	strong := rule(itemset.New(1), itemset.New(2), 0.05, 0.5, 5.0)
	// Chance rule: X 50%, Y 40%, joint 20% — exactly independent.
	chance := rule(itemset.New(3), itemset.New(4), 0.20, 0.4, 1.0)
	out, stats, err := Filter([]apriori.Rule{strong, chance}, Options{MaxPValue: 0.01, N: n})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || !out[0].Antecedent.Equal(itemset.New(1)) {
		t.Errorf("survivors = %v (stats %+v)", out, stats)
	}
	if stats.DropSig != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestFilterValidation(t *testing.T) {
	if _, _, err := Filter(nil, Options{MaxPValue: 0.05}); err == nil {
		t.Error("MaxPValue without N accepted")
	}
	if _, _, err := Filter(nil, Options{MinLift: -1}); err == nil {
		t.Error("negative MinLift accepted")
	}
	out, stats, err := Filter(nil, Options{})
	if err != nil || len(out) != 0 || stats.In != 0 {
		t.Errorf("empty input: %v %+v %v", out, stats, err)
	}
}

func TestIndependencePValue(t *testing.T) {
	// Perfectly independent: p-value should be around 0.5, certainly
	// not small.
	indep := rule(itemset.New(1), itemset.New(2), 0.20, 0.4, 1.0)
	if p := IndependencePValue(indep, 10000); p < 0.1 {
		t.Errorf("independent rule p = %v", p)
	}
	// Strongly dependent: tiny p-value.
	dep := rule(itemset.New(1), itemset.New(2), 0.05, 0.5, 5.0)
	if p := IndependencePValue(dep, 10000); p > 1e-6 {
		t.Errorf("dependent rule p = %v", p)
	}
	// Degenerate inputs return 1 (uninformative, never significant).
	if p := IndependencePValue(apriori.Rule{}, 100); p != 1 {
		t.Errorf("zero rule p = %v", p)
	}
	if p := IndependencePValue(dep, 0); p != 1 {
		t.Errorf("n=0 p = %v", p)
	}
}

func TestBinomTail(t *testing.T) {
	// P[Bin(10, 0.5) >= 0] = 1; >= 11 = 0.
	if got := binomTail(10, 0, 0.5); got != 1 {
		t.Errorf("k=0: %v", got)
	}
	if got := binomTail(10, 11, 0.5); got != 0 {
		t.Errorf("k>n: %v", got)
	}
	// P[Bin(10, 0.5) >= 5] = 0.623046875 exactly.
	if got := binomTail(10, 5, 0.5); math.Abs(got-0.623046875) > 1e-12 {
		t.Errorf("exact tail = %v", got)
	}
	// Exact and approximate regimes agree reasonably at z ≈ 2:
	// n=10000 (exact path): sd 50, k = 5000 + 2·50 = 5100;
	// n=20001 (normal path): sd ≈ 70.71, k = 10000.5 + 2·70.71 ≈ 10142.
	exact := binomTail(10000, 5100, 0.5)
	approx := binomTail(20001, 10142, 0.5)
	if exact < 0.01 || exact > 0.05 || approx < 0.01 || approx > 0.05 {
		t.Errorf("tails around z≈2: exact=%v approx=%v", exact, approx)
	}
}

func TestSortByLift(t *testing.T) {
	rules := []apriori.Rule{
		rule(itemset.New(1), itemset.New(2), 0.1, 0.5, 1.2),
		rule(itemset.New(3), itemset.New(4), 0.1, 0.5, 3.0),
		rule(itemset.New(2), itemset.New(3), 0.1, 0.5, 3.0),
	}
	SortByLift(rules)
	if rules[0].Lift != 3.0 || rules[2].Lift != 1.2 {
		t.Errorf("order = %v", rules)
	}
	// Ties break canonically: {2}⇒{3} before {3}⇒{4}.
	if !rules[0].Antecedent.Equal(itemset.New(2)) {
		t.Errorf("tie break = %v", rules[0])
	}
}

func TestFilterEndToEnd(t *testing.T) {
	// Mine a small dataset and prune: the pipeline a user would run.
	txs := apriori.Transactions{}
	for i := 0; i < 50; i++ {
		items := []itemset.Item{1, 2}
		if i%2 == 0 {
			items = append(items, 3)
		}
		if i%10 == 0 {
			items = append(items, 4)
		}
		txs = append(txs, itemset.New(items...))
	}
	_, rules, err := apriori.MineRulesContext(context.Background(), txs,
		apriori.Config{MinSupport: 0.05},
		apriori.RuleConfig{MinConfidence: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := Filter(rules, Options{MinLift: 1.05, MinImprovement: 0.02, MaxPValue: 0.05, N: len(txs)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Kept != len(out) || stats.In != len(rules) {
		t.Errorf("stats inconsistent: %+v, out=%d", stats, len(out))
	}
	if stats.Kept >= stats.In {
		t.Errorf("nothing pruned from %d rules (kept %d)", stats.In, stats.Kept)
	}
}
