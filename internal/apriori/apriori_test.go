package apriori

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/tarm-project/tarm/internal/itemset"
)

// groceries is the textbook example: bread(0), butter(1), milk(2),
// beer(3), diapers(4).
func groceries() Transactions {
	return Transactions{
		itemset.New(0, 1, 2),
		itemset.New(0, 1, 2),
		itemset.New(0, 1),
		itemset.New(0, 1, 2, 3),
		itemset.New(3, 4),
		itemset.New(3, 4),
		itemset.New(2, 3, 4),
		itemset.New(0, 2),
		itemset.New(1, 2),
		itemset.New(0, 1, 2),
	}
}

func TestMineGroceries(t *testing.T) {
	f, err := Mine(groceries(), Config{MinSupport: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if f.N != 10 || f.MinCount != 3 {
		t.Fatalf("N=%d MinCount=%d, want 10,3", f.N, f.MinCount)
	}
	// Hand-computed supports.
	want := map[string]int{
		itemset.New(0).Key():       6,
		itemset.New(1).Key():       6,
		itemset.New(2).Key():       7,
		itemset.New(3).Key():       4,
		itemset.New(4).Key():       3,
		itemset.New(0, 1).Key():    5,
		itemset.New(0, 2).Key():    5,
		itemset.New(1, 2).Key():    5,
		itemset.New(0, 1, 2).Key(): 4,
		itemset.New(3, 4).Key():    3,
	}
	got := make(map[string]int)
	for _, ic := range f.All() {
		got[ic.Set.Key()] = ic.Count
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("frequent itemsets mismatch:\n got %d sets\nwant %d sets", len(got), len(want))
		for _, ic := range f.All() {
			t.Logf("  got %v count %d", ic.Set, ic.Count)
		}
	}
	if f.Support(itemset.New(0, 1, 2)) != 4 {
		t.Errorf("Support({0,1,2}) = %d, want 4", f.Support(itemset.New(0, 1, 2)))
	}
	if f.Support(itemset.New(2, 3)) != 0 {
		t.Errorf("infrequent set reported support %d", f.Support(itemset.New(2, 3)))
	}
	if f.SupportFrac(itemset.New(2)) != 0.7 {
		t.Errorf("SupportFrac({2}) = %v, want 0.7", f.SupportFrac(itemset.New(2)))
	}
}

func TestMineMaxK(t *testing.T) {
	f, err := Mine(groceries(), Config{MinSupport: 0.3, MaxK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.ByK) != 2 {
		t.Fatalf("MaxK=1 produced %d levels", len(f.ByK)-1)
	}
}

func TestMineErrors(t *testing.T) {
	if _, err := Mine(Transactions{}, Config{MinSupport: 0.1}); err != ErrEmptySource {
		t.Errorf("empty source: err = %v, want ErrEmptySource", err)
	}
	if _, err := Mine(groceries(), Config{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := Mine(groceries(), Config{MinSupport: 1.5}); err == nil {
		t.Error("MinSupport > 1 accepted")
	}
	// A negative MaxK used to read as "stop after level 1".
	if _, err := Mine(groceries(), Config{MinSupport: 0.3, MaxK: -1}); err == nil {
		t.Error("negative MaxK accepted")
	}
	if _, err := Mine(groceries(), Config{MinSupport: 0.3, Backend: BackendRoaring + 1}); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestMineAutoMatchesNaive holds a full mine on the resolved backend to
// the naive reference.
func TestMineAutoMatchesNaive(t *testing.T) {
	src := randomTransactions(rand.New(rand.NewSource(7)), 400, 40, 12)
	for _, ms := range []float64{0.01, 0.05, 0.1} {
		a, err := Mine(src, Config{MinSupport: ms})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Mine(src, Config{MinSupport: ms, Backend: BackendNaive})
		if err != nil {
			t.Fatal(err)
		}
		if !sameFrequent(a, b) {
			t.Errorf("minsup %v: auto and naive counting disagree", ms)
		}
	}
}

func sameFrequent(a, b *Frequent) bool {
	if a.TotalItemsets() != b.TotalItemsets() {
		return false
	}
	for _, ic := range a.All() {
		if b.Support(ic.Set) != ic.Count {
			return false
		}
	}
	return true
}

func randomTransactions(r *rand.Rand, n, universe, maxLen int) Transactions {
	txs := make(Transactions, n)
	for i := range txs {
		ln := 1 + r.Intn(maxLen)
		items := make([]itemset.Item, ln)
		for j := range items {
			items[j] = itemset.Item(r.Intn(universe))
		}
		txs[i] = itemset.New(items...)
	}
	return txs
}

// TestCountSets pins the one-slice seam on the fixture: counts by
// candidate, a nil vector for a candidate that never occurs, nothing
// for no candidates.
func TestCountSets(t *testing.T) {
	src := groceries()
	cands := []itemset.Set{itemset.New(0, 1), itemset.New(0, 4), itemset.New(3, 4)}
	for _, b := range []Backend{BackendNaive, BackendBitmap, BackendRoaring} {
		counts, err := NewSliceCounter(b, []Source{src}, nil, 0).Count(context.Background(), cands)
		if err != nil {
			t.Fatal(err)
		}
		got := [][]int32{counts.Row(0), counts.Row(1), counts.Row(2)}
		if want := [][]int32{{5}, nil, {3}}; !reflect.DeepEqual(got, want) {
			t.Errorf("%v: Count = %v, want %v", b, got, want)
		}
		if _, err := NewSliceCounter(b, []Source{src}, nil, 0).Count(context.Background(), nil); err != nil {
			t.Errorf("%v: Count(no candidates): %v", b, err)
		}
	}
	ragged := []itemset.Set{itemset.New(0, 1), itemset.New(2)}
	if _, err := NewSliceCounter(BackendBitmap, []Source{src}, nil, 0).Count(context.Background(), ragged); err == nil {
		t.Error("candidates of mixed length accepted")
	}
}

func TestGenerateCandidatesPrune(t *testing.T) {
	// Frequent 2-level: {0,1},{0,2},{1,2},{1,3}. Join gives {0,1,2}
	// (kept: all subsets frequent) and {1,2,3} (pruned: {2,3} missing).
	level := []ItemsetCount{
		{Set: itemset.New(0, 1)},
		{Set: itemset.New(0, 2)},
		{Set: itemset.New(1, 2)},
		{Set: itemset.New(1, 3)},
	}
	got, generated, pruned, _ := GenerateCandidatesCounted(context.Background(), level)
	if len(got) != 1 || !got[0].Equal(itemset.New(0, 1, 2)) {
		t.Errorf("GenerateCandidatesCounted = %v, want [{0,1,2}]", got)
	}
	if generated != 2 || pruned != 1 {
		t.Errorf("generated %d, pruned %d; want 2, 1", generated, pruned)
	}
	if got, _, _, _ := GenerateCandidatesCounted(context.Background(), level[:1]); got != nil {
		t.Error("single itemset produced candidates")
	}
}

func TestGenerateRulesGroceries(t *testing.T) {
	f, err := Mine(groceries(), Config{MinSupport: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := GenerateRules(f, RuleConfig{MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	// Expected single-consequent rules with conf >= 0.8:
	//  {0}=>{1} 5/6, {1}=>{0} 5/6, {1}=>{2} 5/6 are 0.833...
	//  {0,1}=>{2} 4/5 = 0.8, {0,2}=>{1} 4/5, {1,2}=>{0} 4/5
	//  {3}=>{4}? supp({3,4})=3, supp({3})=4 → 0.75 no. {4}=>{3} 3/3 = 1
	//  ({4} has count 3 which meets the ceil(0.3*10)=3 threshold).
	//  {0}=>{2} 5/6, {2}=>{0} 5/7 no, {2}=>{1} 5/7 no.
	wantKeys := map[string]float64{
		ruleKey(itemset.New(4), itemset.New(3)):    1.0,
		ruleKey(itemset.New(0), itemset.New(1)):    5.0 / 6,
		ruleKey(itemset.New(0), itemset.New(2)):    5.0 / 6,
		ruleKey(itemset.New(1), itemset.New(0)):    5.0 / 6,
		ruleKey(itemset.New(1), itemset.New(2)):    5.0 / 6,
		ruleKey(itemset.New(0, 1), itemset.New(2)): 4.0 / 5,
		ruleKey(itemset.New(0, 2), itemset.New(1)): 4.0 / 5,
		ruleKey(itemset.New(1, 2), itemset.New(0)): 4.0 / 5,
	}
	if len(rules) != len(wantKeys) {
		t.Errorf("got %d rules, want %d", len(rules), len(wantKeys))
		for _, r := range rules {
			t.Logf("  %v", r)
		}
	}
	for _, r := range rules {
		conf, ok := wantKeys[r.Key()]
		if !ok {
			t.Errorf("unexpected rule %v", r)
			continue
		}
		if diff := r.Confidence - conf; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("rule %v confidence %v, want %v", r, r.Confidence, conf)
		}
		if r.Lift <= 0 {
			t.Errorf("rule %v has non-positive lift", r)
		}
	}
}

func ruleKey(a, c itemset.Set) string { return Rule{Antecedent: a, Consequent: c}.Key() }

func TestGenerateRulesMultiConsequent(t *testing.T) {
	f, err := Mine(groceries(), Config{MinSupport: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	rules, err := GenerateRules(f, RuleConfig{MinConfidence: 0.5, MaxConsequent: -1})
	if err != nil {
		t.Fatal(err)
	}
	// {0}=>{1,2} has conf 4/6 = 0.667 and must appear with |Y| = 2.
	found := false
	for _, r := range rules {
		if r.Antecedent.Equal(itemset.New(0)) && r.Consequent.Equal(itemset.New(1, 2)) {
			found = true
			if r.Confidence < 0.66 || r.Confidence > 0.67 {
				t.Errorf("{0}=>{1,2} confidence %v", r.Confidence)
			}
		}
	}
	if !found {
		t.Error("multi-item consequent rule {0}=>{1,2} not generated")
	}
}

func TestGenerateRulesErrors(t *testing.T) {
	f, _ := Mine(groceries(), Config{MinSupport: 0.3})
	if _, err := GenerateRules(f, RuleConfig{MinConfidence: 1.5}); err == nil {
		t.Error("MinConfidence > 1 accepted")
	}
}

func TestRulesQuickConfidenceBounds(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 40,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(r.Int63())
		},
	}
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := randomTransactions(r, 120, 15, 8)
		f, err := Mine(src, Config{MinSupport: 0.05})
		if err != nil {
			return false
		}
		rules, err := GenerateRules(f, RuleConfig{MinConfidence: 0.4, MaxConsequent: -1})
		if err != nil {
			return false
		}
		for _, rule := range rules {
			if rule.Confidence < 0.4-1e-9 || rule.Confidence > 1+1e-9 {
				return false
			}
			if rule.Support <= 0 || rule.Support > 1 {
				return false
			}
			if rule.Antecedent.Intersect(rule.Consequent).Len() != 0 {
				return false
			}
			// Verify confidence against brute-force counting.
			union := rule.Antecedent.Union(rule.Consequent)
			nu, na := 0, 0
			src.ForEach(func(tx itemset.Set) {
				if tx.ContainsAll(union) {
					nu++
				}
				if tx.ContainsAll(rule.Antecedent) {
					na++
				}
			})
			if nu != rule.Count {
				return false
			}
			if got := float64(nu) / float64(na); got-rule.Confidence > 1e-9 || rule.Confidence-got > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Error(err)
	}
}

func TestFuncSource(t *testing.T) {
	txs := groceries()
	fs := FuncSource{N: txs.Len(), Scan: func(fn func(itemset.Set)) {
		for _, tx := range txs {
			fn(tx)
		}
	}}
	f1, err := Mine(fs, Config{MinSupport: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := Mine(txs, Config{MinSupport: 0.3})
	if !sameFrequent(f1, f2) {
		t.Error("FuncSource and Transactions disagree")
	}
}
