package apriori

import (
	"context"
	"fmt"
	"sort"

	"github.com/tarm-project/tarm/internal/itemset"
)

// Rule is an association rule X ⇒ Y with its measures over the mined
// transaction set.
type Rule struct {
	Antecedent itemset.Set // X
	Consequent itemset.Set // Y, disjoint from X
	Count      int         // absolute support count of X ∪ Y
	Support    float64     // Count / N
	Confidence float64     // supp(X ∪ Y) / supp(X)
	Lift       float64     // Confidence / supp(Y); >1 means positive correlation
}

// String renders the rule with item identifiers, e.g.
// "{1, 2} => {5} (supp 0.050, conf 0.90)".
func (r Rule) String() string {
	return fmt.Sprintf("%v => %v (supp %.3f, conf %.2f)", r.Antecedent, r.Consequent, r.Support, r.Confidence)
}

// Key returns an injective map key for the rule (antecedent and
// consequent item encodings separated by a marker that cannot begin an
// item encoding mid-sequence because lengths are fixed).
func (r Rule) Key() string {
	return r.Antecedent.Key() + "=>" + r.Consequent.Key()
}

// Compare orders rules canonically: by antecedent, then consequent.
func (r Rule) Compare(o Rule) int {
	if c := r.Antecedent.Compare(o.Antecedent); c != 0 {
		return c
	}
	return r.Consequent.Compare(o.Consequent)
}

// RuleConfig tunes rule generation.
type RuleConfig struct {
	// MinConfidence in [0,1]; rules below it are dropped.
	MinConfidence float64
	// MaxConsequent bounds |Y|; 0 means single-item consequents only,
	// matching the presentation convention of the paper's companion
	// work; use a negative value for unbounded consequents.
	MaxConsequent int
}

// GenerateRules derives all rules meeting cfg from the frequent
// itemsets. For every frequent itemset f with |f| ≥ 2 it emits the
// splits f = X ∪ Y whose confidence passes the threshold. Results are
// in canonical order.
func GenerateRules(f *Frequent, cfg RuleConfig) ([]Rule, error) {
	if cfg.MinConfidence < 0 || cfg.MinConfidence > 1 {
		return nil, fmt.Errorf("apriori: MinConfidence %v outside [0,1]", cfg.MinConfidence)
	}
	maxCons := cfg.MaxConsequent
	if maxCons == 0 {
		maxCons = 1
	}
	var rules []Rule
	for k := 2; k < len(f.ByK); k++ {
		for _, ic := range f.ByK[k] {
			rules = appendRulesFor(rules, f, ic, maxCons, cfg.MinConfidence)
		}
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].Compare(rules[j]) < 0 })
	return rules, nil
}

// appendRulesFor enumerates consequents of ic.Set up to size maxCons
// (negative: up to |f|-1). It uses the ap-genrules observation to cut
// the lattice walk: if consequent Y fails the confidence test then
// every superset Y' ⊃ Y fails too, because f\Y' ⊆ f\Y implies
// supp(f\Y') ≥ supp(f\Y) and hence conf(f\Y' ⇒ Y') ≤ conf(f\Y ⇒ Y).
func appendRulesFor(rules []Rule, f *Frequent, ic ItemsetCount, maxCons int, minConf float64) []Rule {
	full := ic.Set
	limit := maxCons
	if limit < 0 || limit > full.Len()-1 {
		limit = full.Len() - 1
	}

	// Level-wise over consequent size, seeded with single items.
	var current []itemset.Set
	for _, x := range full {
		current = append(current, itemset.Set{x})
	}
	for size := 1; size <= limit && len(current) > 0; size++ {
		var surviving []itemset.Set
		for _, cons := range current {
			ante := full.Without(cons)
			anteCount := f.Support(ante)
			if anteCount == 0 {
				continue // cannot happen for frequent f, defensive
			}
			conf := float64(ic.Count) / float64(anteCount)
			if conf+1e-12 < minConf {
				continue
			}
			surviving = append(surviving, cons)
			consFrac := f.SupportFrac(cons)
			lift := 0.0
			if consFrac > 0 {
				lift = conf / consFrac
			}
			rules = append(rules, Rule{
				Antecedent: ante,
				Consequent: cons,
				Count:      ic.Count,
				Support:    float64(ic.Count) / float64(f.N),
				Confidence: conf,
				Lift:       lift,
			})
		}
		if size == limit {
			break
		}
		// Join surviving consequents to the next size, Apriori-style.
		next := joinConsequents(surviving)
		current = next
	}
	return rules
}

// joinConsequents performs the prefix join over surviving consequents.
func joinConsequents(level []itemset.Set) []itemset.Set {
	itemset.SortSets(level)
	var out []itemset.Set
	for i := 0; i < len(level); i++ {
		for j := i + 1; j < len(level); j++ {
			c, ok := level[i].JoinPrefix(level[j])
			if !ok {
				break
			}
			out = append(out, c)
		}
	}
	return out
}

// MineRulesContext is the one-call convenience: frequent itemsets plus
// rules. The level-wise mining passes observe cancellation, and rule
// generation (cheap relative to counting) is entered only if the
// context is still live.
func MineRulesContext(ctx context.Context, src Source, cfg Config, rcfg RuleConfig) (*Frequent, []Rule, error) {
	f, err := MineContext(ctx, src, cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	rules, err := GenerateRules(f, rcfg)
	if err != nil {
		return nil, nil, err
	}
	return f, rules, nil
}
