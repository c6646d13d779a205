package gen

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// PlantedRule describes a temporal rule embedded into a generated
// dataset: when a transaction's granule matches Pattern, the rule's
// itemset is injected with probability PInside; elsewhere with
// probability POutside. With PInside high and POutside at background
// level, the temporal miners should recover both the itemset and the
// temporal feature — the ground truth the recovery experiments score
// against.
type PlantedRule struct {
	// Name labels the rule in reports.
	Name string
	// Items is the injected itemset (at least 2 items, so a rule
	// Items\{last} ⇒ {last} exists).
	Items itemset.Set
	// Pattern is the temporal feature the rule follows.
	Pattern timegran.Pattern
	// PInside / POutside are the injection probabilities on matching /
	// non-matching granules.
	PInside, POutside float64
}

// TemporalConfig parametrises GenerateTemporal.
type TemporalConfig struct {
	// Quest configures the background basket distribution.
	Quest QuestConfig
	// Start is the timestamp of the first granule.
	Start time.Time
	// Granularity of the time axis.
	Granularity timegran.Granularity
	// NGranules is the number of granules to generate.
	NGranules int
	// TxPerGranule is the mean number of transactions per granule
	// (Poisson; minimum 1 per granule so every granule is active).
	TxPerGranule int
	// Rules are the planted temporal rules.
	Rules []PlantedRule
}

func (c TemporalConfig) normalise() (TemporalConfig, error) {
	if c.Start.IsZero() {
		c.Start = time.Date(1998, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	if !c.Granularity.Valid() {
		return c, fmt.Errorf("gen: invalid granularity %d", int(c.Granularity))
	}
	if c.NGranules < 1 {
		return c, fmt.Errorf("gen: NGranules %d too small", c.NGranules)
	}
	if c.TxPerGranule < 1 {
		return c, fmt.Errorf("gen: TxPerGranule %d too small", c.TxPerGranule)
	}
	for i, r := range c.Rules {
		if r.Items.Len() < 2 {
			return c, fmt.Errorf("gen: planted rule %d (%s) needs ≥ 2 items", i, r.Name)
		}
		if r.Pattern == nil {
			return c, fmt.Errorf("gen: planted rule %d (%s) has no pattern", i, r.Name)
		}
		if r.PInside < 0 || r.PInside > 1 || r.POutside < 0 || r.POutside > 1 {
			return c, fmt.Errorf("gen: planted rule %d (%s) has probabilities outside [0,1]", i, r.Name)
		}
	}
	return c, nil
}

// GenerateTemporal draws a timestamped transaction table: background
// baskets from the Quest generator, with planted rule itemsets injected
// according to their temporal patterns. Transactions are spread
// uniformly inside each granule.
func GenerateTemporal(cfg TemporalConfig, seed int64) (*tdb.TxTable, error) {
	cfg, err := cfg.normalise()
	if err != nil {
		return nil, err
	}
	q, err := NewQuest(cfg.Quest, seed)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed ^ 0x7a2d))
	tbl, err := tdb.NewTxTable("synthetic")
	if err != nil {
		return nil, err
	}
	g0 := timegran.GranuleOf(cfg.Start, cfg.Granularity)
	for gi := 0; gi < cfg.NGranules; gi++ {
		g := g0 + int64(gi)
		start := timegran.Start(g, cfg.Granularity)
		width := timegran.End(g, cfg.Granularity).Sub(start)
		nTx := q.poisson(float64(cfg.TxPerGranule))
		if nTx < 1 {
			nTx = 1
		}
		for i := 0; i < nTx; i++ {
			items := q.Transaction()
			for _, pr := range cfg.Rules {
				p := pr.POutside
				if pr.Pattern.Matches(cfg.Granularity, g) {
					p = pr.PInside
				}
				if r.Float64() < p {
					items = items.Union(pr.Items)
				}
			}
			at := start.Add(time.Duration(r.Int63n(int64(width))))
			tbl.Append(at, items)
		}
	}
	return tbl, nil
}
