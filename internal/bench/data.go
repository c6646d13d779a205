package bench

import (
	"fmt"
	"time"

	"github.com/tarm-project/tarm/internal/gen"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// Planted item identifiers live above the Quest universe so background
// noise cannot touch them and ground-truth scoring is unambiguous.
const plantedBase itemset.Item = 10_000

// start of the standard synthetic year.
var year0 = time.Date(1998, 1, 1, 0, 0, 0, 0, time.UTC)

// GroundTruth describes one planted temporal rule for scoring.
type GroundTruth struct {
	Name    string
	Items   itemset.Set
	Pattern timegran.Pattern
	Kind    string // "interval", "cycle", "calendar"
}

// StandardConfig parametrises the shared experiment dataset: one year
// of daily data with four planted temporal rules — a summer rule, a
// weekend rule, a weekly cycle and a promotion interval — on top of a
// Quest background.
type StandardConfig struct {
	// TxPerDay is the mean number of transactions per day; 100 gives
	// the ~36K-transaction dataset most experiments use.
	TxPerDay int
	// AvgTxLen is the Quest |T| parameter (default 10).
	AvgTxLen float64
	// Days is the span length (default 364, i.e. 52 whole weeks).
	Days int
	// Seed fixes the draw.
	Seed int64
}

func (c StandardConfig) normalise() StandardConfig {
	if c.TxPerDay == 0 {
		c.TxPerDay = 100
	}
	if c.AvgTxLen == 0 {
		c.AvgTxLen = 10
	}
	if c.Days == 0 {
		c.Days = 364
	}
	if c.Seed == 0 {
		c.Seed = 1998
	}
	return c
}

// StandardDataset builds the dataset and returns it with its ground
// truth.
func StandardDataset(c StandardConfig) (*tdb.TxTable, []GroundTruth, error) {
	c = c.normalise()
	summer, err := timegran.NewCalendar(timegran.FieldMonth, timegran.FieldRange{Lo: 6, Hi: 8})
	if err != nil {
		return nil, nil, err
	}
	weekend, err := timegran.NewCalendar(timegran.FieldWeekday, timegran.FieldRange{Lo: 6, Hi: 7})
	if err != nil {
		return nil, nil, err
	}
	g0 := timegran.GranuleOf(year0, timegran.Day)
	weekly, err := timegran.NewCycle(7, g0+3)
	if err != nil {
		return nil, nil, err
	}
	promo, err := timegran.NewWindow(
		time.Date(1998, 3, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1998, 4, 15, 0, 0, 0, 0, time.UTC),
	)
	if err != nil {
		return nil, nil, err
	}
	truth := []GroundTruth{
		{Name: "summer", Items: itemset.New(plantedBase, plantedBase+1), Pattern: summer, Kind: "calendar"},
		{Name: "weekend", Items: itemset.New(plantedBase+2, plantedBase+3), Pattern: weekend, Kind: "calendar"},
		{Name: "weekly", Items: itemset.New(plantedBase+4, plantedBase+5), Pattern: weekly, Kind: "cycle"},
		{Name: "promo", Items: itemset.New(plantedBase+6, plantedBase+7), Pattern: promo, Kind: "interval"},
	}
	cfg := gen.TemporalConfig{
		Quest:        gen.QuestConfig{NItems: 1000, NPatterns: 200, AvgTxLen: c.AvgTxLen, AvgPatLen: 4},
		Start:        year0,
		Granularity:  timegran.Day,
		NGranules:    c.Days,
		TxPerGranule: c.TxPerDay,
		Rules: []gen.PlantedRule{
			{Name: "summer", Items: truth[0].Items, Pattern: summer, PInside: 0.25, POutside: 0.005},
			{Name: "weekend", Items: truth[1].Items, Pattern: weekend, PInside: 0.30, POutside: 0.005},
			{Name: "weekly", Items: truth[2].Items, Pattern: weekly, PInside: 0.35, POutside: 0.005},
			{Name: "promo", Items: truth[3].Items, Pattern: promo, PInside: 0.40, POutside: 0.005},
		},
	}
	tbl, err := gen.GenerateTemporal(cfg, c.Seed)
	if err != nil {
		return nil, nil, err
	}
	return tbl, truth, nil
}

// MatchesRule reports whether a mined (ante, cons) pair is the planted
// rule in either direction (a planted pair {a,b} may surface as a⇒b or
// b⇒a).
func (g GroundTruth) MatchesRule(ante, cons itemset.Set) bool {
	return ante.Union(cons).Equal(g.Items)
}

// describe renders a dataset label like "T10.D36400".
func describe(c StandardConfig) string {
	c = c.normalise()
	return fmt.Sprintf("T%.0f.D%d (%d days × %d tx/day)", c.AvgTxLen, c.TxPerDay*c.Days, c.Days, c.TxPerDay)
}
