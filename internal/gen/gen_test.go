package gen

import (
	"math"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

func TestQuestConfigValidation(t *testing.T) {
	bad := []QuestConfig{
		{NItems: 1},
		{NPatterns: -1},
		{AvgTxLen: 0.5},
		{AvgPatLen: 0.5},
		{Corr: 1.5},
		{Corrupt: 1},
	}
	for i, cfg := range bad {
		if _, err := NewQuest(cfg, 1); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewQuest(QuestConfig{}, 1); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestQuestDeterministicAndCanonical(t *testing.T) {
	cfg := QuestConfig{NItems: 100, NPatterns: 30, AvgTxLen: 8, AvgPatLen: 3}
	a, _ := NewQuest(cfg, 42)
	b, _ := NewQuest(cfg, 42)
	for i := 0; i < 200; i++ {
		ta, tb := a.Transaction(), b.Transaction()
		if !ta.Equal(tb) {
			t.Fatalf("same seed diverged at transaction %d: %v vs %v", i, ta, tb)
		}
		if !ta.Valid() || ta.Len() == 0 {
			t.Fatalf("invalid transaction %v", ta)
		}
		for _, it := range ta {
			if int(it) >= cfg.NItems {
				t.Fatalf("item %d outside universe", it)
			}
		}
	}
}

func TestQuestAverageLength(t *testing.T) {
	cfg := QuestConfig{NItems: 500, NPatterns: 100, AvgTxLen: 10, AvgPatLen: 4}
	q, _ := NewQuest(cfg, 7)
	total := 0
	const n = 4000
	for i := 0; i < n; i++ {
		total += q.Transaction().Len()
	}
	avg := float64(total) / n
	// The generator's clipping makes the realised mean drift below the
	// nominal |T|; it must still land in a sane band.
	if avg < 5 || avg > 14 {
		t.Errorf("average transaction length = %v, want near 10", avg)
	}
}

func TestQuestTransactionsAndName(t *testing.T) {
	q, _ := NewQuest(QuestConfig{NItems: 50, NPatterns: 10}, 3)
	txs := q.Transactions(25)
	if len(txs) != 25 {
		t.Fatalf("Transactions(25) = %d", len(txs))
	}
	if got := Name(QuestConfig{AvgTxLen: 10, AvgPatLen: 4}, 100000); got != "T10.I4.D100K" {
		t.Errorf("Name = %q", got)
	}
	if got := Name(QuestConfig{AvgTxLen: 5, AvgPatLen: 2}, 1234); got != "T5.I2.D1234" {
		t.Errorf("Name = %q", got)
	}
}

func TestGenerateTemporalValidation(t *testing.T) {
	cal, _ := timegran.NewCalendar(timegran.FieldMonth, timegran.FieldRange{Lo: 6, Hi: 8})
	good := TemporalConfig{
		Granularity:  timegran.Day,
		NGranules:    10,
		TxPerGranule: 5,
		Rules: []PlantedRule{{
			Name: "r", Items: itemset.New(1, 2), Pattern: cal, PInside: 0.9, POutside: 0.01,
		}},
	}
	if _, err := GenerateTemporal(good, 1); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	bad := []TemporalConfig{
		{Granularity: timegran.Granularity(99), NGranules: 10, TxPerGranule: 5},
		{Granularity: timegran.Day, NGranules: 0, TxPerGranule: 5},
		{Granularity: timegran.Day, NGranules: 10, TxPerGranule: 0},
		{Granularity: timegran.Day, NGranules: 10, TxPerGranule: 5,
			Rules: []PlantedRule{{Items: itemset.New(1), Pattern: cal}}},
		{Granularity: timegran.Day, NGranules: 10, TxPerGranule: 5,
			Rules: []PlantedRule{{Items: itemset.New(1, 2)}}},
		{Granularity: timegran.Day, NGranules: 10, TxPerGranule: 5,
			Rules: []PlantedRule{{Items: itemset.New(1, 2), Pattern: cal, PInside: 2}}},
	}
	for i, cfg := range bad {
		if _, err := GenerateTemporal(cfg, 1); err == nil {
			t.Errorf("bad temporal config %d accepted", i)
		}
	}
}

func TestGenerateTemporalPlantsStructure(t *testing.T) {
	// Plant a cycle (7, offset of the first granule + 2) over 70 days
	// and check the injected pair is frequent on matching days and rare
	// elsewhere.
	start := time.Date(1998, 1, 1, 0, 0, 0, 0, time.UTC)
	g0 := timegran.GranuleOf(start, timegran.Day)
	cyc, _ := timegran.NewCycle(7, g0+2)
	pair := itemset.New(900, 901) // outside the 500-item universe: background-free
	cfg := TemporalConfig{
		Quest:        QuestConfig{NItems: 500, NPatterns: 50, AvgTxLen: 6, AvgPatLen: 3},
		Start:        start,
		Granularity:  timegran.Day,
		NGranules:    70,
		TxPerGranule: 30,
		Rules: []PlantedRule{{
			Name: "weekly", Items: pair, Pattern: cyc, PInside: 0.8, POutside: 0.02,
		}},
	}
	tbl, err := GenerateTemporal(cfg, 99)
	if err != nil {
		t.Fatal(err)
	}
	view, ok := tbl.Granules(timegran.Day)
	span := view.Span
	if !ok || span.Len() != 70 {
		t.Fatalf("span = %v, %v", span, ok)
	}
	insideRate, outsideRate := 0.0, 0.0
	nIn, nOut := 0, 0
	for g := span.Lo; g <= span.Hi; g++ {
		src := view.Source(int(g - span.Lo))
		if src.Len() == 0 {
			continue
		}
		cnt := 0
		src.ForEach(func(tx itemset.Set) {
			if tx.ContainsAll(pair) {
				cnt++
			}
		})
		rate := float64(cnt) / float64(src.Len())
		if cyc.Matches(timegran.Day, g) {
			insideRate += rate
			nIn++
		} else {
			outsideRate += rate
			nOut++
		}
	}
	insideRate /= float64(nIn)
	outsideRate /= float64(nOut)
	if insideRate < 0.6 {
		t.Errorf("inside injection rate %v, want ≥ 0.6", insideRate)
	}
	if outsideRate > 0.1 {
		t.Errorf("outside injection rate %v, want ≤ 0.1", outsideRate)
	}
}

func TestGenerateTemporalDeterministic(t *testing.T) {
	cal, _ := timegran.NewCalendar(timegran.FieldWeekday, timegran.FieldRange{Lo: 6, Hi: 7})
	cfg := TemporalConfig{
		Quest:        QuestConfig{NItems: 100, NPatterns: 20},
		Granularity:  timegran.Day,
		NGranules:    14,
		TxPerGranule: 10,
		Rules: []PlantedRule{{
			Name: "wk", Items: itemset.New(300, 301), Pattern: cal, PInside: 0.7, POutside: 0.01,
		}},
	}
	a, err := GenerateTemporal(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := GenerateTemporal(cfg, 5)
	if a.Len() != b.Len() {
		t.Fatalf("same seed produced %d vs %d transactions", a.Len(), b.Len())
	}
	c, _ := GenerateTemporal(cfg, 6)
	if a.Len() == c.Len() {
		// Same length can happen by chance, so compare contents too.
		same := true
		ai, ci := collect(a), collect(c)
		for i := range ai {
			if !ai[i].Equal(ci[i]) {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical datasets")
		}
	}
}

func collect(tbl *tdb.TxTable) []itemset.Set {
	var out []itemset.Set
	tbl.Each(func(tx tdb.Tx) bool {
		out = append(out, tx.Items.Clone())
		return true
	})
	return out
}

// TestPoissonLargeMean: above the exact method's range the draw still
// has the asked mean and spread (Knuth's method against exp(-mean)
// underflows there and returned ≈ 742 for any mean).
func TestPoissonLargeMean(t *testing.T) {
	q, err := NewQuest(QuestConfig{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	const mean, n = 1e4, 4000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := float64(q.poisson(mean))
		sum += x
		sumSq += x * x
	}
	m := sum / n
	sd := math.Sqrt(sumSq/n - m*m)
	// The sample mean's standard error is sqrt(mean/n) ≈ 1.6.
	if math.Abs(m-mean) > 8 {
		t.Errorf("mean of %d draws at %g = %.1f", n, float64(mean), m)
	}
	if want := math.Sqrt(mean); math.Abs(sd-want) > 0.1*want {
		t.Errorf("spread of %d draws at %g = %.1f, want ≈ %.0f", n, float64(mean), sd, want)
	}
}
