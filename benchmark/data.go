package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"github.com/tarm-project/tarm/internal/gen"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// The dataset configuration is owned by this package, not borrowed
// from internal/bench, so a refactor of the paper-experiment suite
// cannot shift the benchmark's workload.
const (
	tableName = "baskets"

	questItems    = 1000
	questPatterns = 200
	questTxLen    = 10
	questPatLen   = 4
	// populationSeed pins what is drawn: the Quest pattern table, the
	// pool of background baskets, which baskets fall on which day, where
	// the planted rules fire, which arrivals are late. --seed then
	// decides what the server actually sees of it — which item is which
	// (a permutation of the item identities), and the order and time of
	// day of each day's baskets. Every seed is thus a different input
	// that costs the same work: the same number of candidates, frequent
	// itemsets and rules at every support, in different places. Drawing
	// a fresh population per seed instead moves a cold build by ±4 % and
	// a cycle-mining pass by ±17 %, more than the bounds gated on.
	populationSeed = 1998
	// poolSize is the number of background baskets drawn from the Quest
	// stream; days are filled by sampling them with replacement.
	poolSize = 1 << 16

	historyDays  = 365
	mineTxPerDay = 300
)

var year0 = time.Date(1998, 1, 1, 0, 0, 0, 0, time.UTC)

// planted is one temporal rule injected on top of the Quest background.
type planted struct {
	names     [2]string
	pattern   timegran.Pattern
	pIn, pOut float64
}

func plantedRules() ([]planted, error) {
	summer, err := timegran.NewCalendar(timegran.FieldMonth, timegran.FieldRange{Lo: 6, Hi: 8})
	if err != nil {
		return nil, err
	}
	weekend, err := timegran.NewCalendar(timegran.FieldWeekday, timegran.FieldRange{Lo: 6, Hi: 7})
	if err != nil {
		return nil, err
	}
	weekly, err := timegran.NewCycle(7, timegran.GranuleOf(year0, timegran.Day)+3)
	if err != nil {
		return nil, err
	}
	promo, err := timegran.NewWindow(
		time.Date(1998, 3, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1998, 4, 15, 0, 0, 0, 0, time.UTC))
	if err != nil {
		return nil, err
	}
	return []planted{
		{[2]string{"summer_a", "summer_b"}, summer, 0.25, 0.005},
		{[2]string{"weekend_a", "weekend_b"}, weekend, 0.30, 0.005},
		{[2]string{"weekly_a", "weekly_b"}, weekly, 0.35, 0.005},
		{[2]string{"promo_a", "promo_b"}, promo, 0.40, 0.005},
	}, nil
}

// basket is one generated transaction, items by name: names are what
// tarmd receives, and interning them in arrival order is what makes
// the server's and the reference's dictionaries agree.
type basket struct {
	At    time.Time `json:"at"`
	Items []string  `json:"items"`
}

// dataset generates days of baskets for one seed.
type dataset struct {
	names     []string // item id → name, planted items after the Quest universe
	pool      []itemset.Set
	rules     []planted
	ruleItems []itemset.Set
	perm      []int      // population item → item id, from the seed
	pop       *rand.Rand // draws the population; fixed
	r         *rand.Rand // draws the presentation; from the seed
}

func newDataset(seed int64) (*dataset, error) {
	q, err := gen.NewQuest(gen.QuestConfig{
		NItems: questItems, NPatterns: questPatterns,
		AvgTxLen: questTxLen, AvgPatLen: questPatLen,
	}, populationSeed)
	if err != nil {
		return nil, err
	}
	rules, err := plantedRules()
	if err != nil {
		return nil, err
	}
	d := &dataset{
		pool:  q.Transactions(poolSize),
		rules: rules,
		pop:   rand.New(rand.NewSource(populationSeed)),
		r:     rand.New(rand.NewSource(seed)),
	}
	d.perm = d.r.Perm(questItems)
	for i := 0; i < questItems; i++ {
		d.names = append(d.names, fmt.Sprintf("item%04d", i))
	}
	for _, pr := range rules {
		base := itemset.Item(len(d.names))
		d.names = append(d.names, pr.names[0], pr.names[1])
		d.ruleItems = append(d.ruleItems, itemset.New(base, base+1))
	}
	return d, nil
}

// day draws day index di (0 = 1998-01-01) with a Poisson(txPerDay)
// number of baskets, sorted by time. Days must be drawn in order: the
// population stream is sequential.
//
// late is the share of the day's baskets that arrive dated 3–10 days
// back: out-of-order arrivals that dirty granules already closed.
func (d *dataset) day(di, txPerDay int, late float64) []basket {
	g := timegran.GranuleOf(year0, timegran.Day) + timegran.Granule(di)
	start := timegran.Start(g, timegran.Day)
	// Normal approximation of Poisson: exact shape is irrelevant, the
	// day-to-day variation of the granule size is what matters.
	n := int(math.Round(float64(txPerDay) + math.Sqrt(float64(txPerDay))*d.pop.NormFloat64()))
	if n < 1 {
		n = 1
	}
	out := make([]basket, n)
	for i := range out {
		items := d.pool[d.pop.Intn(len(d.pool))]
		for ri, pr := range d.rules {
			p := pr.pOut
			if pr.pattern.Matches(timegran.Day, g) {
				p = pr.pIn
			}
			if d.pop.Float64() < p {
				items = items.Union(d.ruleItems[ri])
			}
		}
		names := make([]string, len(items))
		for j, it := range items {
			if int(it) < len(d.perm) {
				it = itemset.Item(d.perm[it])
			}
			names[j] = d.names[it]
		}
		out[i] = basket{
			At:    start.Add(time.Duration(d.r.Intn(24*3600)) * time.Second),
			Items: names,
		}
	}
	for i, n := 0, int(float64(len(out))*late); i < n; i++ {
		out[i].At = out[i].At.AddDate(0, 0, -(3 + d.pop.Intn(8)))
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At.Before(out[j].At) })
	return out
}

// days draws n consecutive days starting at day index from, none late.
func (d *dataset) days(from, n, txPerDay int) [][]basket {
	out := make([][]basket, n)
	for i := range out {
		out[i] = d.day(from+i, txPerDay, 0)
	}
	return out
}

// internAll interns every item name in id order, so every database the
// harness builds — the prepared store, the reference, the probes —
// assigns the ids the generator used.
func (d *dataset) internAll(dict *itemset.Dict) {
	for _, n := range d.names {
		dict.Intern(n)
	}
}

// toTxs resolves a batch of baskets against dict.
func toTxs(dict *itemset.Dict, batch []basket) []tdb.Tx {
	txs := make([]tdb.Tx, len(batch))
	for i, b := range batch {
		txs[i] = tdb.Tx{At: b.At, Items: dict.InternAll(b.Items...)}
	}
	return txs
}

// memTable loads days into a fresh in-memory database, the reference
// and probe twin of the store tarmd serves. preIntern mirrors a
// prepared store (ids in generator order); without it ids follow
// arrival order, as in a table tarmd built from imports and appends.
func (d *dataset) memTable(days [][]basket, preIntern bool) (*tdb.DB, *tdb.TxTable, error) {
	db := tdb.NewMemDB()
	if preIntern {
		d.internAll(db.Dict())
	}
	tbl, err := db.CreateTxTable(tableName)
	if err != nil {
		return nil, nil, err
	}
	for _, day := range days {
		tbl.AppendBatch(toTxs(db.Dict(), day))
	}
	return db, tbl, nil
}

// prepareStore writes days into dir with the durable engine the way a
// long-running tarmd would have left it: a checkpoint holding the
// first three quarters, the last quarter as WAL tail, then a crash.
// Every tarmd start on it therefore pays a real recovery.
func (d *dataset) prepareStore(dir string, days [][]basket) (txs int, err error) {
	// Fsync off: the bytes written are the same, and nothing here
	// outlives the run.
	db, err := tdb.OpenDurable(dir, tdb.Durability{Fsync: tdb.FsyncOff})
	if err != nil {
		return 0, err
	}
	defer db.Kill()
	d.internAll(db.Dict())
	tbl, err := db.CreateTxTable(tableName)
	if err != nil {
		return 0, err
	}
	cut := len(days) * 3 / 4
	for i, day := range days {
		if i == cut {
			if _, err := db.Checkpoint(); err != nil {
				return 0, err
			}
		}
		if _, _, err := tbl.AppendBatchDurable(toTxs(db.Dict(), day)); err != nil {
			return 0, err
		}
		txs += len(day)
	}
	return txs, nil
}

// appendBody renders the POST /v1/append JSON body for a batch.
func appendBody(batch []basket) []byte {
	body, err := json.Marshal(struct {
		Table        string   `json:"table"`
		Transactions []basket `json:"transactions"`
	}{tableName, batch})
	if err != nil {
		panic(err) // strings and times always marshal
	}
	return body
}

// csvBody renders a batch as the basket CSV POST /v1/import takes.
func csvBody(batch []basket) []byte {
	var b bytes.Buffer
	for _, tx := range batch {
		b.WriteString(tx.At.Format("2006-01-02 15:04:05"))
		b.WriteByte(',')
		for i, it := range tx.Items {
			if i > 0 {
				b.WriteByte(';')
			}
			b.WriteString(it)
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
