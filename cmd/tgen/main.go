// Command tgen generates synthetic temporal transaction databases: a
// Quest-style background (T·.I·) spread over a span of granules, with
// optional planted temporal rules for recovery experiments.
//
// Usage:
//
//	tgen -out ./data -days 364 -txper 100 -items 1000 -t 10 -i 4 \
//	     -plant 'summer|hat,sunscreen|month in (jun..aug)|0.3|0.005' \
//	     -plant 'weekend|chips,beer|weekday in (sat,sun)|0.3|0.005'
//
// Each -plant is name|item1,item2,...|pattern|pInside|pOutside. Items
// are names interned into the database dictionary; the pattern uses the
// calendar-algebra syntax of the DURING clause.
//
// With -stream, tgen feeds the generated workload to a running tarmd
// instead of writing a directory, paced to -rate transactions per
// second in -batch sized POST /v1/append requests:
//
//	tgen -stream http://localhost:8080 -table baskets -days 7 -rate 500
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/tarm-project/tarm/internal/gen"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

type plantFlags []string

func (p *plantFlags) String() string { return strings.Join(*p, "; ") }
func (p *plantFlags) Set(v string) error {
	*p = append(*p, v)
	return nil
}

func main() {
	var plants plantFlags
	out := flag.String("out", "", "output database directory (required unless -stream)")
	streamURL := flag.String("stream", "", "stream to a tarmd base URL via POST /v1/append instead of writing -out")
	rate := flag.Float64("rate", 200, "stream mode: target transactions per second (0 = unpaced)")
	batch := flag.Int("batch", 50, "stream mode: transactions per append request")
	table := flag.String("table", "baskets", "transaction table name")
	days := flag.Int("days", 364, "number of granules to generate")
	granName := flag.String("granularity", "day", "granularity of the time axis")
	txPer := flag.Int("txper", 100, "mean transactions per granule")
	items := flag.Int("items", 1000, "item universe size")
	patterns := flag.Int("patterns", 200, "number of Quest patterns")
	avgT := flag.Float64("t", 10, "mean transaction size |T|")
	avgI := flag.Float64("i", 4, "mean pattern size |I|")
	start := flag.String("start", "1998-01-01", "start date (YYYY-MM-DD)")
	seed := flag.Int64("seed", 1998, "random seed")
	flag.Var(&plants, "plant", "planted rule: name|items|pattern|pIn|pOut (repeatable)")
	flag.Parse()

	if *streamURL != "" {
		if err := stream(*streamURL, *table, *days, *granName, *txPer, *items, *patterns, *avgT, *avgI, *start, *seed, plants, *rate, *batch); err != nil {
			fmt.Fprintln(os.Stderr, "tgen:", err)
			os.Exit(1)
		}
		return
	}
	if *out == "" {
		fmt.Fprintln(os.Stderr, "tgen: -out is required (or use -stream)")
		flag.Usage()
		os.Exit(2)
	}
	if err := generate(*out, *table, *days, *granName, *txPer, *items, *patterns, *avgT, *avgI, *start, *seed, plants); err != nil {
		fmt.Fprintln(os.Stderr, "tgen:", err)
		os.Exit(1)
	}
}

func generate(out, table string, days int, granName string, txPer, items, patterns int, avgT, avgI float64, start string, seed int64, plants []string) error {
	gran, err := timegran.ParseGranularity(granName)
	if err != nil {
		return err
	}
	startAt, err := time.ParseInLocation("2006-01-02", start, time.UTC)
	if err != nil {
		return fmt.Errorf("bad -start %q: %w", start, err)
	}
	// Fsync off: a dataset that did not finish generating is regenerated,
	// not recovered, so there is no ack worth an fsync.
	db, err := tdb.OpenDurable(out, tdb.Durability{Fsync: tdb.FsyncOff})
	if err != nil {
		return err
	}
	defer db.Kill() // releases the WAL file on the error paths; after Close it is already released
	t0 := time.Now()
	// Intern background item names first so generated ids resolve.
	for i := 0; i < items; i++ {
		db.Dict().Intern(fmt.Sprintf("item%04d", i))
	}
	cfg := gen.TemporalConfig{
		Quest:        gen.QuestConfig{NItems: items, NPatterns: patterns, AvgTxLen: avgT, AvgPatLen: avgI},
		Start:        startAt,
		Granularity:  gran,
		NGranules:    days,
		TxPerGranule: txPer,
	}
	for _, spec := range plants {
		pr, err := parsePlant(spec, db)
		if err != nil {
			return err
		}
		cfg.Rules = append(cfg.Rules, pr)
	}
	src, err := gen.GenerateTemporal(cfg, seed)
	if err != nil {
		return err
	}
	dst, ok := db.TxTable(table)
	if !ok {
		dst, err = db.CreateTxTable(table)
		if err != nil {
			return err
		}
	}
	// One WAL record per granule, not per transaction.
	if iv, ok := src.Span(gran); ok {
		var batch []tdb.Tx
		for g := iv.Lo; g <= iv.Hi; g++ {
			batch = batch[:0]
			src.EachInRange(gran, timegran.Interval{Lo: g, Hi: g}, func(tx tdb.Tx) bool {
				tx.Items = tx.Items.Clone()
				batch = append(batch, tx)
				return true
			})
			if _, _, err := dst.AppendBatchDurable(batch); err != nil {
				return err
			}
		}
	}
	if err := db.Close(); err != nil {
		return err
	}
	name := gen.Name(cfg.Quest, dst.Len())
	elapsed := time.Since(t0)
	rate := float64(dst.Len()) / elapsed.Seconds()
	fmt.Printf("wrote %s: %d transactions into %s/%s (%d planted rules) in %.2fs (%.0f tx/s)\n",
		name, dst.Len(), out, table, len(cfg.Rules), elapsed.Seconds(), rate)
	return nil
}

// parsePlant parses name|items|pattern|pIn|pOut.
func parsePlant(spec string, db *tdb.DB) (gen.PlantedRule, error) {
	parts := strings.Split(spec, "|")
	if len(parts) != 5 {
		return gen.PlantedRule{}, fmt.Errorf("bad -plant %q: want name|items|pattern|pIn|pOut", spec)
	}
	names := strings.Split(parts[1], ",")
	if len(names) < 2 {
		return gen.PlantedRule{}, fmt.Errorf("bad -plant %q: need at least 2 items", spec)
	}
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	items := db.Dict().InternAll(names...)
	pattern, err := timegran.ParsePattern(parts[2])
	if err != nil {
		return gen.PlantedRule{}, fmt.Errorf("bad -plant %q: %w", spec, err)
	}
	pIn, err := strconv.ParseFloat(parts[3], 64)
	if err != nil {
		return gen.PlantedRule{}, fmt.Errorf("bad -plant %q: pInside: %w", spec, err)
	}
	pOut, err := strconv.ParseFloat(parts[4], 64)
	if err != nil {
		return gen.PlantedRule{}, fmt.Errorf("bad -plant %q: pOutside: %w", spec, err)
	}
	return gen.PlantedRule{
		Name:     parts[0],
		Items:    items,
		Pattern:  pattern,
		PInside:  pIn,
		POutside: pOut,
	}, nil
}
