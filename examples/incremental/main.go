// Incremental: the write-traffic loop for a live deployment — a year
// of history mined warm, late transactions arriving into days that
// were already counted, and the mining state delta-maintained instead
// of rebuilt.
//
//  1. A MINE statement builds the hold table once (cache miss), and a
//     repeat is served from the cache (hit).
//  2. AppendBatch lands new transactions in a handful of existing
//     granules; the table's change log records which days went dirty.
//  3. The next warm MINE re-counts only the dirty granule blocks and
//     splices the fresh columns into the cached entry (outcome
//     "delta") — bit-identical rules at a fraction of the rebuild.
//  4. The same machinery is available below the session: DirtySince
//     names the dirty granules and HoldTable.MaintainContext splices
//     them.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	tarm "github.com/tarm-project/tarm"
)

const statement = `MINE PERIODS FROM baskets THRESHOLD SUPPORT 0.15 CONFIDENCE 0.6 FREQUENCY 0.8 MIN LENGTH 7`

func main() {
	db := tarm.NewMemDB()
	dict := db.Dict()
	weekendPair := dict.InternAll("chips", "beer")
	weekend, _ := tarm.ParsePattern("weekday in (sat, sun)")

	// A year of history.
	history, err := tarm.GenerateTemporal(tarm.TemporalConfig{
		Quest:        tarm.QuestConfig{NItems: 300, NPatterns: 80, AvgTxLen: 8, AvgPatLen: 3},
		Start:        time.Date(1998, 1, 1, 0, 0, 0, 0, time.UTC),
		Granularity:  tarm.Day,
		NGranules:    364,
		TxPerGranule: 60,
		Rules: []tarm.PlantedRule{{
			Name: "weekend", Items: weekendPair, Pattern: weekend,
			PInside: 0.35, POutside: 0.005,
		}},
	}, 2024)
	if err != nil {
		log.Fatal(err)
	}

	baskets, err := db.CreateTxTable("baskets")
	if err != nil {
		log.Fatal(err)
	}
	history.Each(func(tx tarm.Tx) bool {
		baskets.Append(tx.At, tx.Items)
		return true
	})
	session := tarm.NewSession(db)

	// Cold: the first statement pays the counting pass.
	exec := func(label string) int {
		t0 := time.Now()
		res, err := session.Exec(statement)
		if err != nil {
			log.Fatal(err)
		}
		st := session.TML.Cache.Stats()
		fmt.Printf("%-28s %4d rules  %8v   cache m/h/de = %d/%d/%d\n",
			label, len(res.Rows), time.Since(t0).Round(time.Microsecond),
			st.Misses, st.Hits, st.Deltas)
		return len(res.Rows)
	}
	exec("cold MINE (miss):")
	exec("repeat (hit):")

	// Late data arrives into three days that were already counted: the
	// batch goes in under one lock, and the change log records exactly
	// which granules went dirty.
	var late []tarm.Tx
	for _, day := range []int{90, 91, 200} {
		at := time.Date(1998, 1, 1, 9, 0, 0, 0, time.UTC).AddDate(0, 0, day)
		for i := 0; i < 40; i++ {
			late = append(late, tarm.Tx{
				At:    at.Add(time.Duration(i) * time.Minute),
				Items: dict.InternAll("chips", "beer", fmt.Sprintf("sku%03d", i%50)),
			})
		}
	}
	epochBefore := baskets.Epoch()
	_, epoch := baskets.AppendBatch(late)
	dirty, _, _ := baskets.DirtySince(tarm.Day, epochBefore)
	fmt.Printf("\nappended %d late tx; epoch %d → %d; dirty granules: %d of 364\n\n",
		len(late), epochBefore, epoch, len(dirty))

	// Warm again: the cached entry is delta-maintained — only the three
	// dirty days are recounted and spliced in.
	exec("warm after append (delta):")

	// The same splice below the session: DirtySince + MaintainContext
	// give any embedding the delta path directly.
	ctx := context.Background()
	cfg := tarm.Config{
		Granularity: tarm.Day, MinSupport: 0.15, MinConfidence: 0.6, MinFreq: 0.8,
	}
	t0 := time.Now()
	hold, err := tarm.BuildHoldTableContext(ctx, baskets, cfg)
	if err != nil {
		log.Fatal(err)
	}
	build := time.Since(t0)
	epochBefore = baskets.Epoch()
	baskets.AppendBatch(late[:40]) // another 40 tx into day 90
	dirty, _, ok := baskets.DirtySince(tarm.Day, epochBefore)
	if !ok {
		log.Fatal("change log trimmed; rebuild instead")
	}
	t0 = time.Now()
	hold, err = hold.MaintainContext(ctx, baskets, dirty)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncore API: BuildHoldTable %v, Maintain(%d dirty granule) %v\n",
		build.Round(time.Microsecond), len(dirty), time.Since(t0).Round(time.Microsecond))

	// The maintained state serves queries immediately.
	rules, err := tarm.MineDuringFromTableContext(ctx, hold, weekend)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rules {
		if r.Rule.Antecedent.Equal(dict.InternAll("chips")) {
			fmt.Printf("weekend rule live: %s => %s (freq %.2f)\n",
				dict.Names(r.Rule.Antecedent), dict.Names(r.Rule.Consequent), r.Freq)
		}
	}
}
