package core

// The kill-and-recover differential oracle: the durable storage engine
// must be invisible to mining. A WAL-backed table that is killed
// (process death: no checkpoint, no clean close) and recovered mid-
// stream must mine bit-identically — same hold-table levels, same
// count vectors, across every backend — to an in-memory twin that was
// never interrupted. Checkpoints are interleaved at random so recovery
// exercises both pure WAL replay and checkpoint-plus-tail replay.

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// randBasket draws a non-empty random itemset, boosting items 1-2 so
// multi-item frequent sets exist.
func randBasket(rng *rand.Rand, items []itemset.Item) itemset.Set {
	var s []itemset.Item
	for _, it := range items {
		p := 0.3
		if it <= 2 {
			p = 0.7
		}
		if rng.Float64() < p {
			s = append(s, it)
		}
	}
	if len(s) == 0 {
		s = append(s, items[rng.Intn(len(items))])
	}
	return itemset.New(s...)
}

// TestKillRecoverOracle appends random batches to a durable table and
// its uninterrupted in-memory twin, kills the database between rounds
// (optionally checkpointing first, so the WAL tail varies from "whole
// history" to "empty"), reopens it, and requires the recovered table to
// mine bit-identically to the twin under every backend configuration.
func TestKillRecoverOracle(t *testing.T) {
	const cases = 4
	const rounds = 4
	for _, pol := range []tdb.FsyncPolicy{tdb.FsyncAlways, tdb.FsyncOff} {
		t.Run("fsync="+pol.String(), func(t *testing.T) {
			for c := 0; c < cases; c++ {
				rng := rand.New(rand.NewSource(int64(9000 + c)))
				dir := t.TempDir()
				cfg := tdb.Durability{Fsync: pol}

				db, err := tdb.OpenDurable(dir, cfg)
				if err != nil {
					t.Fatal(err)
				}
				tbl, err := db.CreateTxTable("baskets")
				if err != nil {
					t.Fatal(err)
				}
				twin, err := tdb.NewTxTable("baskets")
				if err != nil {
					t.Fatal(err)
				}
				items := []itemset.Item{1, 2, 3, 4, 5}
				start := timegran.Start(19800+timegran.Granule(rng.Intn(200)), timegran.Day)

				for round := 0; round < rounds; round++ {
					// 1-3 batches per round, mirrored into the twin.
					// Single-transaction batches go through Append, the
					// rest through AppendBatchDurable, so both WAL write
					// paths feed the same recovery.
					for j := 1 + rng.Intn(3); j > 0; j-- {
						n := 1 + rng.Intn(5)
						batch := make([]tdb.Tx, 0, n)
						for x := 0; x < n; x++ {
							set := randBasket(rng, items)
							at := start.AddDate(0, 0, rng.Intn(14))
							batch = append(batch, tdb.Tx{At: at, Items: set})
							twin.Append(at, set)
						}
						if len(batch) == 1 {
							tbl.Append(batch[0].At, batch[0].Items)
						} else if _, _, err := tbl.AppendBatchDurable(batch); err != nil {
							t.Fatalf("case %d round %d: append: %v", c, round, err)
						}
					}
					// Sometimes checkpoint before dying, so recovery
					// replays a short tail over segments rather than the
					// whole history from an empty base.
					if rng.Intn(3) == 0 {
						if _, err := db.Checkpoint(); err != nil {
							t.Fatalf("case %d round %d: checkpoint: %v", c, round, err)
						}
					}

					db.Kill()
					db, err = tdb.OpenDurable(dir, cfg)
					if err != nil {
						t.Fatalf("case %d round %d: recover: %v", c, round, err)
					}
					var ok bool
					tbl, ok = db.TxTable("baskets")
					if !ok {
						t.Fatalf("case %d round %d: table lost in recovery", c, round)
					}
					if tbl.Len() != twin.Len() {
						t.Fatalf("case %d round %d: recovered %d tx, twin has %d",
							c, round, tbl.Len(), twin.Len())
					}

					for _, m := range backendMatrix {
						tag := fmt.Sprintf("case %d round %d %v/w%d", c, round, m.backend, m.workers)
						mcfg := Config{
							Granularity:   timegran.Day,
							MinSupport:    0.2,
							MinConfidence: 0.4,
							MinFreq:       0.5,
							Backend:       m.backend,
							Workers:       m.workers,
						}
						got, err := BuildHoldTableContext(bg, tbl, mcfg)
						if err != nil {
							t.Fatalf("%s: recovered build: %v", tag, err)
						}
						want, err := BuildHoldTableContext(bg, twin, mcfg)
						if err != nil {
							t.Fatalf("%s: twin build: %v", tag, err)
						}
						checkIdenticalTables(t, tag+" (recovered vs twin)", got, want)
					}
				}
				db.Kill()
			}
		})
	}
}
