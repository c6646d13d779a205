package bench

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/tarm-project/tarm/internal/tdb"
)

// E16Durability measures what the WAL costs and what it buys. Every arm
// appends the same precomputed batches; "none" is the in-memory
// baseline (tdb.NewMemDB: no directory, nothing to recover), the other
// three are the engine's fsync policies. Each engine row then kills the
// database (no checkpoint, no clean close), times the reopen — recovery
// is a full replay of the run — and finally times the checkpoint that
// truncates the log.
func E16Durability(sc StandardConfig) (Table, error) {
	scn := sc.normalise()
	// Batch sizes mirror a bulk-ish ingest client (tgen -stream posts
	// day-sized batches): big enough that the per-batch WAL commit
	// amortises, numerous enough that each arm runs long enough to
	// measure.
	const nBatches = 1200
	const txPer = 100
	r := rand.New(rand.NewSource(scn.Seed))
	batches := make([][]tdb.Tx, nBatches)
	for i := range batches {
		batches[i] = e15Batch(r, []int{r.Intn(scn.Days)}, txPer)
	}

	t := Table{
		ID:    "E16",
		Title: "durable storage engine: ingest throughput, WAL volume and recovery, " + describe(sc),
		Header: []string{"fsync", "append tx/s", "vs none", "wal MB",
			"recover ms", "replayed tx", "checkpoint ms"},
	}

	arms := []struct {
		name string
		cfg  *tdb.Durability
	}{
		{"none", nil},
		{"off", &tdb.Durability{Fsync: tdb.FsyncOff}},
		{"interval", &tdb.Durability{Fsync: tdb.FsyncInterval, SyncInterval: 50 * time.Millisecond}},
		{"always", &tdb.Durability{Fsync: tdb.FsyncAlways}},
	}

	// Each arm's ingest phase is short enough that one background stall
	// skews it, and the stalls drift over the run's lifetime — so the
	// repetitions are interleaved round-robin (every arm samples the
	// same noise windows) and each arm keeps its best repetition, the
	// one with the least unrelated interference. The last repetition's
	// database carries on into the recovery and checkpoint phases.
	const reps = 5
	type armState struct {
		open  func() (*tdb.DB, error)
		db    *tdb.DB
		txps  float64
		total int
	}
	states := make([]*armState, len(arms))
	for i := range states {
		states[i] = &armState{}
	}
	for rep := 0; rep < reps; rep++ {
		for i, a := range arms {
			st := states[i]
			dir, err := os.MkdirTemp("", "tarm-e16-")
			if err != nil {
				return t, err
			}
			defer os.RemoveAll(dir)
			cfg := a.cfg
			st.open = func() (*tdb.DB, error) {
				if cfg == nil {
					return tdb.NewMemDB(), nil
				}
				return tdb.OpenDurable(dir, *cfg)
			}
			if st.db != nil {
				st.db.Kill()
				st.db = nil
			}
			st.db, err = st.open()
			if err != nil {
				return t, err
			}
			tbl, err := st.db.CreateTxTable("baskets")
			if err != nil {
				return t, err
			}
			st.total = 0
			d, err := timed(func() error {
				for _, b := range batches {
					if _, _, err := tbl.AppendBatchDurable(b); err != nil {
						return err
					}
					st.total += len(b)
				}
				return nil
			})
			if err != nil {
				return t, err
			}
			if v := float64(st.total) / d.Seconds(); v > st.txps {
				st.txps = v
			}
		}
	}

	baseline := states[0].txps
	for i, a := range arms {
		st := states[i]
		if a.cfg == nil {
			// Nothing reached a disk: a kill here loses everything, which
			// is exactly the gap the WAL closes.
			t.AddRow(a.name, f(st.txps), "1.00", "0.00", "-", "-", "-")
			continue
		}
		db := st.db
		walMB := float64(db.WALSize()) / (1 << 20)

		// Die and come back: kill mid-flight and replay the whole run
		// from the log. Pin the kill to just after a flush: the interval
		// policy buffers in user space and may legally lose its flush
		// window, but this experiment wants recovery to replay the whole
		// run.
		if err := db.SyncWAL(); err != nil {
			return t, err
		}
		db.Kill()
		var db2 *tdb.DB
		rd, err := timed(func() error {
			var oerr error
			db2, oerr = st.open()
			return oerr
		})
		if err != nil {
			return t, err
		}
		replayed := db2.Recovery().AppendedTx
		if tbl2, ok := db2.TxTable("baskets"); !ok || tbl2.Len() != st.total {
			return t, fmt.Errorf("e16 %s: recovered %v tx, appended %d", a.name, tbl2, st.total)
		}

		cd, err := timed(func() error {
			_, cerr := db2.Checkpoint()
			return cerr
		})
		if err != nil {
			return t, err
		}
		db2.Kill()

		t.AddRow(a.name, f(st.txps), fmt.Sprintf("%.2f", st.txps/baseline),
			fmt.Sprintf("%.2f", walMB), ms(rd.Seconds()*1000),
			fmt.Sprint(replayed), ms(cd.Seconds()*1000))
	}
	return t, nil
}
