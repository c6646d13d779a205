package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/tarm-project/tarm/internal/apriori"
)

// ingest_recover: the storage path alone.

const (
	ingestTxPerDay = 1000
	ingestBatch    = 250
	// ingestDays is one round's volume: a day to import, then 120 days
	// as 4 × 120 batches with a checkpoint or a crash after each
	// quarter, so every recovery replays ≈ 30 k transactions of WAL.
	ingestDays = 121
)

var ingestStatement = temporalStatement("PERIODS", 0.05)

type ingestWorkload struct {
	ds       *dataset
	arrival  [][]basket // day 0 (imported), then the 250-tx batches
	csv      []byte
	bodies   [][]byte
	expected map[string]string
}

// generate draws one round's input: a day to import, then whole
// 250-tx batches in four equal quarters.
func (w *ingestWorkload) generate(seed int64) (err error) {
	if w.ds, err = newDataset(seed); err != nil {
		return err
	}
	days := w.ds.days(0, ingestDays, ingestTxPerDay)
	var all []basket
	for _, d := range days[1:] {
		all = append(all, d...)
	}
	w.arrival = [][]basket{days[0]}
	for i, n := 0, len(all)/ingestBatch/4*4; i < n; i++ {
		w.arrival = append(w.arrival, all[i*ingestBatch:(i+1)*ingestBatch])
	}
	return nil
}

func (w *ingestWorkload) goldenDigests(e *env, backend apriori.Backend, cached bool) (golden, error) {
	if w.ds == nil {
		if err := w.generate(e.seed); err != nil {
			return nil, err
		}
	}
	// The reference interns names in arrival order, as a server fed by
	// import and appends does.
	db, tbl, err := w.ds.memTable(w.arrival, false)
	if err != nil {
		return nil, err
	}
	return newReference(db, tbl, backend, cached).digests([]string{ingestStatement})
}

func (w *ingestWorkload) prepare(e *env) error {
	if err := w.generate(e.seed); err != nil {
		return err
	}
	w.csv = csvBody(w.arrival[0])
	for _, b := range w.arrival[1:] {
		w.bodies = append(w.bodies, appendBody(b))
	}
	var err error
	w.expected, err = expect(e, "ingest_recover", w)
	return err
}

func (w *ingestWorkload) run(e *env, dur time.Duration, traced bool) (*result, error) {
	r := newResult()
	if traced {
		r.journal = newJournalAgg()
	}
	flags := journalFlag(traced)
	quarter := len(w.bodies) / 4
	var s *tarmd
	defer func() { s.kill() }()
	var lastDir string
	var cpu float64

	// retire reads what dies with the process, then kills it.
	retire := func() error {
		rss, err := s.peakRSSMB()
		if err != nil {
			return err
		}
		if rss > r.peakRSSMB {
			r.peakRSSMB = rss
		}
		ms, err := s.cpuMS()
		if err != nil {
			return err
		}
		cpu += ms
		s.kill()
		return nil
	}
	// The mid-round restart recovers half a table, the end-of-round one
	// a whole table: two populations. A round's set-up sample is their
	// mean, so the median over rounds does not hop between the two.
	var restarts []float64
	// restart is kill -9 and recovery; the table must hold exactly
	// what was acknowledged.
	restart := func(dir string, acked int) error {
		if err := retire(); err != nil {
			return err
		}
		t0 := time.Now()
		var err error
		if s, err = startTarmd(e.bin, dir, e.logPath("ingest_recover"), flags...); err != nil {
			return err
		}
		restarts = append(restarts, time.Since(t0).Seconds())
		rows, err := s.rows()
		if err != nil {
			return err
		}
		if rows != acked {
			e.violate("ingest_recover: %d rows after kill -9, %d were acknowledged", rows, acked)
		}
		return nil
	}

	t0 := time.Now()
	var paused time.Duration
	for round := 0; ; round++ {
		r0 := time.Now()
		dir := filepath.Join(e.tmp, fmt.Sprintf("ingest-%d", round))
		var err error
		if s, err = startTarmd(e.bin, dir, e.logPath("ingest_recover"), flags...); err != nil {
			return nil, err
		}
		raw, err := s.do(http.MethodPost, "/v1/import?table="+tableName, "text/csv", w.csv)
		if err != nil {
			return nil, fmt.Errorf("import: %w", err)
		}
		var imp struct {
			Imported int `json:"imported"`
		}
		if err := json.Unmarshal(raw, &imp); err != nil {
			return nil, err
		}
		acked := imp.Imported
		for i, body := range w.bodies {
			rid := ""
			if traced {
				rid = fmt.Sprintf("r%d-b%d", round, i)
			}
			start := time.Now()
			ack, err := s.append(body, rid)
			lat := time.Since(start)
			switch {
			case err != nil:
				r.fail(e, "round %d batch %d: %v", round, i, err)
			case ack.Appended != len(w.arrival[i+1]) || !ack.Durable:
				r.fail(e, "round %d batch %d: ack %+v", round, i, ack)
			default:
				acked += ack.Appended
				r.ok(0, float64(lat)/1e6)
				r.part("append_overhead", float64(lat)/1e6-ack.WallMS)
				// Every 8th append's journal record is enough to show
				// that no mining hides in the storage path.
				if traced && i%8 == 0 {
					id := e.rec.add(rid, "client:append", 0, start, lat, nil)
					if err := fetchTrace(e, s, r, rid, id, start, lat); err != nil {
						return nil, err
					}
				}
			}
			switch i + 1 {
			case quarter, 3 * quarter:
				err = s.flush()
			case 2 * quarter, 4 * quarter:
				err = restart(dir, acked)
			}
			if err != nil {
				return nil, err
			}
		}
		// The recovered table must mine like the reference. This is
		// verification, not workload: the clock is stopped for it.
		v0 := time.Now()
		body, err := s.statement(ingestStatement, "")
		if err != nil {
			return nil, err
		}
		if got := digest(body); got != w.expected[ingestStatement] {
			e.violate("ingest_recover: round %d post-recovery statement digest %s, want %s", round, got, w.expected[ingestStatement])
		}
		verify := time.Since(v0)
		paused += verify
		r.passS = append(r.passS, (time.Since(r0) - verify).Seconds())
		r.setupS = append(r.setupS, mean(restarts))
		restarts = restarts[:0]
		// Rounds but the last give their directory back at once.
		if lastDir != "" {
			if err := os.RemoveAll(lastDir); err != nil {
				return nil, err
			}
		}
		lastDir = dir
		// Whole rounds only; stop when another would overrun.
		if time.Since(t0)-paused+time.Since(r0) > dur {
			break
		}
		if err := retire(); err != nil {
			return nil, err
		}
	}
	r.passOps = len(w.bodies)
	r.wallS = (time.Since(t0) - paused).Seconds()
	if err := finishServer(s, lastDir, r, 0); err != nil {
		return nil, err
	}
	r.cpuMS += cpu
	if c := r.cache.Stats; c.Hits+c.Rethresholds+c.Deltas != 0 {
		e.violate("ingest_recover: the cache served %d statements; the round is meant to mine once, cold", c.Hits+c.Rethresholds+c.Deltas)
	}
	return r, nil
}
