package bench

import (
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/tarm-project/tarm/internal/server"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/tml"
)

// sessionStatements is the replayed IQMS session: four temporal tasks
// swept across support thresholds the way an analyst narrows in — the
// initial look (0.15), two tightening rounds (0.18, 0.22), one loosening
// round (0.12, the only statement a warm cache cannot derive) and a
// return to 0.2 served off the broadened entry. 20 statements, one
// hold-table build per distinct "not yet covered" support.
func sessionStatements() []string {
	tasks := []string{
		`MINE PERIODS FROM baskets THRESHOLD SUPPORT %g CONFIDENCE 0.6 FREQUENCY 0.9 MIN LENGTH 7`,
		`MINE CYCLES FROM baskets THRESHOLD SUPPORT %g CONFIDENCE 0.6 MAX LENGTH 10 MIN REPS 4`,
		`MINE CALENDARS FROM baskets THRESHOLD SUPPORT %g CONFIDENCE 0.6 FREQUENCY 0.8 MIN REPS 4`,
		`MINE RULES FROM baskets DURING 'month in (jun..aug)' THRESHOLD SUPPORT %g CONFIDENCE 0.6 FREQUENCY 0.8`,
	}
	var out []string
	for _, sup := range []float64{0.15, 0.18, 0.22, 0.12, 0.2} {
		for _, tmpl := range tasks {
			out = append(out, fmt.Sprintf(tmpl, sup))
		}
	}
	return out
}

// newSession loads the standard dataset into a fresh IQMS session as
// table "baskets".
func newSession(sc StandardConfig) (*tml.Session, error) {
	txt, _, err := StandardDataset(sc)
	if err != nil {
		return nil, err
	}
	db := tdb.NewMemDB()
	dst, err := db.CreateTxTable("baskets")
	if err != nil {
		return nil, err
	}
	txt.Each(func(tx tdb.Tx) bool {
		dst.Append(tx.At, tx.Items)
		return true
	})
	return tml.NewSession(db), nil
}

// E13ConcurrentSessions measures tarmd statement throughput as client
// sessions are added: N clients each replay the 20-statement session
// mix against one server (shared executor, shared hold-table cache),
// and the table reports wall time, aggregate statement throughput and
// latency quantiles per session count.
func E13ConcurrentSessions(sc StandardConfig) (Table, error) {
	t := Table{
		ID:     "E13",
		Title:  "tarmd throughput vs concurrent sessions (20-statement session mix), " + describe(sc),
		Header: []string{"clients", "statements", "wall s", "stmt/s", "p50 ms", "p95 ms", "cache m/r/h/de"},
	}
	stmts := sessionStatements()
	for _, clients := range []int{1, 2, 4, 8, 16} {
		session, err := newSession(sc)
		if err != nil {
			return t, err
		}
		srv := server.New(session.DB, server.Config{
			Pool:    clients,
			Queue:   clients * len(stmts),
			Workers: Workers,
		})
		ts := httptest.NewServer(srv)

		latencies := make([][]float64, clients)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		t0 := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client := ts.Client()
				for _, stmt := range stmts {
					s0 := time.Now()
					resp, err := client.Post(ts.URL+"/v1/statements", "text/plain", strings.NewReader(stmt))
					if err != nil {
						errs[c] = err
						return
					}
					resp.Body.Close()
					if resp.StatusCode != 200 {
						errs[c] = fmt.Errorf("status %d for %s", resp.StatusCode, stmt)
						return
					}
					latencies[c] = append(latencies[c], time.Since(s0).Seconds()*1000)
				}
			}(c)
		}
		wg.Wait()
		wall := time.Since(t0)
		ts.Close()
		for _, err := range errs {
			if err != nil {
				return t, err
			}
		}
		var all []float64
		for _, l := range latencies {
			all = append(all, l...)
		}
		sort.Float64s(all)
		q := func(p float64) float64 { return all[min(len(all)-1, int(p*float64(len(all))))] }
		cs := srv.Executor().Cache.Stats()
		t.AddRow(fmt.Sprint(clients), fmt.Sprint(len(all)),
			fmt.Sprintf("%.2f", wall.Seconds()),
			fmt.Sprintf("%.1f", float64(len(all))/wall.Seconds()),
			ms(q(0.50)), ms(q(0.95)),
			fmt.Sprintf("%d/%d/%d/%d", cs.Misses, cs.Rethresholds, cs.Hits, cs.Deltas))
	}
	t.Notes = append(t.Notes, "one shared tarmd per row (pool = clients); each client replays the full mix, so work scales with the client count while builds are shared through the cache")
	return t, nil
}
