package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/timegran"
	"github.com/tarm-project/tarm/internal/tml"
)

// stream_cycle: the stream path, one day per op.

const (
	streamSupport = 0.05
	// streamDays bounds the run: 20 s of 55 ms cycles is 360 days; a
	// system twice as fast still has input.
	streamDays  = 800
	lateEvery   = 10 // every 10th batch carries late transactions
	lateShare   = 0.05
	flushEvery  = 25  // cycles per block; a block ends with a checkpoint
	goldenCycle = 100 // the cycle at which subscription folds are pinned
	// verifyEvery is how often the replica re-derives the ad-hoc
	// statement's answer, from a fresh count of the whole table. Keeping
	// a replica current day by day costs ≈ 30 ms a day — 8 s a run — and
	// a recount 0.7 s, so it recounts at every 100th cycle (goldenCycle
	// among them) and the last. The cycles between are checked for what
	// is free: ack counts, exactly-once ordered events, strict folds.
	verifyEvery = 100
)

var streamSubs = []string{"PERIODS", "CYCLES"}

// adhocStatement is the one-shot statement that ends every cycle.
var adhocStatement = temporalStatement("CALENDARS", streamSupport)

func streamStatement(task string, subscribe bool) string {
	st := temporalStatement(task, streamSupport)
	if subscribe {
		return "SUBSCRIBE " + st
	}
	return st
}

type streamWorkload struct {
	ds      *dataset
	dir     string
	history [][]basket
	batches [][]basket // one per cycle: the day, plus late arrivals
	bodies  [][]byte
	golden  golden
}

// generate draws the history and n stream days (late arrivals mixed
// in) for a seed.
func (w *streamWorkload) generate(seed int64, n int) (err error) {
	if w.ds, err = newDataset(seed); err != nil {
		return err
	}
	w.history = w.ds.days(0, historyDays, mineTxPerDay)
	for i := 0; i < n; i++ {
		late := 0.0
		if (i+1)%lateEvery == 0 {
			late = lateShare
		}
		w.batches = append(w.batches, w.ds.day(historyDays+i, mineTxPerDay, late))
	}
	return nil
}

// replay feeds the first n batches into a fresh in-process replica of
// the history, calling each (when set) after every batch.
func (w *streamWorkload) replay(backend apriori.Backend, cached bool, n int, each func(i int, ref *reference) error) (*reference, error) {
	db, tbl, err := w.ds.memTable(w.history, true)
	if err != nil {
		return nil, err
	}
	ref := newReference(db, tbl, backend, cached)
	for i := 0; i < n; i++ {
		tbl.AppendBatch(toTxs(db.Dict(), w.batches[i]))
		if each == nil {
			continue
		}
		if err := each(i, ref); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// pinned is the state golden digests are committed for: both standing
// statements' rule sets and the ad-hoc statement, as the reference
// sees them right now.
func pinned(ref *reference) (golden, error) {
	g := golden{}
	for _, task := range streamSubs {
		rows, err := ref.keyed(streamStatement(task, false))
		if err != nil {
			return nil, err
		}
		g["fold:"+streamStatement(task, false)] = rowsDigest(rows)
	}
	b, err := ref.text(adhocStatement)
	if err != nil {
		return nil, err
	}
	g[adhocStatement] = digest(b)
	return g, nil
}

func (w *streamWorkload) goldenDigests(e *env, backend apriori.Backend, cached bool) (golden, error) {
	if w.ds == nil {
		if err := w.generate(e.seed, goldenCycle); err != nil {
			return nil, err
		}
	}
	ref, err := w.replay(backend, cached, goldenCycle, nil)
	if err != nil {
		return nil, err
	}
	return pinned(ref)
}

func (w *streamWorkload) prepare(e *env) error {
	if err := w.generate(e.seed, streamDays); err != nil {
		return err
	}
	w.dir = filepath.Join(e.tmp, "db")
	if _, err := w.ds.prepareStore(w.dir, w.history); err != nil {
		return err
	}
	for _, b := range w.batches {
		w.bodies = append(w.bodies, appendBody(b))
	}
	// The reference is replayed after the measured phase, for as many
	// cycles as the run completed; the golden is held against it there.
	var err error
	w.golden, err = committedGolden(e, "stream_cycle")
	return err
}

// subEvents is the slice of the long-poll answer the client reads.
type subEvents struct {
	Events []struct {
		Seq int64 `json:"seq"`
		tml.SubUpdate
	} `json:"events"`
}

// subClient follows one subscription: cursor, folded rule set, events
// seen.
type subClient struct {
	id     string
	stmt   string // the one-shot form of the standing statement
	after  int64
	fold   tml.RuleSet
	events int
	gaps   int64 // events lost: jumps in the sequence numbers
	closed timegran.Granule
	pinned string // fold digest at goldenCycle
}

func subscribe(s *tarmd, task string) (*subClient, error) {
	raw, err := s.do(http.MethodPost, "/v1/subscriptions", "text/plain", []byte(streamStatement(task, true)))
	if err != nil {
		return nil, err
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	return &subClient{id: v.ID, stmt: streamStatement(task, false), after: -1}, nil
}

// await long-polls until the subscription has emitted an event whose
// closed-through granule reaches want, folding every delta on the way.
func (c *subClient) await(s *tarmd, want timegran.Granule, initial bool) error {
	for {
		var evs subEvents
		path := fmt.Sprintf("/v1/subscriptions/%s/events?after=%d&wait_ms=30000", c.id, c.after)
		if err := s.getJSON(path, &evs); err != nil {
			return err
		}
		if len(evs.Events) == 0 {
			return fmt.Errorf("subscription %s: no event within 30 s", c.id)
		}
		for _, ev := range evs.Events {
			// Loss shows as a jump in seq. The server's own drop counter
			// cannot be used: the ring evicts by age whether or not the
			// event was delivered, so it counts up under an attentive
			// reader too (README, findings).
			c.gaps += ev.Seq - (c.after + 1)
			c.after = ev.Seq
			if err := c.fold.Apply(ev.Deltas); err != nil {
				return err
			}
			c.events++
			c.closed = ev.ClosedThrough
		}
		if initial || c.closed >= want {
			return nil
		}
	}
}

func (w *streamWorkload) run(e *env, dur time.Duration, traced bool) (*result, error) {
	var subs []*subClient
	prime := func(s *tarmd) error {
		subs = subs[:0]
		for _, task := range streamSubs {
			c, err := subscribe(s, task)
			if err != nil {
				return err
			}
			if err := c.await(s, 0, true); err != nil {
				return err
			}
			subs = append(subs, c)
		}
		return nil
	}
	s, setups, err := startPrepared(e, "stream_cycle", w.dir, 7, journalFlag(traced), prime)
	if err != nil {
		return nil, err
	}
	defer s.kill()

	r := newResult()
	r.setupS = setups
	if traced {
		r.journal = newJournalAgg()
	}
	cpu0, err := s.cpuMS()
	if err != nil {
		return nil, err
	}
	var adhocDigests []string // per completed cycle, checked after the phase
	day0 := timegran.GranuleOf(year0, timegran.Day) + historyDays

	// Whole blocks of flushEvery cycles, each closed by a checkpoint;
	// stop when another block would overrun the budget or the input.
	t0 := time.Now()
	cycles := 0
	r.passOps = flushEvery
stream:
	for {
		b0 := time.Now()
		for stop := cycles + flushEvery; cycles < stop; cycles++ {
			rid := ""
			if traced {
				rid = fmt.Sprintf("c%d", cycles)
			}
			// The three steps are strictly sequential and the op is their
			// sum: a median over one kind of op, not over a mix.
			start := time.Now()
			ack, err := s.append(w.bodies[cycles], rid)
			tAck := time.Now()
			if err != nil || ack.Appended != len(w.batches[cycles]) || !ack.Durable {
				r.fail(e, "cycle %d append: ack %+v err %v", cycles, ack, err)
				break stream // the stream is broken; later cycles would verify nothing
			}
			// Day d's first timestamp closes day d-1.
			want := day0 + timegran.Granule(cycles) - 1
			for _, c := range subs {
				if err = c.await(s, want, false); err != nil {
					break
				}
			}
			tEmit := time.Now()
			if err != nil {
				r.fail(e, "cycle %d close: %v", cycles, err)
				break stream
			}
			body, err := s.statement(adhocStatement, rid+"q")
			end := time.Now()
			if err != nil {
				r.fail(e, "cycle %d statement: %v", cycles, err)
				break stream
			}
			adhocDigests = append(adhocDigests, digest(body))
			r.ok(0, float64(end.Sub(start))/1e6)
			r.part("append_ack", float64(tAck.Sub(start))/1e6)
			r.part("close_to_emit", float64(tEmit.Sub(tAck))/1e6)
			r.part("delta_stmt", float64(end.Sub(tEmit))/1e6)
			r.part("append_overhead", float64(tAck.Sub(start))/1e6-ack.WallMS)
			if cycles+1 == goldenCycle {
				for _, c := range subs {
					c.pinned = rowsDigest(c.fold.Rows)
				}
			}
			if traced {
				op := e.rec.add(rid, "client:cycle", 0, start, end.Sub(start), nil)
				ap := e.rec.add(rid, "client:append", op, start, tAck.Sub(start), nil)
				e.rec.add(rid, "client:close-to-emit", op, tAck, tEmit.Sub(tAck), nil)
				st := e.rec.add(rid, "client:statement", op, tEmit, end.Sub(tEmit), nil)
				if err := fetchTrace(e, s, r, rid, ap, start, tAck.Sub(start)); err != nil {
					return nil, err
				}
				if err := fetchTrace(e, s, r, rid+"q", st, tEmit, end.Sub(tEmit)); err != nil {
					return nil, err
				}
			}
		}
		// Background maintenance: off the ops' stopwatches, on the
		// block's clock.
		if err := s.flush(); err != nil {
			return nil, err
		}
		block := time.Since(b0)
		r.passS = append(r.passS, block.Seconds())
		if time.Since(t0)+block > dur || cycles+flushEvery > len(w.bodies) {
			break
		}
	}
	r.wallS = time.Since(t0).Seconds()
	if err := finishServer(s, w.dir, r, cpu0); err != nil {
		return nil, err
	}
	if r.failed > 0 {
		return r, nil // a broken stream has nothing left to verify
	}

	// Validity: nothing lost, and exactly one event per close per
	// subscription on top of the registration snapshot.
	for _, c := range subs {
		r.seqGaps += c.gaps
		if c.gaps != 0 {
			e.violate("stream_cycle: subscription %s lost %d events", c.id, c.gaps)
		}
		if c.events != cycles+1 {
			e.violate("stream_cycle: subscription %s emitted %d events for %d closes", c.id, c.events-1, cycles)
		}
	}
	if c := r.cache.Stats; c.Deltas == 0 {
		e.violate("stream_cycle: no delta maintenance happened (deltas=0)")
	}
	s.kill()
	return r, w.verify(e, r, subs, adhocDigests)
}

// verify checks a finished stream, all off the clock. (1) The same
// batches are replayed into an in-process replica on another backend,
// which must reproduce the ad-hoc answer of every verifyEvery-th cycle
// and the last; (2) the replica's from-scratch MINE must equal each
// subscription's fold, after goldenCycle and at the end; (3) so must a
// cold tarmd restarted on what the stream left on disk.
func (w *streamWorkload) verify(e *env, r *result, subs []*subClient, adhocDigests []string) error {
	cycles := len(adhocDigests)
	var expected golden
	ref, err := w.replay(referenceBackend, true, cycles, func(i int, ref *reference) error {
		if (i+1)%verifyEvery != 0 && i+1 != cycles {
			return nil
		}
		b, err := ref.text(adhocStatement)
		if err != nil {
			return err
		}
		if want := digest(b); want != adhocDigests[i] {
			r.reject(e, "cycle %d statement digest %s, reference %s", i, adhocDigests[i], want)
		}
		if i+1 == goldenCycle {
			expected, err = pinned(ref)
		}
		return err
	})
	if err != nil {
		return err
	}
	if cycles >= goldenCycle {
		for _, c := range subs {
			if want := expected["fold:"+c.stmt]; c.pinned != want {
				e.violate("stream_cycle: fold of %s after %d cycles is %s, reference %s", c.id, goldenCycle, c.pinned, want)
			}
		}
	}
	if w.golden != nil {
		if cycles < goldenCycle {
			// The traced run's short phases end before the pinned cycle.
			e.notes = append(e.notes, fmt.Sprintf("golden not checked: it is pinned at cycle %d, the phase ended after %d", goldenCycle, cycles))
		} else if err := checkGolden(w.golden, expected); err != nil {
			e.violate("stream_cycle: %v", err)
		}
	}
	cold, err := startTarmd(e.bin, w.dir, e.logPath("stream_cycle"), "-journal", "-1", "-cache", "-1")
	if err != nil {
		return err
	}
	defer cold.kill()
	for _, c := range subs {
		want, err := ref.keyed(c.stmt)
		if err != nil {
			return err
		}
		var res struct {
			Cols []string   `json:"cols"`
			Rows [][]string `json:"rows"`
		}
		raw, err := cold.do(http.MethodPost, "/v1/statements", "text/plain", []byte(c.stmt))
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &res); err != nil {
			return err
		}
		fold, replica, scratch := rowsDigest(c.fold.Rows), rowsDigest(want), rowsDigest(tml.KeyRows(res.Cols, res.Rows))
		if fold != replica || fold != scratch {
			e.violate("stream_cycle: %s fold %s, reference %s, recovered cold MINE %s", c.id, fold, replica, scratch)
		}
	}
	return nil
}
