package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/tml"
)

// postSubscribe registers a standing statement and returns the status,
// parsed view (on 201) and raw body.
func postSubscribe(t *testing.T, url, stmt string) (int, *subView, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/subscriptions", "text/plain", strings.NewReader(stmt))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return resp.StatusCode, nil, buf.String()
	}
	var v subView
	if err := json.Unmarshal(buf.Bytes(), &v); err != nil {
		t.Fatalf("subscription body is not JSON: %v in %q", err, buf.String())
	}
	return resp.StatusCode, &v, buf.String()
}

// getEvents long-polls one subscription's event stream.
func getEvents(t *testing.T, url, id string, after int64, waitMS int) subEventsResponse {
	t.Helper()
	var out subEventsResponse
	u := fmt.Sprintf("%s/v1/subscriptions/%s/events?after=%d&wait_ms=%d", url, id, after, waitMS)
	if code, _ := getJSON(t, u, &out); code != http.StatusOK {
		t.Fatalf("GET %s: status %d", u, code)
	}
	return out
}

// postTx appends a batch with explicit timestamps and returns the
// table's write epoch after it.
func postTx(t *testing.T, url, table string, txs []appendTx) int64 {
	t.Helper()
	body, err := json.Marshal(appendRequest{Table: table, Transactions: txs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/append", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out appendResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d decode err %v", resp.StatusCode, err)
	}
	return out.Epoch
}

// streamBase anchors the streaming fixture: a Monday, so weekday
// patterns are deterministic.
var streamBase = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// streamItems is the per-transaction basket of the streaming fixture —
// the same shifting mixture the in-process oracle uses, so rules
// appear, change support and disappear as days close.
func streamItems(day, i int) []string {
	items := []string{"bread"}
	if i < 8 {
		items = append(items, "milk")
	}
	if day >= 2 && day <= 4 && i < 7 {
		items = append(items, "bbq", "charcoal")
	}
	if (day%7 == 5 || day%7 == 6) && i < 9 {
		items = append(items, "choc", "wine")
	}
	if day >= 5 && i < 6 {
		items = append(items, "tea")
	}
	return items
}

// streamTx builds transactions [lo, hi) of one fixture day.
func streamTx(day, lo, hi int) []appendTx {
	txs := make([]appendTx, 0, hi-lo)
	for i := lo; i < hi; i++ {
		txs = append(txs, appendTx{
			At:    streamBase.AddDate(0, 0, day).Add(time.Duration(10+i) * time.Minute),
			Items: streamItems(day, i),
		})
	}
	return txs
}

// newStreamServer builds a server over an initially empty transaction
// table named "stream", so the append traffic is the only clock.
func newStreamServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *tdb.DB) {
	t.Helper()
	db := tdb.NewMemDB()
	if _, err := db.CreateTxTable("stream"); err != nil {
		t.Fatal(err)
	}
	s := New(db, cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.subs.shutdown()
	})
	return s, ts, db
}

const streamStmt = `SUBSCRIBE MINE PERIODS FROM stream AT GRANULARITY day THRESHOLD SUPPORT 0.45 CONFIDENCE 0.6 FREQUENCY 0.9`

// waitSettled polls the subscription view until its epoch reaches
// epoch (every append through it reflected in an emitted event).
func waitSettled(t *testing.T, url, id string, epoch int64) subView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var v subView
	for {
		if code, _ := getJSON(t, url+"/v1/subscriptions/"+id, &v); code != http.StatusOK {
			t.Fatalf("GET subscription %s: status %d", id, code)
		}
		if v.Epoch >= epoch {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscription %s never settled: epoch %d < %d (errors=%d lastErr=%q)",
				id, v.Epoch, epoch, v.Errors, v.LastError)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSubViewEpochIsPushed: a subscription's view reports the epoch of
// the newest event it pushed, not the one its standing statement
// reached in a Step whose event is not yet pushed, so a client that
// waits for an epoch (waitSettled) can then read the event carrying it.
func TestSubViewEpochIsPushed(t *testing.T) {
	s, _, db := newStreamServer(t, Config{})
	tbl, _ := db.TxTable("stream")
	bread, milk := db.Dict().Intern("bread"), db.Dict().Intern("milk")
	for i := range 4 {
		tbl.Append(streamBase.Add(time.Duration(i)*time.Hour), itemset.New(bread, milk))
	}
	stmt, err := tml.Parse(streamStmt)
	if err != nil {
		t.Fatal(err)
	}
	standing, err := tml.NewStanding(s.exec, stmt)
	if err != nil {
		t.Fatal(err)
	}
	sub := &subscription{id: "sub-epoch", standing: standing, wake: make(chan struct{})}
	upd, err := standing.Step(context.Background())
	if err != nil || upd == nil {
		t.Fatalf("first Step = %v, %v; want the registration snapshot", upd, err)
	}
	if v := s.subView(sub, ""); v.Epoch != 0 {
		t.Fatalf("before the snapshot is pushed the view reads epoch %d, want 0", v.Epoch)
	}
	sub.push(subEvent{At: time.Now(), SubUpdate: *upd}, 8)
	if v := s.subView(sub, ""); v.Epoch != tbl.Epoch() || v.Epoch != upd.Epoch {
		t.Fatalf("after the push the view reads epoch %d, want the event's %d (table %d)", v.Epoch, upd.Epoch, tbl.Epoch())
	}
}

// TestStreamingOracleHTTP is the acceptance gate of continuous mining:
// for each counting backend, a standing statement is driven over HTTP
// by concurrent append posters (including out-of-order writes into
// already-closed granules); afterwards the emitted delta stream is
// folded from empty and must reproduce, bit for bit, what a
// from-scratch MINE over the settled table returns.
func TestStreamingOracleHTTP(t *testing.T) {
	backends := []apriori.Backend{
		apriori.BackendNaive,
		apriori.BackendBitmap,
		apriori.BackendRoaring,
	}
	for _, backend := range backends {
		backend := backend
		t.Run(backend.String(), func(t *testing.T) {
			t.Parallel()
			s, ts, db := newStreamServer(t, Config{SubQueue: 512})
			s.Executor().Backend = backend

			code, sub, raw := postSubscribe(t, ts.URL, streamStmt)
			if code != http.StatusCreated {
				t.Fatalf("subscribe: status %d: %s", code, raw)
			}

			// Three writers per day race each other (and the refresh
			// worker); writer 2 also writes out of order into the
			// previous, already-closed day.
			var lastEpoch int64
			var epochMu sync.Mutex
			for day := 1; day <= 8; day++ {
				var writers sync.WaitGroup
				for w := 0; w < 3; w++ {
					w := w
					writers.Add(1)
					go func() {
						defer writers.Done()
						lo, hi := w*3, w*3+3
						if w == 2 {
							hi = 10
						}
						e := postTx(t, ts.URL, "stream", streamTx(day, lo, hi))
						if w == 2 && day > 2 {
							late := []appendTx{{
								At:    streamBase.AddDate(0, 0, day-1).Add(40 * time.Minute),
								Items: []string{"bread", "milk"},
							}}
							e = postTx(t, ts.URL, "stream", late)
						}
						epochMu.Lock()
						if e > lastEpoch {
							lastEpoch = e
						}
						epochMu.Unlock()
					}()
				}
				writers.Wait()
			}
			// Sentinel: one transaction on day 9 closes day 8 and forces
			// a final refresh at the settled epoch.
			sentinel := postTx(t, ts.URL, "stream", streamTx(9, 0, 1))
			waitSettled(t, ts.URL, sub.ID, sentinel)

			ev := getEvents(t, ts.URL, sub.ID, -1, 0)
			if ev.Dropped != 0 {
				t.Fatalf("oracle stream dropped %d events; queue sized wrong", ev.Dropped)
			}
			if len(ev.Events) == 0 || !ev.Events[0].Initial {
				t.Fatalf("stream did not start with the registration snapshot: %+v", ev.Events)
			}
			fold := &tml.RuleSet{}
			for i, e := range ev.Events {
				if e.Seq != int64(i) {
					t.Fatalf("event %d has seq %d: gap in an undropped stream", i, e.Seq)
				}
				if err := fold.Apply(e.Deltas); err != nil {
					t.Fatalf("folding event %d: %v", i, err)
				}
			}

			// The reference: a fresh executor, same backend, same table,
			// the same statement without SUBSCRIBE.
			stmt, err := tml.Parse(strings.TrimPrefix(streamStmt, "SUBSCRIBE "))
			if err != nil {
				t.Fatal(err)
			}
			ref := tml.NewExecutor(db)
			ref.Backend = backend
			res, err := ref.ExecStmtContext(context.Background(), stmt)
			if err != nil {
				t.Fatal(err)
			}
			want := (&tml.RuleSet{Rows: tml.KeyRows(res.Cols, tml.DisplayCells(res))}).Sorted()
			got := fold.Sorted()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("folded delta stream diverged from from-scratch MINE\n fold: %v\n mine: %v", got, want)
			}
			if len(want) == 0 {
				t.Fatal("oracle compared empty result sets; fixture thresholds are wrong")
			}
		})
	}
}

// TestSlowSubscriberDropsNotStalls: a subscriber that never reads, on a
// tiny ring, loses its oldest events — counted, with the seq gap
// visible — while an attentive subscriber on the same table receives
// every event and interactive statements keep being served.
func TestSlowSubscriberDropsNotStalls(t *testing.T) {
	s, ts, _ := newStreamServer(t, Config{SubQueue: 2})

	code, wedged, raw := postSubscribe(t, ts.URL, streamStmt)
	if code != http.StatusCreated {
		t.Fatalf("subscribe wedged: status %d: %s", code, raw)
	}
	code, active, raw := postSubscribe(t, ts.URL, streamStmt)
	if code != http.StatusCreated {
		t.Fatalf("subscribe active: status %d: %s", code, raw)
	}

	// Eight day-closes produce more events than the 2-slot ring holds.
	// The active subscriber polls as it goes, so every event is read
	// before the ring overwrites it; the wedged one never reads. The
	// ring retains, it does not consume: the active subscriber's events
	// age out behind it too, but every one had been handed to it first,
	// so it must see neither a seq gap nor a drop count.
	var after int64 = -1
	var activeEvents []subEvent
	var lastEpoch int64
	for day := 1; day <= 8; day++ {
		lastEpoch = postTx(t, ts.URL, "stream", streamTx(day, 0, 10))
		waitSettled(t, ts.URL, active.ID, lastEpoch)
		ev := getEvents(t, ts.URL, active.ID, after, 0)
		activeEvents = append(activeEvents, ev.Events...)
		after = ev.NextAfter
		if ev.Dropped != 0 {
			t.Fatalf("day %d: active subscriber reads dropped = %d after %d delivered events, want 0", day, ev.Dropped, len(activeEvents))
		}
	}
	for i, e := range activeEvents {
		if e.Seq != int64(i) {
			t.Fatalf("active subscriber missed an event: seq %d at position %d", e.Seq, i)
		}
	}
	if len(activeEvents) < 8 {
		t.Fatalf("active subscriber saw %d events over 8 day-closes, want >= 8", len(activeEvents))
	}

	// The wedged subscriber refreshed just as often but retains only the
	// newest two events; the overflow is counted per subscription and in
	// the registry, and the retained seqs expose the gap.
	waitSettled(t, ts.URL, wedged.ID, lastEpoch)
	wv := getEvents(t, ts.URL, wedged.ID, -1, 0)
	if len(wv.Events) != 2 {
		t.Fatalf("wedged ring holds %d events, want 2", len(wv.Events))
	}
	if wv.Dropped == 0 {
		t.Fatal("wedged subscriber reported no drops after overflowing its ring")
	}
	if first := wv.Events[0].Seq; first == 0 {
		t.Fatal("wedged subscriber kept seq 0: ring did not drop oldest")
	}
	if got := s.Registry().Counter(MetricSubDropped).Value(); got == 0 {
		t.Fatal("tarmd_sub_dropped_total did not count the overflow")
	}

	// The shared executor is not wedged: a one-shot statement still runs.
	codeStmt, body, _ := postStatement(t, ts.URL,
		"MINE RULES FROM stream THRESHOLD SUPPORT 0.5 CONFIDENCE 0.6;", "")
	if codeStmt != http.StatusOK {
		t.Fatalf("statement alongside wedged subscriber: status %d: %s", codeStmt, body)
	}
}

// TestSubscribeLifecycle: register on a populated table, get the
// initial snapshot, observe it through list and get, then delete.
func TestSubscribeLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	t.Cleanup(s.subs.shutdown)

	stmt := "SUBSCRIBE MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.6"
	code, sub, raw := postSubscribe(t, ts.URL, stmt)
	if code != http.StatusCreated {
		t.Fatalf("subscribe: status %d: %s", code, raw)
	}
	if sub.Table != "baskets" || sub.Task == "" {
		t.Fatalf("view = %+v, want table baskets and a task", sub)
	}
	if !strings.HasPrefix(sub.Statement, "SUBSCRIBE MINE RULES") {
		t.Fatalf("statement not canonicalised: %q", sub.Statement)
	}

	// The registration snapshot arrives as event 0, all rules "added".
	ev := getEvents(t, ts.URL, sub.ID, -1, 5000)
	if len(ev.Events) != 1 || !ev.Events[0].Initial {
		t.Fatalf("events = %+v, want one initial snapshot", ev.Events)
	}
	for _, d := range ev.Events[0].Deltas {
		if d.Kind != tml.DeltaAdded {
			t.Fatalf("snapshot delta kind %q, want added", d.Kind)
		}
	}
	if ev.Events[0].Rules != len(ev.Events[0].Deltas) || ev.Events[0].Rules == 0 {
		t.Fatalf("snapshot rules=%d deltas=%d, want equal and nonzero",
			ev.Events[0].Rules, len(ev.Events[0].Deltas))
	}

	var list []subView
	if code, _ := getJSON(t, ts.URL+"/v1/subscriptions", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("list: status %d len %d, want 200 with 1", code, len(list))
	}
	var one subView
	if code, _ := getJSON(t, ts.URL+"/v1/subscriptions/"+sub.ID, &one); code != http.StatusOK || one.ID != sub.ID {
		t.Fatalf("get: status %d id %q", code, one.ID)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/subscriptions/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/subscriptions/"+sub.ID, nil); code != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", code)
	}
	if got := s.Registry().Gauge(MetricSubsActive).Value(); got != 0 {
		t.Fatalf("tarmd_subs_active = %v after delete, want 0", got)
	}
}

// TestSubscribeSSE: the same events are served as text/event-stream.
func TestSubscribeSSE(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	t.Cleanup(s.subs.shutdown)
	code, sub, raw := postSubscribe(t, ts.URL,
		"SUBSCRIBE MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.6")
	if code != http.StatusCreated {
		t.Fatalf("subscribe: status %d: %s", code, raw)
	}
	// Let the snapshot land first so one read suffices.
	getEvents(t, ts.URL, sub.ID, -1, 5000)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/subscriptions/"+sub.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var data string
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			data = strings.TrimPrefix(sc.Text(), "data: ")
			break
		}
	}
	var ev subEvent
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		t.Fatalf("SSE data is not one JSON event: %v in %q", err, data)
	}
	if ev.Seq != 0 || !ev.Initial {
		t.Fatalf("first SSE event = %+v, want seq 0 initial", ev)
	}
}

// TestStatementEndpointRejectsSubscribe: a SUBSCRIBE posted to the
// one-shot endpoint is a client error pointing at /v1/subscriptions.
func TestStatementEndpointRejectsSubscribe(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, _ := postStatement(t, ts.URL,
		"SUBSCRIBE MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.6", "")
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", code, body)
	}
	if e := decodeError(t, body); !strings.Contains(e.Error, "/v1/subscriptions") {
		t.Fatalf("error %q does not point at /v1/subscriptions", e.Error)
	}
}

// TestSubErrorBody400: a one-shot MINE (or garbage) posted to the
// subscription endpoint is 400 with the uniform error contract.
func TestSubErrorBody400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, stmt := range []string{
		"MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.6",
		"SUBSCRIBE MINE RULES FROM",
		"SUBSCRIBE MINE HISTORY FROM baskets RULE 'bread => milk' THRESHOLD SUPPORT 0.3 CONFIDENCE 0.6",
	} {
		code, _, body := postSubscribe(t, ts.URL, stmt)
		if code != http.StatusBadRequest {
			t.Fatalf("%q: status %d, want 400: %s", stmt, code, body)
		}
		if e := decodeError(t, body); e.Error == "" || e.RequestID == "" || e.RetryAfterMS != 0 {
			t.Fatalf("%q: error body %+v breaks the contract", stmt, e)
		}
	}
	// Bad event-stream parameters are 400 too.
	_, sub, _ := postSubscribe(t, ts.URL,
		"SUBSCRIBE MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.6")
	for _, q := range []string{"?after=x", "?wait_ms=-1", "?wait_ms=x"} {
		code, _ := getJSON(t, ts.URL+"/v1/subscriptions/"+sub.ID+"/events"+q, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("events%s: status %d, want 400", q, code)
		}
	}
}

// TestSubErrorBody404: unknown tables and unknown subscription ids.
func TestSubErrorBody404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, _, body := postSubscribe(t, ts.URL,
		"SUBSCRIBE MINE RULES FROM nosuch THRESHOLD SUPPORT 0.5 CONFIDENCE 0.6")
	if code != http.StatusNotFound {
		t.Fatalf("unknown table: status %d, want 404: %s", code, body)
	}
	if e := decodeError(t, body); !strings.Contains(e.Error, "nosuch") || e.RequestID == "" {
		t.Fatalf("error body %+v breaks the contract", e)
	}
	for _, u := range []string{"/v1/subscriptions/sub-99", "/v1/subscriptions/sub-99/events"} {
		if code, _ := getJSON(t, ts.URL+u, nil); code != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", u, code)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/subscriptions/sub-99", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown: status %d, want 404", resp.StatusCode)
	}
}

// TestSubErrorBody429: the subscription limit rejects with Retry-After
// in header and body, like the statement queue.
func TestSubErrorBody429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxSubs: 1})
	t.Cleanup(s.subs.shutdown)
	if code, _, raw := postSubscribe(t, ts.URL,
		"SUBSCRIBE MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.6"); code != http.StatusCreated {
		t.Fatalf("first subscribe: status %d: %s", code, raw)
	}
	code, _, body := postSubscribe(t, ts.URL,
		"SUBSCRIBE MINE PERIODS FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.6")
	if code != http.StatusTooManyRequests {
		t.Fatalf("second subscribe: status %d, want 429: %s", code, body)
	}
	e := decodeError(t, body)
	if e.RetryAfterMS != 1000 || e.RequestID == "" || !strings.Contains(e.Error, "limit") {
		t.Fatalf("429 body %+v breaks the contract", e)
	}
	if got := s.Registry().Counter(MetricSubRejected).Value(); got != 1 {
		t.Fatalf("tarmd_sub_rejected_total = %d, want 1", got)
	}
}

// TestSubErrorBody503: a draining server refuses registrations and its
// standing workers are stopped.
func TestSubErrorBody503(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	code, _, body := postSubscribe(t, ts.URL,
		"SUBSCRIBE MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.6")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", code, body)
	}
	e := decodeError(t, body)
	if e.RetryAfterMS == 0 || !strings.Contains(e.Error, "draining") {
		t.Fatalf("503 body %+v breaks the contract", e)
	}
}
