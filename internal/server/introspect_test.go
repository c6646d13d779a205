package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/core"
	"github.com/tarm-project/tarm/internal/obs"
)

// postWithID sends one statement with an explicit X-Request-ID header
// and returns the status, response headers and body.
func postWithID(t *testing.T, url, stmt, rid string) (int, http.Header, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/statements", strings.NewReader(stmt))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	if rid != "" {
		req.Header.Set("X-Request-ID", rid)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(body)
}

// getJSON fetches url and decodes the JSON body into v.
func getJSON(t *testing.T, url string, v any) (int, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: %v in %q", url, err, body)
		}
	}
	return resp.StatusCode, resp.Header
}

// decodeError parses the uniform error body.
func decodeError(t *testing.T, body string) errorResponse {
	t.Helper()
	var e errorResponse
	if err := json.Unmarshal([]byte(body), &e); err != nil {
		t.Fatalf("error body is not JSON: %v in %q", err, body)
	}
	return e
}

// queriesJSON mirrors the GET /v1/queries answer.
type queriesJSON struct {
	Inflight []obs.InflightInfo `json:"inflight"`
	Recent   []*obs.QueryRecord `json:"recent"`
	Total    int64              `json:"total"`
}

// TestErrorBodyBadStatement400: a statement the server will not run
// comes back as 400 with the uniform JSON error contract — message
// plus the request ID echoed in header and body.
func TestErrorBodyBadStatement400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, hdr, body := postWithID(t, ts.URL, "SELECT * FROM baskets", "err-400")
	if code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", code, body)
	}
	e := decodeError(t, body)
	if e.Error == "" || !strings.Contains(e.Error, "MINE") {
		t.Errorf("error = %q, want a MINE-only message", e.Error)
	}
	if e.RequestID != "err-400" || hdr.Get("X-Request-ID") != "err-400" {
		t.Errorf("request id body=%q header=%q, want err-400 on both", e.RequestID, hdr.Get("X-Request-ID"))
	}
	if e.RetryAfterMS != 0 {
		t.Errorf("retry_after_ms = %d on a 400, want 0", e.RetryAfterMS)
	}
}

// TestErrorBodyQueueFull429: backpressure rejections carry the
// Retry-After hint in the JSON body (milliseconds) as well as the
// header, plus the request ID.
func TestErrorBodyQueueFull429(t *testing.T) {
	bt := newBlockTracer()
	_, ts := newTestServer(t, Config{Pool: 1, Queue: 1, Tracer: bt})
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			code, _, _ := postStatement(t, ts.URL, testStatements[2], "")
			results <- code
		}()
	}
	<-bt.entered
	waitHealthz(t, ts.URL, func(h map[string]any) bool {
		return h["inflight"].(float64) == 1 && h["queued"].(float64) == 1
	})

	code, hdr, body := postWithID(t, ts.URL, testStatements[2], "err-429")
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", code, body)
	}
	e := decodeError(t, body)
	if e.RetryAfterMS != 1000 || hdr.Get("Retry-After") != "1" {
		t.Errorf("retry_after_ms = %d, want 1000 (header %q, want \"1\")", e.RetryAfterMS, hdr.Get("Retry-After"))
	}
	if e.RequestID != "err-429" {
		t.Errorf("request_id = %q, want err-429", e.RequestID)
	}
	if !strings.Contains(e.Error, "queue full") {
		t.Errorf("error = %q, want a queue-full message", e.Error)
	}

	close(bt.release)
	for i := 0; i < 2; i++ {
		if c := <-results; c != http.StatusOK {
			t.Errorf("blocked request finished with %d, want 200", c)
		}
	}
}

// TestErrorBodyDraining503: a draining server rejects with the same
// JSON contract, retry hint included.
func TestErrorBodyDraining503(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, _, body := postWithID(t, ts.URL, testStatements[0], "err-503")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", code, body)
	}
	e := decodeError(t, body)
	if !strings.Contains(e.Error, "draining") || e.RequestID != "err-503" {
		t.Errorf("body = %+v, want draining message with request id", e)
	}
	if e.RetryAfterMS != 1000 {
		t.Errorf("retry_after_ms = %d, want 1000", e.RetryAfterMS)
	}
}

// TestErrorBodyTimeout504: deadline exhaustion keeps the contract too.
func TestErrorBodyTimeout504(t *testing.T) {
	_, ts := newTestServer(t, Config{Timeout: time.Nanosecond})
	code, _, body := postWithID(t, ts.URL, testStatements[2], "err-504")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", code, body)
	}
	e := decodeError(t, body)
	if !strings.Contains(e.Error, "deadline") || e.RequestID != "err-504" {
		t.Errorf("body = %+v, want deadline message with request id err-504", e)
	}
}

// TestRequestIDPropagation: the server echoes a well-formed
// client-supplied X-Request-ID on success responses (header and JSON
// body), generates one when absent, and discards malformed IDs rather
// than reflecting them.
func TestRequestIDPropagation(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	code, hdr, body := postWithID(t, ts.URL, testStatements[0], "client-id-1")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if got := hdr.Get("X-Request-ID"); got != "client-id-1" {
		t.Errorf("header echo = %q, want client-id-1", got)
	}
	var resp struct {
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.RequestID != "client-id-1" {
		t.Errorf("body request_id = %q, want client-id-1", resp.RequestID)
	}
	// The journal keys the statement by the same ID.
	if rec, _ := s.Journal().Get("client-id-1"); rec == nil {
		t.Error("journal has no record under the client-supplied request ID")
	}

	// No header: a generated 16-hex-char trace ID.
	code, hdr, _ = postWithID(t, ts.URL, testStatements[0], "")
	if code != http.StatusOK {
		t.Fatal("second statement failed")
	}
	if got := hdr.Get("X-Request-ID"); len(got) != 16 {
		t.Errorf("generated id = %q, want 16 hex chars", got)
	}

	// A malformed ID (spaces, punctuation) must not be reflected.
	code, hdr, _ = postWithID(t, ts.URL, testStatements[0], "bad id<script>")
	if code != http.StatusOK {
		t.Fatal("third statement failed")
	}
	if got := hdr.Get("X-Request-ID"); got == "bad id<script>" || len(got) != 16 {
		t.Errorf("malformed id came back as %q, want a fresh generated id", got)
	}
}

// TestQueriesInFlight wedges a statement mid-pass and checks the live
// introspection path end to end: /v1/queries lists it in flight with
// its current span, /v1/queries/{id} serves the partial span tree, and
// after release the same ID resolves to a completed record.
func TestQueriesInFlight(t *testing.T) {
	bt := newBlockTracer()
	_, ts := newTestServer(t, Config{Pool: 2, Tracer: bt})

	result := make(chan int, 1)
	go func() {
		code, _, _ := postWithID(t, ts.URL, testStatements[2], "wedge-1")
		result <- code
	}()
	<-bt.entered

	var qv queriesJSON
	if code, _ := getJSON(t, ts.URL+"/v1/queries", &qv); code != http.StatusOK {
		t.Fatalf("GET /v1/queries status %d", code)
	}
	if len(qv.Inflight) != 1 {
		t.Fatalf("inflight = %+v, want exactly the wedged statement", qv.Inflight)
	}
	inf := qv.Inflight[0]
	if inf.TraceID != "wedge-1" || !strings.Contains(inf.Statement, "MINE CYCLES") {
		t.Errorf("inflight = %+v, want wedge-1 / MINE CYCLES", inf)
	}
	if inf.Task != "cycles" {
		t.Errorf("task = %q, want cycles", inf.Task)
	}
	// The statement is wedged inside its first counting pass; the trace
	// opened the pass span before the blocking tracer parked it.
	if inf.Current != "pass:L1" {
		t.Errorf("current span = %q, want pass:L1", inf.Current)
	}

	// The by-ID view serves the partial tree, open spans marked.
	var live struct {
		obs.InflightInfo
		Spans []*obs.SpanNode `json:"spans"`
	}
	if code, _ := getJSON(t, ts.URL+"/v1/queries/wedge-1", &live); code != http.StatusOK {
		t.Fatalf("GET /v1/queries/wedge-1 status %d", code)
	}
	if len(live.Spans) != 1 || live.Spans[0].Name != obs.SpanStatement || !live.Spans[0].Open {
		t.Fatalf("live spans = %+v, want one open statement root", live.Spans)
	}
	if pass := obs.Find(live.Spans, "pass:L1"); pass == nil || !pass.Open {
		t.Fatalf("live tree has no open pass:L1 span")
	}

	close(bt.release)
	if code := <-result; code != http.StatusOK {
		t.Fatalf("wedged statement finished with %d", code)
	}

	if code, _ := getJSON(t, ts.URL+"/v1/queries", &qv); code != http.StatusOK {
		t.Fatal("second /v1/queries failed")
	}
	if len(qv.Inflight) != 0 || qv.Total != 1 || len(qv.Recent) != 1 {
		t.Fatalf("after release: inflight=%d total=%d recent=%d, want 0/1/1",
			len(qv.Inflight), qv.Total, len(qv.Recent))
	}
	rec := qv.Recent[0]
	if rec.TraceID != "wedge-1" || rec.Error != "" || rec.Rows == 0 {
		t.Errorf("completed record = %+v", rec)
	}
	if rec.Spans != nil {
		t.Error("list view carries span trees; they must be stripped")
	}
}

// TestQueryByIDSpanTreeMatchesExplain is the HTTP-level acceptance
// check: the span tree served for a statement's request ID must carry
// exactly the per-operator wall times the EXPLAIN observed section
// reports for that statement — same measurement, same rendering.
func TestQueryByIDSpanTreeMatchesExplain(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	stmt := testStatements[1] // periods
	code, _, body := postWithID(t, ts.URL, stmt, "acc-trace-1")
	if code != http.StatusOK {
		t.Fatalf("statement status %d: %s", code, body)
	}

	var rec obs.QueryRecord
	if code, _ := getJSON(t, ts.URL+"/v1/queries/acc-trace-1", &rec); code != http.StatusOK {
		t.Fatalf("GET /v1/queries/acc-trace-1 status %d", code)
	}
	if rec.TraceID != "acc-trace-1" || len(rec.Spans) == 0 {
		t.Fatalf("record = %+v, want spans under acc-trace-1", rec)
	}

	// The EXPLAIN observed section for the same statement, from the
	// same server (the executor keeps the last run's measurements).
	var explain struct {
		Rows [][]string `json:"rows"`
	}
	ecode, _, ebody := postWithID(t, ts.URL, "EXPLAIN "+stmt, "")
	if ecode != http.StatusOK {
		t.Fatalf("EXPLAIN status %d: %s", ecode, ebody)
	}
	if err := json.Unmarshal([]byte(ebody), &explain); err != nil {
		t.Fatal(err)
	}
	observed := map[string]string{}
	for _, row := range explain.Rows {
		if len(row) >= 2 && strings.HasPrefix(row[0], "observed: op:") {
			observed[strings.TrimPrefix(row[0], "observed: ")] = row[1]
		}
	}
	if len(observed) == 0 {
		t.Fatal("EXPLAIN reported no observed operator rows")
	}
	for op, wantMS := range observed {
		span := obs.Find(rec.Spans, op)
		if span == nil {
			t.Errorf("operator %s observed by EXPLAIN but absent from the trace", op)
			continue
		}
		if got := fmt.Sprintf("%.1fms", span.WallMS); got != wantMS {
			t.Errorf("%s: trace %s, EXPLAIN %s — must match exactly", op, got, wantMS)
		}
	}
	for _, c := range rec.Spans[0].Children {
		if strings.HasPrefix(c.Name, "op:") {
			if _, ok := observed[c.Name]; !ok {
				t.Errorf("trace span %s missing from EXPLAIN observed section", c.Name)
			}
		}
	}
}

// TestCacheEndpoint: after one cold build the cache view shows the
// counters and the resident entry for the fixture table.
func TestCacheEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, _, body := postWithID(t, ts.URL, testStatements[2], ""); code != http.StatusOK {
		t.Fatalf("statement status %d: %s", code, body)
	}
	var view struct {
		Stats   core.CacheStats  `json:"stats"`
		Entries []core.EntryInfo `json:"entries"`
	}
	if code, _ := getJSON(t, ts.URL+"/v1/cache", &view); code != http.StatusOK {
		t.Fatalf("GET /v1/cache status %d", code)
	}
	if view.Stats.Misses != 1 {
		t.Errorf("misses = %d, want 1 cold build", view.Stats.Misses)
	}
	if len(view.Entries) != 1 {
		t.Fatalf("entries = %+v, want the one resident hold table", view.Entries)
	}
	e := view.Entries[0]
	if e.Table != "baskets" || e.Granularity != "day" {
		t.Errorf("entry = %+v, want baskets@day", e)
	}
	if e.Bytes <= 0 || e.Itemsets <= 0 || e.Granules != 28 {
		t.Errorf("entry sizes = %+v, want bytes/itemsets > 0 and 28 granules", e)
	}
}

// TestQueryByIDNotFound: an unknown ID is a JSON 404, not a bare one.
func TestQueryByIDNotFound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/queries/no-such-query")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404: %s", resp.StatusCode, body)
	}
	e := decodeError(t, string(body))
	if !strings.Contains(e.Error, "no-such-query") || e.RequestID == "" {
		t.Errorf("404 body = %+v, want the id in the message and a request id", e)
	}
}

// TestJournalDisabled: JournalSize < 0 turns the journal off; the
// introspection endpoints keep answering with empty views and
// statements still execute.
func TestJournalDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{JournalSize: -1})
	if s.Journal() != nil {
		t.Fatal("journal built despite JournalSize < 0")
	}
	if code, _, body := postWithID(t, ts.URL, testStatements[0], "off-1"); code != http.StatusOK {
		t.Fatalf("statement status %d: %s", code, body)
	}
	var qv queriesJSON
	if code, _ := getJSON(t, ts.URL+"/v1/queries", &qv); code != http.StatusOK {
		t.Fatal("GET /v1/queries failed with the journal off")
	}
	if len(qv.Inflight) != 0 || len(qv.Recent) != 0 || qv.Total != 0 {
		t.Fatalf("disabled journal view = %+v, want empty", qv)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/queries/off-1", nil); code != http.StatusNotFound {
		t.Fatalf("by-ID with journal off: status %d, want 404", code)
	}
}

// TestConcurrentSessionsIntrospection hammers the journal through the
// full HTTP stack: many sessions posting statements while readers poll
// every introspection endpoint. Runs under the CI race detector.
func TestConcurrentSessionsIntrospection(t *testing.T) {
	const writers = 6
	const perWriter = 3
	_, ts := newTestServer(t, Config{Pool: 4, Queue: writers * perWriter})

	done := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var qv queriesJSON
				getJSON(t, ts.URL+"/v1/queries?n=5", &qv)
				for _, inf := range qv.Inflight {
					getJSON(t, ts.URL+"/v1/queries/"+inf.TraceID, nil)
				}
				getJSON(t, ts.URL+"/v1/cache", nil)
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				stmt := testStatements[(w+i)%3]
				rid := fmt.Sprintf("race-w%d-i%d", w, i)
				if code, _, body := postWithID(t, ts.URL, stmt, rid); code != http.StatusOK {
					t.Errorf("%s: status %d: %s", rid, code, body)
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	readers.Wait()

	var qv queriesJSON
	getJSON(t, ts.URL+"/v1/queries", &qv)
	if qv.Total != writers*perWriter {
		t.Errorf("total = %d, want %d", qv.Total, writers*perWriter)
	}
	if len(qv.Inflight) != 0 {
		t.Errorf("inflight = %+v after all sessions finished", qv.Inflight)
	}
}
