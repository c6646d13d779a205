package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/tdb"
)

// appendRequest and appendTx are the POST /v1/append body as
// encoding/json decodes it: the reference decodeAppend must agree with.
type appendRequest struct {
	Table        string     `json:"table"`
	Transactions []appendTx `json:"transactions"`
}

type appendTx struct {
	At    time.Time `json:"at"`
	Items []string  `json:"items"`
}

// referenceAppend is the reference append decoder: json.Unmarshal into
// appendRequest, then the handler's validation.
func referenceAppend(body []byte) (appendRequest, error) {
	var req appendRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return req, err
	}
	if req.Table == "" {
		return req, fmt.Errorf("no table")
	}
	if len(req.Transactions) == 0 {
		return req, fmt.Errorf("no transactions")
	}
	for i, tx := range req.Transactions {
		if tx.At.IsZero() {
			return req, fmt.Errorf("transaction %d: no timestamp", i)
		}
		if err := tdb.CheckTime(tx.At); err != nil {
			return req, fmt.Errorf("transaction %d: %w", i, err)
		}
		if len(tx.Items) == 0 {
			return req, fmt.Errorf("transaction %d: no items", i)
		}
	}
	return req, nil
}

// postAppend sends one append batch and returns the status code and
// decoded response (nil unless 200).
func postAppend(t *testing.T, url, body string) (int, *appendResponse, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/append", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, string(raw)
	}
	var out appendResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("bad append response %s: %v", raw, err)
	}
	return resp.StatusCode, &out, string(raw)
}

// appendBody builds an append request body with n transactions of the
// given items, one minute apart starting at day 29 of the fixture.
func appendBody(n int, items ...string) string {
	type tx struct {
		At    time.Time `json:"at"`
		Items []string  `json:"items"`
	}
	at := time.Date(2024, 1, 29, 12, 0, 0, 0, time.UTC)
	txs := make([]tx, n)
	for i := range txs {
		txs[i] = tx{At: at.Add(time.Duration(i) * time.Minute), Items: items}
	}
	buf, _ := json.Marshal(map[string]any{"table": "baskets", "transactions": txs})
	return string(buf)
}

// TestAppendBasic checks the happy path: the batch lands, the response
// reports the new epoch, and the journal and metrics record the write.
func TestAppendBasic(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	code, out, raw := postAppend(t, ts.URL, appendBody(5, "bread", "milk"))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if out.Table != "baskets" || out.Appended != 5 {
		t.Errorf("response %+v", out)
	}
	// The fixture is 280 appends; the batch moves the epoch to 285.
	if out.Epoch != 285 {
		t.Errorf("epoch = %d, want 285", out.Epoch)
	}
	tbl, _ := s.db.TxTable("baskets")
	if tbl.Len() != 285 {
		t.Errorf("table rows = %d, want 285", tbl.Len())
	}
	rec := s.Journal().Recent(1)
	if len(rec) != 1 || rec[0].Task != "append" || rec[0].Rows != 5 {
		t.Errorf("journal record: %+v", rec)
	}
	if got := s.Registry().Counter(MetricAppends).Value(); got != 1 {
		t.Errorf("append counter = %d, want 1", got)
	}
	if got := s.Registry().Counter(MetricAppendTx).Value(); got != 5 {
		t.Errorf("append tx counter = %d, want 5", got)
	}
}

// TestAppendThenWarmMineDelta is the end-to-end write-path acceptance
// check: a MINE warms the cache, an HTTP append dirties one granule,
// and the next identical MINE is served through delta maintenance —
// with the same rows a cold server mining the post-append data returns.
func TestAppendThenWarmMineDelta(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	stmt := testStatements[1] // periods at day granularity

	if code, body, _ := postStatement(t, ts.URL, stmt, "text"); code != http.StatusOK {
		t.Fatalf("warmup status %d: %s", code, body)
	}
	if code, _, raw := postAppend(t, ts.URL, appendBody(10, "bread", "milk")); code != http.StatusOK {
		t.Fatalf("append status %d: %s", code, raw)
	}
	code, got, _ := postStatement(t, ts.URL, stmt, "text")
	if code != http.StatusOK {
		t.Fatalf("warm status %d: %s", code, got)
	}

	cs := s.Executor().Cache.Stats()
	if cs.Deltas != 1 || cs.Invalidations != 0 {
		t.Errorf("cache stats after append+mine: %+v, want 1 delta, 0 invalidations", cs)
	}
	rec := s.Journal().Recent(1)
	if len(rec) != 1 || rec[0].Cache != "delta" {
		t.Errorf("journal cache outcome = %+v, want delta", rec)
	}

	// Reference: a fresh server whose fixture receives the same append
	// before its first (cold) mine.
	_, ts2 := newTestServer(t, Config{})
	if code, _, raw := postAppend(t, ts2.URL, appendBody(10, "bread", "milk")); code != http.StatusOK {
		t.Fatalf("reference append status %d: %s", code, raw)
	}
	code, want, _ := postStatement(t, ts2.URL, stmt, "text")
	if code != http.StatusOK {
		t.Fatalf("reference status %d: %s", code, want)
	}
	if got != want {
		t.Errorf("delta-maintained answer differs from cold answer:\ndelta:\n%s\ncold:\n%s", got, want)
	}
}

// TestAppendBadRequests checks the 4xx family for the ingest endpoint,
// and that a rejected batch interns none of its names.
func TestAppendBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	dictLen := s.db.Dict().Len()
	for _, tc := range []struct {
		name, body string
		code       int
	}{
		{"bad json", "{", http.StatusBadRequest},
		{"no table", `{"transactions": [{"at": "2024-01-29T12:00:00Z", "items": ["a"]}]}`, http.StatusBadRequest},
		{"unknown table", `{"table": "nope", "transactions": [{"at": "2024-01-29T12:00:00Z", "items": ["a"]}]}`, http.StatusNotFound},
		{"no transactions", `{"table": "baskets", "transactions": []}`, http.StatusBadRequest},
		{"no timestamp", `{"table": "baskets", "transactions": [{"items": ["a"]}]}`, http.StatusBadRequest},
		{"no items", `{"table": "baskets", "transactions": [{"at": "2024-01-29T12:00:00Z"}]}`, http.StatusBadRequest},
		{"timestamp beyond UnixNano", `{"table": "baskets", "transactions": [{"at": "1500-06-01T00:00:00Z", "items": ["a"]}]}`, http.StatusBadRequest},
		// Valid once whole, but over the limit: refused, not truncated.
		{"body over 8 MiB", `{"table": "baskets",` + strings.Repeat(" ", maxAppendBody) +
			`"transactions": [{"at": "2024-01-29T12:00:00Z", "items": ["a"]}]}`, http.StatusRequestEntityTooLarge},
	} {
		resp, err := http.Post(ts.URL+"/v1/append", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}
	if got := s.Registry().Counter(MetricAppendErrors).Value(); got != 8 {
		t.Errorf("append error counter = %d, want 8", got)
	}
	tbl, _ := s.db.TxTable("baskets")
	if tbl.Len() != 280 {
		t.Errorf("table rows = %d after rejected appends, want 280", tbl.Len())
	}
	if got := s.db.Dict().Len(); got != dictLen {
		t.Errorf("dictionary grew from %d to %d names on rejected appends", dictLen, got)
	}
}

// TestAppendDraining503 checks a draining server refuses writes the
// same way it refuses statements.
func TestAppendDraining503(t *testing.T) {
	bt := newBlockTracer()
	s, ts := newTestServer(t, Config{Pool: 2, Tracer: bt})

	result := make(chan int, 1)
	go func() {
		code, _, _ := postStatement(t, ts.URL, testStatements[2], "")
		result <- code
	}()
	<-bt.entered
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	waitHealthz(t, ts.URL, func(h map[string]any) bool { return h["status"] == "draining" })

	dictLen := s.db.Dict().Len()
	resp, err := http.Post(ts.URL+"/v1/append", "application/json",
		strings.NewReader(appendBody(1, "bread", "drained")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("append during drain: status %d, want 503", resp.StatusCode)
	}
	if got := s.db.Dict().Len(); got != dictLen {
		t.Errorf("dictionary grew from %d to %d names on a refused append", dictLen, got)
	}
	if retry := resp.Header.Get("Retry-After"); retry != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", retry)
	}

	close(bt.release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	<-result
}

// TestConcurrentAppendMine hammers a shared server with interleaved
// writes and warm mines: every request must succeed, the final row
// count must account for every appended transaction, and the shared
// cache must never serve a stale epoch (each mine's rows match a cold
// run at whatever epoch it observed — enforced here indirectly by the
// race detector plus the epoch consistency checks inside the cache).
func TestConcurrentAppendMine(t *testing.T) {
	const (
		writers = 4
		miners  = 4
		rounds  = 8
	)
	s, ts := newTestServer(t, Config{Pool: writers + miners, Queue: writers + miners})
	stmt := testStatements[1]

	var wg sync.WaitGroup
	errs := make(chan string, (writers+miners)*rounds)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if code, _, raw := postAppend(t, ts.URL, appendBody(3, "bread", "milk")); code != http.StatusOK {
					errs <- fmt.Sprintf("append: status %d: %s", code, raw)
				}
			}
		}()
	}
	for m := 0; m < miners; m++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if code, body, _ := postStatement(t, ts.URL, stmt, ""); code != http.StatusOK {
					errs <- fmt.Sprintf("mine: status %d: %s", code, body)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	tbl, _ := s.db.TxTable("baskets")
	if want := 280 + writers*rounds*3; tbl.Len() != want {
		t.Errorf("table rows = %d, want %d", tbl.Len(), want)
	}
	if got := s.Registry().Counter(MetricAppendTx).Value(); got != int64(writers*rounds*3) {
		t.Errorf("append tx counter = %d, want %d", got, writers*rounds*3)
	}
	// One final warm statement against the settled table must agree with
	// a cold rebuild of the same data.
	code, got, _ := postStatement(t, ts.URL, stmt, "text")
	if code != http.StatusOK {
		t.Fatalf("settled mine: status %d", code)
	}
	cold := httptest.NewServer(New(s.db, Config{}))
	defer cold.Close()
	codeCold, want, _ := postStatement(t, cold.URL, stmt, "text")
	if codeCold != http.StatusOK {
		t.Fatalf("cold mine: status %d", codeCold)
	}
	if got != want {
		t.Errorf("warm answer diverged from cold rebuild:\nwarm:\n%s\ncold:\n%s", got, want)
	}
}
