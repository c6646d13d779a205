package server

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/clihelp"
	"github.com/tarm-project/tarm/internal/core"
	"github.com/tarm-project/tarm/internal/minisql"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/tml"
)

// fixtureDB is the 28-day basket fixture shared with the tml tests: a
// weekday staple (bread+milk), a seasonal week (bbq+charcoal in days
// 7..13) and a weekend treat (choc+wine), 10 transactions per day.
func fixtureDB(t *testing.T) *tdb.DB {
	t.Helper()
	return fillFixture(t, tdb.NewMemDB())
}

// fillFixture writes the basket fixture into db's new "baskets" table.
func fillFixture(t *testing.T, db *tdb.DB) *tdb.DB {
	t.Helper()
	tbl, err := db.CreateTxTable("baskets")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2024, 1, 1, 12, 0, 0, 0, time.UTC) // a Monday
	for d := 0; d < 28; d++ {
		at := start.AddDate(0, 0, d)
		weekend := d%7 == 5 || d%7 == 6
		seasonal := d >= 7 && d <= 13
		for i := 0; i < 10; i++ {
			basket := []string{"bread"}
			if i < 8 {
				basket = append(basket, "milk")
			}
			if seasonal {
				basket = append(basket, "bbq", "charcoal")
			}
			if weekend && i < 9 {
				basket = append(basket, "choc", "wine")
			}
			tbl.Append(at.Add(time.Duration(i)*time.Minute), db.Dict().InternAll(basket...))
		}
	}
	return db
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(fixtureDB(t), cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// postStatement sends one statement as a raw text body and returns the
// status code, body and Retry-After header.
func postStatement(t *testing.T, url, stmt, format string) (int, string, string) {
	t.Helper()
	u := url + "/v1/statements"
	if format != "" {
		u += "?format=" + format
	}
	resp, err := http.Post(u, "text/plain", strings.NewReader(stmt))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Retry-After")
}

// The statements of the five mining tasks plus EXPLAIN, used by the
// identity and concurrency tests.
var testStatements = []string{
	"MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.6;",
	"MINE PERIODS FROM baskets AT GRANULARITY day THRESHOLD SUPPORT 0.3 CONFIDENCE 0.6 FREQUENCY 0.8 MIN LENGTH 3;",
	"MINE CYCLES FROM baskets AT GRANULARITY day THRESHOLD SUPPORT 0.3 CONFIDENCE 0.6 FREQUENCY 0.8 MAX LENGTH 14 MIN REPS 2;",
	"MINE CALENDARS FROM baskets AT GRANULARITY day THRESHOLD SUPPORT 0.3 CONFIDENCE 0.6 FREQUENCY 0.8 MIN REPS 2;",
	"MINE RULES FROM baskets DURING 'weekday in (6..7)' AT GRANULARITY day THRESHOLD SUPPORT 0.3 CONFIDENCE 0.6 FREQUENCY 0.8;",
	"MINE HISTORY FROM baskets RULE 'bread => milk' AT GRANULARITY day THRESHOLD SUPPORT 0.3 CONFIDENCE 0.6;",
}

// TestTextFormatMatchesTarmine is the byte-identity acceptance check:
// for every task, ?format=text must return exactly the bytes tarmine
// prints for the same statement, because both ends render through
// minisql.Format.
func TestTextFormatMatchesTarmine(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// The reference: a plain session over an identical database, the
	// same path `tarmine -e` takes.
	session := tml.NewSession(fixtureDB(t))
	for _, stmt := range testStatements {
		res, err := session.ExecContext(context.Background(), stmt)
		if err != nil {
			t.Fatalf("%s: reference execution: %v", stmt, err)
		}
		var want strings.Builder
		minisql.Format(&want, res)

		code, got, _ := postStatement(t, ts.URL, stmt, "text")
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", stmt, code, got)
		}
		if got != want.String() {
			t.Errorf("%s:\nserver:\n%s\ntarmine:\n%s", stmt, got, want.String())
		}
	}
}

// TestJSONResponse checks the default JSON shape: display-rendered
// cells, a row count, and the statement echoed back.
func TestJSONResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	stmt := testStatements[0]
	resp, err := http.Post(ts.URL+"/v1/statements", "application/json",
		strings.NewReader(fmt.Sprintf(`{"statement": %q}`, stmt)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Statement string     `json:"statement"`
		Cols      []string   `json:"cols"`
		Rows      [][]string `json:"rows"`
		RowCount  int        `json:"row_count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Statement != stmt || len(out.Cols) == 0 || out.RowCount != len(out.Rows) || out.RowCount == 0 {
		t.Errorf("bad response: %+v", out)
	}
}

// TestConcurrentIdenticalStatementsSingleBuild is the shared-cache
// acceptance check: N concurrent identical statements must trigger
// exactly one cold hold-table build — everyone else joins the flight
// or reads the resident entry — observable both in the cache's own
// stats and in the server's metrics registry.
func TestConcurrentIdenticalStatementsSingleBuild(t *testing.T) {
	const n = 8
	s, ts := newTestServer(t, Config{Pool: n, Queue: n})
	stmt := testStatements[2] // cycles: a real multi-pass build

	var wg sync.WaitGroup
	type reply struct {
		code int
		body string
	}
	replies := make([]reply, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body, _ := postStatement(t, ts.URL, stmt, "text")
			replies[i] = reply{code, body}
		}(i)
	}
	wg.Wait()

	for i, r := range replies {
		if r.code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, r.code, r.body)
		}
		if r.body != replies[0].body {
			t.Errorf("request %d: body differs from request 0", i)
		}
	}

	cs := s.Executor().Cache.Stats()
	if cs.Misses != 1 {
		t.Errorf("cold builds = %d, want exactly 1 (stats %+v)", cs.Misses, cs)
	}
	if warm := cs.Hits + cs.Rethresholds + cs.Dedups; warm != n-1 {
		t.Errorf("warm statements = %d, want %d (stats %+v)", warm, n-1, cs)
	}
	if got := s.Registry().Counter("tarm_holdcache_misses_total").Value(); got != 1 {
		t.Errorf("registry misses = %d, want 1", got)
	}
	if got := s.Registry().Counter(MetricOK).Value(); got != n {
		t.Errorf("ok counter = %d, want %d", got, n)
	}
	// Occupancy gauges must settle back to zero once every statement
	// has finished (the slot-release and admission defers each
	// republish, and the admission one runs last).
	if got := s.Registry().Gauge(MetricInflight).Value(); got != 0 {
		t.Errorf("inflight gauge = %v after drain, want 0", got)
	}
	if got := s.Registry().Gauge(MetricQueueDepth).Value(); got != 0 {
		t.Errorf("queue depth gauge = %v after drain, want 0", got)
	}
}

// TestDeadlineExceeded504 checks the per-statement deadline path: a
// server timeout far below any real mining run must surface as 504
// via the context plumbing, and bump the timeout counter.
// TestCacheBytesConfig pins the two readings of a zero cache budget: a
// library caller's Config{CacheBytes: 0} means "unset" and gets the
// default, while the -cache 0 flag means "disabled" — clihelp converts
// it to a negative budget so it survives the defaulting.
func TestCacheBytesConfig(t *testing.T) {
	s := New(fixtureDB(t), Config{})
	if c := s.Executor().Cache; c == nil || c.Stats().MaxBytes != core.DefaultCacheBytes {
		t.Errorf("Config{CacheBytes: 0}: cache %+v, want the %d-byte default", c.Stats(), core.DefaultCacheBytes)
	}
	for _, mb := range []int{0, -1} {
		budget := (&clihelp.MiningFlags{CacheMB: mb}).CacheBytes()
		s := New(fixtureDB(t), Config{CacheBytes: budget})
		if c := s.Executor().Cache; c != nil {
			t.Errorf("-cache %d (CacheBytes %d): cache with budget %d, want caching disabled", mb, budget, c.Stats().MaxBytes)
		}
	}
}

func TestDeadlineExceeded504(t *testing.T) {
	s, ts := newTestServer(t, Config{Timeout: time.Nanosecond})
	code, body, _ := postStatement(t, ts.URL, testStatements[2], "")
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", code, body)
	}
	if !strings.Contains(body, "deadline") {
		t.Errorf("body %q does not mention the deadline", body)
	}
	if got := s.Registry().Counter(MetricTimeouts).Value(); got != 1 {
		t.Errorf("timeout counter = %d, want 1", got)
	}
}

// TestRequestTimeoutTightensDeadline checks that a request's
// timeout_ms lowers the server deadline for that request only.
func TestRequestTimeoutTightensDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{Timeout: time.Hour})
	resp, err := http.Post(ts.URL+"/v1/statements", "application/json",
		strings.NewReader(fmt.Sprintf(`{"statement": %q, "timeout_ms": 1}`, testStatements[2])))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// 1ms may or may not expire before the first cancellation point;
	// accept 504 (expired) but never a hang — and a second, untimed
	// request must still succeed under the 1h server deadline.
	if resp.StatusCode != http.StatusGatewayTimeout && resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 or 504", resp.StatusCode)
	}
	code, body, _ := postStatement(t, ts.URL, testStatements[0], "")
	if code != http.StatusOK {
		t.Fatalf("follow-up status %d: %s", code, body)
	}
}

// blockTracer wedges the first counting pass open until release is
// closed, holding its statement in the pool so the tests can observe a
// full queue and a drain deterministically.
type blockTracer struct {
	entered chan struct{} // closed when a pass has started
	release chan struct{} // close to let the statement finish
	once    sync.Once
}

func newBlockTracer() *blockTracer {
	return &blockTracer{entered: make(chan struct{}), release: make(chan struct{})}
}

func (b *blockTracer) Enabled() bool         { return true }
func (b *blockTracer) StartTask(string)      {}
func (b *blockTracer) EndTask()              {}
func (b *blockTracer) EndPass(obs.PassStats) {}
func (b *blockTracer) Counter(string, int64) {}
func (b *blockTracer) Gauge(string, float64) {}
func (b *blockTracer) StartPass(int) {
	b.once.Do(func() { close(b.entered) })
	<-b.release
}

// waitHealthz polls /healthz until pred holds or the test deadline.
func waitHealthz(t *testing.T, url string, pred func(h map[string]any) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h map[string]any
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if pred(h) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("healthz never reached the expected state")
}

// TestQueueFull429 fills the pool (1) and the queue (1) with blocked
// statements and checks the next request is rejected with 429 and a
// Retry-After hint, then that the blocked work still completes.
func TestQueueFull429(t *testing.T) {
	bt := newBlockTracer()
	s, ts := newTestServer(t, Config{Pool: 1, Queue: 1, Tracer: bt})

	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			code, _, _ := postStatement(t, ts.URL, testStatements[2], "")
			results <- code
		}()
	}
	// Wait until one statement is executing (wedged in its first pass)
	// and the other is queued; then the server is exactly full.
	<-bt.entered
	waitHealthz(t, ts.URL, func(h map[string]any) bool {
		return h["inflight"].(float64) == 1 && h["queued"].(float64) == 1
	})

	code, body, retry := postStatement(t, ts.URL, testStatements[2], "")
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", code, body)
	}
	if retry != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", retry)
	}
	if got := s.Registry().Counter(MetricQueueFull).Value(); got != 1 {
		t.Errorf("queue-full counter = %d, want 1", got)
	}

	close(bt.release)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Errorf("blocked request finished with %d, want 200", code)
		}
	}
}

// TestGracefulDrain wedges a statement in flight, starts a drain,
// checks new statements get 503 while the drain waits, then releases
// the statement and checks the drain completes and the in-flight
// statement got its full 200 answer.
func TestGracefulDrain(t *testing.T) {
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

	code, body, retry := postStatement(t, ts.URL, testStatements[0], "")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status during drain %d, want 503: %s", code, body)
	}
	if retry == "" {
		t.Error("503 without Retry-After")
	}

	select {
	case err := <-drained:
		t.Fatalf("drain returned %v with a statement still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}

	close(bt.release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code := <-result; code != http.StatusOK {
		t.Errorf("in-flight statement finished with %d, want 200", code)
	}

	// A drain pushed past its context deadline reports the interrupt.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Drain(ctx); err != nil {
		t.Errorf("drain of an idle server with cancelled ctx: %v", err)
	}
}

// TestDrainDeadline checks Drain gives up when its context expires
// while a statement is wedged.
func TestDrainDeadline(t *testing.T) {
	bt := newBlockTracer()
	s, ts := newTestServer(t, Config{Pool: 1, Tracer: bt})
	done := make(chan int, 1)
	go func() {
		code, _, _ := postStatement(t, ts.URL, testStatements[2], "")
		done <- code
	}()
	<-bt.entered

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Error("drain returned nil with a wedged statement")
	}
	close(bt.release)
	<-done
}

// startTracer counts the spans opened: a statement that runs opens at
// least its statement span.
type startTracer struct {
	obs.NopTracer
	starts atomic.Int64
}

func (c *startTracer) Enabled() bool    { return true }
func (c *startTracer) StartTask(string) { c.starts.Add(1) }

// TestDrainStartsNothingAfter races clients posting statements against
// Drain, round after round. Once Drain has returned nil no statement
// may start — the tracer's span count is frozen — and every request
// sent after that is refused with 503.
func TestDrainStartsNothingAfter(t *testing.T) {
	const rounds, clients = 25, 8
	for round := 0; round < rounds; round++ {
		st := &startTracer{}
		s := New(fixtureDB(t), Config{Tracer: st})
		var drained atomic.Bool
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					after := drained.Load()
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/statements", strings.NewReader(testStatements[0])))
					if after {
						if rec.Code != http.StatusServiceUnavailable {
							t.Errorf("round %d: request after drain answered %d, want 503", round, rec.Code)
						}
						return
					}
				}
			}()
		}
		time.Sleep(time.Duration(round%5) * 500 * time.Microsecond)
		if err := s.Drain(context.Background()); err != nil {
			t.Fatalf("round %d: drain: %v", round, err)
		}
		startsAtDrain := st.starts.Load()
		drained.Store(true)
		wg.Wait()
		if got := st.starts.Load(); got != startsAtDrain {
			t.Fatalf("round %d: %d span(s) started after Drain returned", round, got-startsAtDrain)
		}
	}
}

// TestBadStatements checks the 400 family: SQL (not served here),
// parse errors, empty bodies, bad JSON.
func TestBadStatements(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, body, ctype string
		code              int
	}{
		{"sql", "SELECT item FROM baskets;", "text/plain", http.StatusBadRequest},
		{"parse error", "MINE RULES FROM baskets;", "text/plain", http.StatusBadRequest}, // missing THRESHOLD
		{"unknown table", "MINE RULES FROM nope THRESHOLD SUPPORT 0.5 CONFIDENCE 0.5;", "text/plain", http.StatusBadRequest},
		{"empty", "", "text/plain", http.StatusBadRequest},
		{"bad json", "{", "application/json", http.StatusBadRequest},
		{"empty json", "{}", "application/json", http.StatusBadRequest},
		// Cut at 1 MiB this would run without its LIMIT: refused whole.
		{"body over 1 MiB", strings.TrimSuffix(testStatements[0], ";") + strings.Repeat(" ", maxBody) + " LIMIT 1;",
			"text/plain", http.StatusRequestEntityTooLarge},
	} {
		errs := s.Registry().Counter(MetricErrors).Value()
		resp, err := http.Post(ts.URL+"/v1/statements", tc.ctype, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
		if got := s.Registry().Counter(MetricErrors).Value(); got != errs+1 {
			t.Errorf("%s: statement error counter went %d → %d, want one more", tc.name, errs, got)
		}
	}
}

// TestExplain checks EXPLAIN MINE routes to the planner and returns
// the plan rows.
func TestExplain(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, _ := postStatement(t, ts.URL, "EXPLAIN "+testStatements[2], "text")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if !strings.Contains(body, "mine:cycles") || !strings.Contains(body, "scan") {
		t.Errorf("plan output missing operators:\n%s", body)
	}
}

// TestExplainShowsResolvedWorkers runs tarmd's flag path — the shared
// -workers flag left unset, its value handed to Config.Workers as
// cmd/tarmd does — and checks that EXPLAIN's build-hold node reports
// the resolved count, one per CPU, rather than the flag's absence.
func TestExplainShowsResolvedWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	var mf clihelp.MiningFlags
	fs := flag.NewFlagSet("tarmd", flag.ContinueOnError)
	mf.RegisterWorkers(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: mf.Workers})
	code, body, _ := postStatement(t, ts.URL, "EXPLAIN "+testStatements[2], "text")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if !regexp.MustCompile(`build-hold \([^)]*workers=3[,)]`).MatchString(body) {
		t.Errorf("EXPLAIN under GOMAXPROCS 3 with -workers unset does not show workers=3 on build-hold:\n%s", body)
	}
}

// TestTables checks the catalog endpoint.
func TestTables(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/tables")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []struct {
		Name string `json:"name"`
		Kind string `json:"kind"`
		Rows int    `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "baskets" || infos[0].Kind != "transactions" || infos[0].Rows != 280 {
		t.Errorf("tables: %+v", infos)
	}
}

// TestMetricsEndpoint checks the observability mux rides along on the
// server's port and carries both server and engine metrics.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, _, _ := postStatement(t, ts.URL, testStatements[0], ""); code != http.StatusOK {
		t.Fatalf("statement failed with %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, metric := range []string{MetricRequests, MetricOK, MetricLatency, "tarm_passes_total"} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}
}
