// Package server implements tarmd, the concurrent TML mining service:
// an HTTP/JSON front end that executes MINE and EXPLAIN MINE
// statements for many sessions over one shared database and one shared
// hold-table cache.
//
// Interactive mining workloads are bursts of near-duplicate statements
// — the same table, granularity and thresholds with small variations —
// which is exactly what the support-monotone HoldCache serves best:
// concurrent identical statements singleflight onto one cold build,
// and follow-ups at equal-or-higher support re-threshold the resident
// count vectors without touching the data. The server adds the
// multi-session scaffolding around that engine:
//
//   - a bounded worker pool: at most Pool statements execute at once,
//     at most Queue more wait; beyond that requests are rejected with
//     429 and a Retry-After hint (backpressure, not collapse);
//   - per-statement deadlines (server default, tightened per request),
//     surfaced as 504 when exceeded;
//   - graceful drain: Drain stops admission (503) and waits for the
//     statements in flight, so a SIGTERM never kills a running MINE;
//   - observability: request counters, queue-depth and inflight
//     gauges, per-task latency histograms and the engine's own mining
//     telemetry all land in one obs.Registry, served on the same mux
//     (/metrics, /debug/vars, /debug/pprof).
//
// Every request is traced: the server generates (or propagates) an
// X-Request-ID, echoes it on every response — including 429/503/504 —
// and attaches a request-scoped obs.Trace to the context, so a
// statement's execution leaves a span tree (operators, hold-table
// build, counting passes) keyed by that ID. Completed statements land
// in a bounded query journal; both are served live:
//
// Endpoints:
//
//	POST /v1/statements    execute one MINE or EXPLAIN MINE statement
//	POST /v1/append        append a batch of transactions to a table
//	POST /v1/flush         checkpoint the database (truncates the WAL)
//	POST /v1/import        bulk-load basket CSV into a table
//	GET  /v1/export        dump a table as basket CSV
//	GET  /v1/tables        list tables (name, kind, rows)
//	GET  /v1/queries       recent statements + statements in flight
//	GET  /v1/queries/{id}  one statement (by request ID or seq) with
//	                       its full span tree
//	GET  /v1/cache         hold-table cache stats + resident entries
//	GET  /healthz          liveness + pool occupancy
//
// POST bodies are JSON ({"statement": "...", "timeout_ms": 0}) or raw
// text. Responses are JSON; ?format=text returns the same aligned
// table tarmine prints, byte for byte. Errors are a JSON body
// {error, request_id, retry_after_ms?} on every status path.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/tarm-project/tarm/internal/core"
	"github.com/tarm-project/tarm/internal/minisql"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/tml"
)

// Server metric names, published on the configured Registry next to
// the engine's tarm_* mining metrics.
const (
	MetricRequests    = "tarmd_requests_total"            // statements admitted (counter)
	MetricOK          = "tarmd_statements_ok_total"       // statements answered 200 (counter)
	MetricErrors      = "tarmd_statements_err_total"      // statements failed (counter)
	MetricTimeouts    = "tarmd_statement_timeouts_total"  // deadline-exceeded statements (counter)
	MetricQueueFull   = "tarmd_rejected_queue_full_total" // 429s (counter)
	MetricDraining    = "tarmd_rejected_draining_total"   // 503s during drain (counter)
	MetricQueueDepth  = "tarmd_queue_depth"               // statements waiting for a pool slot (gauge)
	MetricInflight    = "tarmd_inflight"                  // statements executing (gauge)
	MetricLatency     = "tarmd_statement_seconds"         // end-to-end statement latency (histogram)
	metricLatencyTask = "tarmd_statement_seconds_task_"   // + task key (histograms)
)

// Config shapes a Server. The zero value is usable: defaults are
// filled by New.
type Config struct {
	// Pool is the maximum number of statements executing concurrently
	// (0 = 4). Mining saturates cores quickly, so this is a statement
	// budget, not a thread budget; Workers below parallelises inside a
	// statement.
	Pool int
	// Queue is how many admitted statements may wait for a pool slot
	// (0 = 2×Pool). Requests beyond Pool+Queue get 429 + Retry-After.
	Queue int
	// Timeout is the per-statement deadline (0 = none). A request's
	// timeout_ms can tighten it, never extend it.
	Timeout time.Duration
	// Workers parallelises the counting pass of every statement, like
	// the -workers flag of the CLIs. Each build picks its own counting
	// backend; tests pin one through Executor().Backend.
	Workers int
	// CacheBytes is the shared hold-table cache budget (0 =
	// core.DefaultCacheBytes, < 0 disables caching).
	CacheBytes int64
	// Registry receives the server and engine metrics (nil = a fresh
	// registry, so embedded servers do not collide on obs.Default).
	Registry *obs.Registry
	// Tracer, when set, additionally receives every statement's mining
	// telemetry (tests hook the pass stream through this).
	Tracer obs.Tracer
	// JournalSize is the query-journal ring capacity in completed
	// statements (0 = obs.DefaultJournalSize, < 0 disables the
	// journal; the introspection endpoints then serve empty views).
	JournalSize int
	// SlowQuery, when positive, logs a structured warning line for
	// every statement slower than this.
	SlowQuery time.Duration
	// JournalSink, when set, receives every completed statement record
	// as one JSON line (an audit/replay log).
	JournalSink io.Writer
	// MaxSubs bounds the standing SUBSCRIBE MINE statements registered
	// at once (0 = 16); registrations beyond it get 429 + Retry-After.
	MaxSubs int
	// SubQueue is each subscription's event-ring capacity (0 = 64). A
	// subscriber that stops reading loses its *oldest* events — counted
	// and surfaced, never blocking the refresh worker.
	SubQueue int
}

func (c Config) withDefaults() Config {
	if c.Pool <= 0 {
		c.Pool = 4
	}
	if c.Queue <= 0 {
		c.Queue = 2 * c.Pool
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = core.DefaultCacheBytes
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.MaxSubs <= 0 {
		c.MaxSubs = 16
	}
	if c.SubQueue <= 0 {
		c.SubQueue = 64
	}
	return c
}

// Server is the tarmd HTTP front end. It is an http.Handler; run it
// under any http.Server and call Drain before exiting.
type Server struct {
	cfg     Config
	db      *tdb.DB
	exec    *tml.Executor
	reg     *obs.Registry
	mux     *http.ServeMux
	journal *obs.Journal
	subs    *subManager

	sem chan struct{} // pool slots; len(sem) requests are executing

	// mu orders admission against Drain: admit counts a request only
	// while draining is false, so once Drain sets it the count can only
	// fall, and the release that takes it to zero closes idle.
	mu       sync.Mutex
	admitted int // requests admitted and not yet finished
	draining bool
	idle     chan struct{}
}

// New builds a server over db. All sessions share one executor — and
// through it one HoldCache — so concurrent identical statements
// deduplicate onto a single cold build and warm statements are served
// from memory regardless of which client issued the build.
func New(db *tdb.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:  cfg,
		db:   db,
		reg:  cfg.Registry,
		sem:  make(chan struct{}, cfg.Pool),
		idle: make(chan struct{}),
	}
	s.exec = tml.NewExecutor(db)
	s.exec.Workers = cfg.Workers
	s.exec.Cache = core.NewHoldCache(cfg.CacheBytes)
	s.exec.Tracer = obs.Multi(obs.NewRegistryTracer(s.reg, ""), cfg.Tracer)
	if cfg.JournalSize >= 0 {
		s.journal = obs.NewJournal(obs.JournalConfig{
			Size:          cfg.JournalSize,
			SlowThreshold: cfg.SlowQuery,
			Sink:          cfg.JournalSink,
		})
	}
	s.exec.Journal = s.journal

	// The statement endpoints share the mux with the observability
	// endpoints, so one port serves both traffic and diagnostics.
	s.mux = obs.DebugMux(s.reg)
	s.mux.HandleFunc("POST /v1/statements", s.handleStatement)
	s.mux.HandleFunc("POST /v1/append", s.handleAppend)
	s.mux.HandleFunc("POST /v1/flush", s.handleFlush)
	s.mux.HandleFunc("POST /v1/import", s.handleImport)
	s.mux.HandleFunc("GET /v1/export", s.handleExport)
	s.mux.HandleFunc("GET /v1/tables", s.handleTables)
	s.mux.HandleFunc("GET /v1/queries", s.handleQueries)
	s.mux.HandleFunc("GET /v1/queries/{id}", s.handleQueryByID)
	s.mux.HandleFunc("GET /v1/cache", s.handleCache)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.subs = newSubManager(s)
	s.mux.HandleFunc("POST /v1/subscriptions", s.handleSubscribe)
	s.mux.HandleFunc("GET /v1/subscriptions", s.handleSubList)
	s.mux.HandleFunc("GET /v1/subscriptions/{id}", s.handleSubGet)
	s.mux.HandleFunc("GET /v1/subscriptions/{id}/events", s.handleSubEvents)
	s.mux.HandleFunc("DELETE /v1/subscriptions/{id}", s.handleSubDelete)
	return s
}

// Executor exposes the shared TML executor (and through it the shared
// HoldCache) for embedders that mix HTTP and in-process statements.
func (s *Server) Executor() *tml.Executor { return s.exec }

// Registry returns the metrics registry the server publishes to.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Journal returns the query journal (nil when disabled).
func (s *Server) Journal() *obs.Journal { return s.journal }

// ServeHTTP implements http.Handler: the request-ID middleware around
// the mux. Every request gets an X-Request-ID — the client's, when it
// sent a well-formed one, else a fresh trace ID — echoed on the
// response whatever the status, and a request-scoped trace in the
// context under that ID, which the executor turns into the statement's
// span tree.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rid := sanitizeRequestID(r.Header.Get("X-Request-ID"))
	if rid == "" {
		rid = obs.NewTraceID()
	}
	// Set before dispatch so rejection paths (429/503/504, even a mux
	// 404) carry the ID too.
	w.Header().Set("X-Request-ID", rid)
	r = r.WithContext(obs.ContextWithTrace(r.Context(), obs.NewTrace(rid)))
	s.mux.ServeHTTP(w, r)
}

// sanitizeRequestID accepts client-supplied IDs made of unreserved
// header-safe characters, capped at 64; anything else is discarded (a
// fresh ID is generated) rather than reflected into logs and traces.
func sanitizeRequestID(id string) string {
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return ""
		}
	}
	return id
}

// Drain stops admitting statements (they get 503 + Retry-After) and
// waits for the ones in flight to finish, or for ctx to expire. No
// request starts after Drain returns nil. It is the statement-level
// half of a graceful shutdown; pair it with http.Server.Shutdown for
// the connection-level half.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining && s.admitted == 0 {
		close(s.idle)
	}
	s.draining = true
	s.mu.Unlock()
	// Stop the standing statements first: their background refreshes
	// would otherwise keep the executor busy while we wait for the
	// interactive statements to finish.
	s.subs.shutdown()
	select {
	case <-s.idle:
		return nil
	case <-ctx.Done():
		// An idle server is drained regardless of the context: only
		// report interruption when statements are actually in flight.
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.admitted == 0 {
			return nil
		}
		return fmt.Errorf("server: drain interrupted with %d statement(s) in flight: %w", s.admitted, ctx.Err())
	}
}

// isDraining reports whether Drain has been called.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// statementRequest is the POST /v1/statements JSON body.
type statementRequest struct {
	Statement string `json:"statement"`
	// TimeoutMS tightens the server's per-statement deadline for this
	// request; it can never extend it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// statementResponse is the JSON answer: the result table (cells
// rendered exactly as the CLI displays them) plus timing.
type statementResponse struct {
	Statement string     `json:"statement"`
	RequestID string     `json:"request_id,omitempty"`
	Cols      []string   `json:"cols"`
	Rows      [][]string `json:"rows"`
	RowCount  int        `json:"row_count"`
	WallMS    float64    `json:"wall_ms"`
}

// errorResponse is the uniform error body of every non-2xx status
// path: the message, the request ID for cross-referencing logs and
// traces, and — on backpressure rejections (429/503) — the Retry-After
// hint in milliseconds.
type errorResponse struct {
	Error        string `json:"error"`
	RequestID    string `json:"request_id,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// maxBody bounds statement bodies; TML statements are lines, not blobs.
const maxBody = 1 << 20

// handleStatement admits, executes and renders one statement.
func (s *Server) handleStatement(w http.ResponseWriter, r *http.Request) {
	req, err := readStatement(w, r)
	if err != nil {
		s.reg.Counter(MetricErrors).Add(1)
		s.reject(w, bodyErrorCode(err), err.Error())
		return
	}
	// The statement's deadline covers the queue wait too: a statement
	// that waited its deadline away is already late.
	ctx, cancel := s.statementContext(r.Context(), req.TimeoutMS)
	defer cancel()
	release, ok := s.admit(ctx, w, MetricRequests, MetricErrors)
	if !ok {
		return
	}
	defer release()

	start := time.Now()
	res, task, err := s.execute(ctx, req.Statement)
	wall := time.Since(start)
	s.reg.Histogram(MetricLatency).Observe(wall.Seconds())
	if task != "" {
		s.reg.Histogram(metricLatencyTask + task).Observe(wall.Seconds())
	}
	if err != nil {
		s.fail(w, MetricErrors, err)
		return
	}
	s.reg.Counter(MetricOK).Add(1)

	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		minisql.Format(w, res)
		return
	}
	resp := statementResponse{
		Statement: req.Statement,
		RequestID: w.Header().Get("X-Request-ID"),
		Cols:      res.Cols,
		Rows:      tml.DisplayCells(res),
		RowCount:  len(res.Rows),
		WallMS:    float64(wall) / float64(time.Millisecond),
	}
	writeJSON(w, http.StatusOK, resp)
}

// execute runs one admitted statement through tml's router and words
// its refusals for this endpoint. tarmd is a mining endpoint: text that
// is not TML is refused, not run as SQL, because concurrent SQL writes
// would race the miners.
func (s *Server) execute(ctx context.Context, input string) (*minisql.Result, string, error) {
	res, task, err := s.exec.Route(ctx, input)
	switch {
	case errors.Is(err, tml.ErrNotTML):
		err = fmt.Errorf("tarmd: only MINE and EXPLAIN MINE statements are served (got %.40q)", input)
	case errors.Is(err, tml.ErrStanding):
		err = errors.New("tarmd: SUBSCRIBE registers a standing statement; POST it to /v1/subscriptions")
	}
	return res, task, err
}

// admit is the one admission sequence of every request that takes a
// pool slot: statements, appends, imports, flushes and exports. Under
// s.mu it refuses (503 draining, 429 at a full queue) or counts the
// request, so a draining server's count only falls; and the
// request then waits for a pool slot under ctx, so bulk work
// backpressures instead of starving the miners. A statement passes its
// deadline context, so the deadline covers the wait. The admitted
// counter, when named, counts requests let into the queue; failed
// counts one whose ctx ended while it waited. When ok is false admit
// has answered the request; otherwise the caller must defer release.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, admitted, failed string) (release func(), ok bool) {
	s.mu.Lock()
	switch {
	case s.draining:
		s.mu.Unlock()
		s.refuseDraining(w)
		return nil, false
	case s.admitted >= s.cfg.Pool+s.cfg.Queue:
		s.mu.Unlock()
		s.refuse(w, http.StatusTooManyRequests, MetricQueueFull,
			fmt.Sprintf("statement queue full (%d executing + %d waiting)", s.cfg.Pool, s.cfg.Queue))
		return nil, false
	}
	s.admitted++
	s.gaugesLocked()
	s.mu.Unlock()
	if admitted != "" {
		s.reg.Counter(admitted).Add(1)
	}
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.settle(-1)
		s.fail(w, failed, ctx.Err())
		return nil, false
	}
	s.settle(0)
	return func() {
		<-s.sem
		s.settle(-1)
	}, true
}

// settle adds delta to the admitted count and republishes the pool
// occupancy. The release that empties a draining server wakes Drain.
func (s *Server) settle(delta int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.admitted += delta
	if delta < 0 && s.draining && s.admitted == 0 {
		close(s.idle)
	}
	s.gaugesLocked()
}

// retryAfter is the hint every backpressure refusal carries, in the
// Retry-After header (whole seconds) and in the body's retry_after_ms,
// so JSON clients need not parse headers.
const retryAfter = time.Second

// refuse answers a backpressure refusal: its counter, the Retry-After
// hint and the error body.
func (s *Server) refuse(w http.ResponseWriter, code int, counter, msg string) {
	s.reg.Counter(counter).Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
	writeJSON(w, code, errorResponse{
		Error:        msg,
		RequestID:    w.Header().Get("X-Request-ID"),
		RetryAfterMS: retryAfter.Milliseconds(),
	})
}

// refuseDraining is the 503 a draining server answers with.
func (s *Server) refuseDraining(w http.ResponseWriter) {
	s.refuse(w, http.StatusServiceUnavailable, MetricDraining, "server is draining")
}

// statementContext derives the statement's deadline: the server
// default, tightened by the request's timeout_ms when that is sooner.
func (s *Server) statementContext(parent context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.Timeout
	if timeoutMS > 0 {
		if rd := time.Duration(timeoutMS) * time.Millisecond; d == 0 || rd < d {
			d = rd
		}
	}
	if d <= 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, d)
}

// fail counts a failed request and maps its error onto a status code:
// deadline exhaustion is the gateway-timeout contract (504), everything
// else — parse errors, unknown tables, statements whose feature covers
// no data, a client that went away — is the client's (400).
func (s *Server) fail(w http.ResponseWriter, counter string, err error) {
	s.reg.Counter(counter).Add(1)
	code := http.StatusBadRequest
	if errors.Is(err, context.DeadlineExceeded) {
		s.reg.Counter(MetricTimeouts).Add(1)
		code = http.StatusGatewayTimeout
	}
	s.reject(w, code, err.Error())
}

// readStatement decodes the request body: JSON when declared, raw text
// otherwise.
func readStatement(w http.ResponseWriter, r *http.Request) (statementRequest, error) {
	var req statementRequest
	body, err := readBody(w, r, maxBody)
	if err != nil {
		return req, err
	}
	ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if ct == "application/json" {
		if err := json.Unmarshal(body, &req); err != nil {
			return req, fmt.Errorf("tarmd: bad JSON body: %w", err)
		}
	} else {
		req.Statement = string(body)
	}
	if len(req.Statement) == 0 {
		return req, fmt.Errorf("tarmd: empty statement")
	}
	return req, nil
}

// readBody reads a request body of at most limit bytes in one
// allocation when the client declares its length. A longer body is
// refused whole, never truncated: bodyErrorCode maps the error to 413.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), limit)+bytes.MinRead))
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		return nil, fmt.Errorf("tarmd: reading body: %w", err)
	}
	return buf.Bytes(), nil
}

// bodyErrorCode is 413 for a body over its endpoint's limit and 400 for
// any other unreadable or malformed body.
func bodyErrorCode(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// tableInfo is one GET /v1/tables row.
type tableInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "transactions" or "table"
	Rows int    `json:"rows"`
}

func (s *Server) handleTables(w http.ResponseWriter, _ *http.Request) {
	infos := []tableInfo{}
	for _, n := range s.db.Names() {
		info := tableInfo{Name: n, Kind: "table"}
		if s.db.IsTxTable(n) {
			info.Kind = "transactions"
			if t, ok := s.db.TxTable(n); ok {
				info.Rows = t.Len()
			}
		} else if t, ok := s.db.Table(n); ok {
			info.Rows = t.Len()
		}
		infos = append(infos, info)
	}
	writeJSON(w, http.StatusOK, infos)
}

// queriesView is the GET /v1/queries answer: what is running now and
// what ran recently (newest first, span trees stripped — fetch one by
// ID for its tree).
type queriesView struct {
	Inflight []obs.InflightInfo `json:"inflight"`
	Recent   []*obs.QueryRecord `json:"recent"`
	Total    int64              `json:"total"` // completed since startup
}

func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	n := 0 // all retained
	if v := r.URL.Query().Get("n"); v != "" {
		if parsed, err := strconv.Atoi(v); err == nil && parsed > 0 {
			n = parsed
		}
	}
	view := queriesView{
		Inflight: s.journal.InFlight(),
		Recent:   s.journal.Recent(n),
		Total:    s.journal.Total(),
	}
	if view.Inflight == nil {
		view.Inflight = []obs.InflightInfo{}
	}
	if view.Recent == nil {
		view.Recent = []*obs.QueryRecord{}
	}
	writeJSON(w, http.StatusOK, view)
}

// handleQueryByID serves one journal entry: the completed record, or
// for a statement still running the live row with its partial span
// tree (open spans marked).
func (s *Server) handleQueryByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, live := s.journal.Get(id)
	switch {
	case rec != nil:
		writeJSON(w, http.StatusOK, rec)
	case live != nil:
		writeJSON(w, http.StatusOK, live)
	default:
		s.reject(w, http.StatusNotFound, fmt.Sprintf("tarmd: no query %q in the journal", id))
	}
}

// cacheView is the GET /v1/cache answer: the shared hold-table cache's
// counters plus its resident entries, most recently used first.
type cacheView struct {
	Stats   core.CacheStats  `json:"stats"`
	Entries []core.EntryInfo `json:"entries"`
}

func (s *Server) handleCache(w http.ResponseWriter, _ *http.Request) {
	view := cacheView{
		Stats:   s.exec.Cache.Stats(),
		Entries: s.exec.Cache.Entries(),
	}
	if view.Entries == nil {
		view.Entries = []core.EntryInfo{}
	}
	writeJSON(w, http.StatusOK, view)
}

type healthz struct {
	Status   string `json:"status"` // "ok" or "draining"
	Inflight int64  `json:"inflight"`
	Queued   int64  `json:"queued"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	h := s.healthLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, h)
}

// healthLocked reads the pool occupancy — the admitted requests holding
// a slot and those still waiting for one (every slot holder is counted
// in admitted) — and the drain state. Caller holds s.mu.
func (s *Server) healthLocked() healthz {
	inflight := len(s.sem)
	h := healthz{Status: "ok", Inflight: int64(inflight), Queued: int64(s.admitted - inflight)}
	if s.draining {
		h.Status = "draining"
	}
	return h
}

// gaugesLocked publishes the pool occupancy. It runs under s.mu after
// every change to the count or the pool, so the last value published
// is the current one. Caller holds s.mu.
func (s *Server) gaugesLocked() {
	h := s.healthLocked()
	s.reg.Gauge(MetricInflight).Set(float64(h.Inflight))
	s.reg.Gauge(MetricQueueDepth).Set(float64(h.Queued))
}

// reject writes the uniform JSON error body. The request ID comes from
// the response header the middleware set.
func (s *Server) reject(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg, RequestID: w.Header().Get("X-Request-ID")})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
