package obs

import (
	"encoding/json"
	"io"
	"log/slog"
	"strconv"
	"sync"
	"time"
)

// Journal is the server-wide query history: a bounded ring of
// completed-statement records plus a live table of in-flight
// statements. Every record carries the trace ID, so a slow statement
// seen in `GET /v1/queries` can be drilled into via
// `GET /v1/queries/{id}` for its full span tree.
//
// A nil *Journal is a disabled journal: Begin returns a nil
// *InflightQuery whose End is a no-op, so callers never branch.
type Journal struct {
	size     int
	slowOver time.Duration
	slowLog  *slog.Logger
	sink     io.Writer

	mu       sync.Mutex
	ring     []*QueryRecord // circular, next points at the oldest slot
	next     int
	total    int64 // completed records ever, = last Seq
	seq      int64 // sequence source (issued at Begin)
	inflight map[int64]*InflightQuery
}

// JournalConfig sizes and wires a Journal.
type JournalConfig struct {
	// Size is the ring capacity in records (0 = DefaultJournalSize).
	Size int
	// SlowThreshold, when positive, logs a structured warning for any
	// statement whose wall time exceeds it.
	SlowThreshold time.Duration
	// SlowLog receives the slow-statement lines (nil = slog.Default()).
	SlowLog *slog.Logger
	// Sink, when set, receives every completed record as one JSON line.
	Sink io.Writer
}

// DefaultJournalSize is the ring capacity when JournalConfig.Size is 0.
const DefaultJournalSize = 128

// NewJournal builds a journal from cfg.
func NewJournal(cfg JournalConfig) *Journal {
	size := cfg.Size
	if size <= 0 {
		size = DefaultJournalSize
	}
	logger := cfg.SlowLog
	if logger == nil {
		logger = slog.Default()
	}
	return &Journal{
		size:     size,
		slowOver: cfg.SlowThreshold,
		slowLog:  logger,
		sink:     cfg.Sink,
		ring:     make([]*QueryRecord, 0, size),
		inflight: make(map[int64]*InflightQuery),
	}
}

// OpWall is one plan operator's caller-measured wall time.
type OpWall struct {
	Op     string  `json:"op"`
	WallMS float64 `json:"wall_ms"`
}

// QueryRecord is one completed statement in the ring. Spans holds the
// full trace tree; list views strip it to keep `GET /v1/queries` small.
type QueryRecord struct {
	Seq        int64       `json:"seq"`
	TraceID    string      `json:"trace_id,omitempty"`
	Statement  string      `json:"statement"`
	Task       string      `json:"task,omitempty"`
	Start      time.Time   `json:"start"`
	WallMS     float64     `json:"wall_ms"`
	Cache      string      `json:"cache,omitempty"`   // hit, rethreshold, delta, dedup, cold, ""
	Backend    string      `json:"backend,omitempty"` // backend that counted
	CountingMS float64     `json:"counting_ms,omitempty"`
	Ops        []OpWall    `json:"ops,omitempty"`
	Rules      int64       `json:"rules"`
	Itemsets   int64       `json:"itemsets"`
	Rows       int         `json:"rows"`
	Error      string      `json:"error,omitempty"`
	Spans      []*SpanNode `json:"spans,omitempty"`
}

// stripSpans returns a shallow copy without the span tree, for list
// views.
func (r *QueryRecord) stripSpans() *QueryRecord {
	c := *r
	c.Spans = nil
	return &c
}

// QueryOutcome is what only the caller knows once a statement
// finishes; End reads everything else off the trace (Summarize).
type QueryOutcome struct {
	Rows int
	Err  error
}

// InflightQuery is the live handle for one executing statement: the
// journal's in-flight table entry, completed by End.
type InflightQuery struct {
	j     *Journal
	seq   int64
	trace *Trace
	stmt  string
	task  string
	start time.Time
}

// InflightInfo is the JSON shape of one in-flight statement. Spans, the
// partial tree with open spans marked, is filled only by Get.
type InflightInfo struct {
	Seq       int64       `json:"seq"`
	TraceID   string      `json:"trace_id,omitempty"`
	Statement string      `json:"statement"`
	Task      string      `json:"task,omitempty"`
	Start     time.Time   `json:"start"`
	ElapsedMS float64     `json:"elapsed_ms"`
	Current   string      `json:"current,omitempty"` // innermost open span
	Spans     []*SpanNode `json:"spans,omitempty"`
}

// info snapshots the in-flight row.
func (q *InflightQuery) info() InflightInfo {
	return InflightInfo{
		Seq:       q.seq,
		TraceID:   q.trace.ID(),
		Statement: q.stmt,
		Task:      q.task,
		Start:     q.start,
		ElapsedMS: float64(time.Since(q.start)) / 1e6,
		Current:   q.trace.Current(),
	}
}

// Begin registers a statement as in-flight and returns its handle.
// Nil-safe: a nil journal returns a nil handle whose End is a no-op.
func (j *Journal) Begin(trace *Trace, statement, task string) *InflightQuery {
	if j == nil {
		return nil
	}
	q := &InflightQuery{
		j:     j,
		trace: trace,
		stmt:  statement,
		task:  task,
		start: time.Now(),
	}
	j.mu.Lock()
	j.seq++
	q.seq = j.seq
	j.inflight[q.seq] = q
	j.mu.Unlock()
	return q
}

// End completes the statement: removes it from the in-flight table,
// snapshots the trace's span tree into a ring record (with the fields
// Summarize reads off it), emits the JSONL sink line and the
// slow-statement log line, and returns the record.
func (q *InflightQuery) End(out QueryOutcome) *QueryRecord {
	if q == nil {
		return nil
	}
	wall := time.Since(q.start)
	spans := q.trace.Tree()
	sum := Summarize(spans)
	rec := &QueryRecord{
		Seq:        q.seq,
		TraceID:    q.trace.ID(),
		Statement:  q.stmt,
		Task:       q.task,
		Start:      q.start,
		WallMS:     float64(wall) / 1e6,
		Cache:      sum.Cache,
		Backend:    sum.Backend,
		CountingMS: float64(sum.CountingNS) / 1e6,
		Ops:        sum.Ops,
		Rules:      sum.Rules,
		Itemsets:   sum.Itemsets,
		Rows:       out.Rows,
		Spans:      spans,
	}
	if out.Err != nil {
		rec.Error = out.Err.Error()
	}

	j := q.j
	var sink io.Writer
	j.mu.Lock()
	delete(j.inflight, q.seq)
	if len(j.ring) < j.size {
		j.ring = append(j.ring, rec)
	} else {
		j.ring[j.next] = rec
		j.next = (j.next + 1) % j.size
	}
	j.total++
	sink = j.sink
	j.mu.Unlock()

	if sink != nil {
		if buf, err := json.Marshal(rec.stripSpans()); err == nil {
			buf = append(buf, '\n')
			// Write errors on a telemetry sink are not worth failing a
			// statement over; the ring still has the record.
			sink.Write(buf) //nolint:errcheck
		}
	}
	if j.slowOver > 0 && wall >= j.slowOver {
		j.slowLog.Warn("slow statement",
			"trace_id", rec.TraceID,
			"statement", rec.Statement,
			"wall_ms", rec.WallMS,
			"cache", rec.Cache,
			"backend", rec.Backend,
			"rows", rec.Rows,
		)
	}
	return rec
}

// Recent returns up to n completed records, newest first, without span
// trees (n <= 0 means all retained). Safe on nil.
func (j *Journal) Recent(n int) []*QueryRecord {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if n <= 0 || n > len(j.ring) {
		n = len(j.ring)
	}
	out := make([]*QueryRecord, 0, n)
	// Newest is the slot just before next (once wrapped) or the last
	// appended element (while filling).
	for i := 0; i < n; i++ {
		var idx int
		if len(j.ring) < j.size {
			idx = len(j.ring) - 1 - i
		} else {
			idx = ((j.next-1-i)%j.size + j.size) % j.size
		}
		out = append(out, j.ring[idx].stripSpans())
	}
	return out
}

// InFlight returns the live statements, oldest first. Safe on nil.
func (j *Journal) InFlight() []InflightInfo {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	qs := make([]*InflightQuery, 0, len(j.inflight))
	for _, q := range j.inflight {
		qs = append(qs, q)
	}
	j.mu.Unlock()
	out := make([]InflightInfo, 0, len(qs))
	for _, q := range qs {
		out = append(out, q.info())
	}
	// Oldest first: stable for dashboards and tests.
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].Seq < out[k-1].Seq; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

// Get resolves id — a trace ID or a decimal sequence number — to a
// completed record (with spans) or a live snapshot of an in-flight
// statement with its partial span tree, both taken under one lock so a
// statement completing meanwhile is one or the other, never half.
// Exactly one return is non-nil on a hit. Safe on nil.
func (j *Journal) Get(id string) (*QueryRecord, *InflightInfo) {
	if j == nil {
		return nil, nil
	}
	seq, seqErr := strconv.ParseInt(id, 10, 64)
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, q := range j.inflight {
		if q.trace.ID() == id || (seqErr == nil && q.seq == seq) {
			info := q.info()
			info.Spans = q.trace.Tree()
			return nil, &info
		}
	}
	for i := len(j.ring) - 1; i >= 0; i-- {
		r := j.ring[i]
		if r.TraceID == id || (seqErr == nil && r.Seq == seq) {
			return r, nil
		}
	}
	return nil, nil
}

// Total reports how many statements have completed since startup.
func (j *Journal) Total() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}
