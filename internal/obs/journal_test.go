package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// endSimple completes a Begin'd query with a minimal outcome.
func endSimple(q *InflightQuery, rows int) *QueryRecord {
	return q.End(QueryOutcome{Rows: rows})
}

// TestJournalRing: the ring retains the newest Size records, newest
// first, with monotonically increasing sequence numbers.
func TestJournalRing(t *testing.T) {
	j := NewJournal(JournalConfig{Size: 4})
	for i := 0; i < 10; i++ {
		q := j.Begin(NewTrace(""), fmt.Sprintf("MINE #%d", i), "cycles")
		endSimple(q, i)
	}
	if got := j.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	recent := j.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("Recent = %d records, want 4", len(recent))
	}
	for i, r := range recent {
		wantSeq := int64(10 - i)
		if r.Seq != wantSeq {
			t.Errorf("recent[%d].Seq = %d, want %d", i, r.Seq, wantSeq)
		}
		if r.Spans != nil {
			t.Errorf("recent[%d] still carries spans; list views must strip them", i)
		}
	}
	if got := j.Recent(2); len(got) != 2 || got[0].Seq != 10 {
		t.Fatalf("Recent(2) = %d records starting at seq %d, want 2 starting at 10", len(got), got[0].Seq)
	}
}

// TestJournalFillingRing: before the ring wraps, Recent still returns
// newest first.
func TestJournalFillingRing(t *testing.T) {
	j := NewJournal(JournalConfig{Size: 8})
	for i := 0; i < 3; i++ {
		endSimple(j.Begin(NewTrace(""), "MINE ...", ""), 0)
	}
	recent := j.Recent(0)
	if len(recent) != 3 || recent[0].Seq != 3 || recent[2].Seq != 1 {
		t.Fatalf("Recent = %+v, want seqs 3,2,1", recent)
	}
}

// TestJournalInflightAndGet: a running statement is visible in the
// in-flight table and resolvable by trace ID and by sequence number,
// live while running and as a full record (with spans) once done.
func TestJournalInflightAndGet(t *testing.T) {
	j := NewJournal(JournalConfig{})
	tr := NewTrace("trace-live")
	tr.StartTask(SpanStatement)
	tr.StartTask("op:build-hold")
	q := j.Begin(tr, "MINE PERIODS FROM baskets ...", "periods")

	inf := j.InFlight()
	if len(inf) != 1 {
		t.Fatalf("InFlight = %d, want 1", len(inf))
	}
	if inf[0].TraceID != "trace-live" || inf[0].Current != "op:build-hold" {
		t.Fatalf("inflight = %+v, want trace-live at op:build-hold", inf[0])
	}
	if inf[0].Task != "periods" {
		t.Errorf("Task = %q, want periods", inf[0].Task)
	}

	if rec, live := j.Get("trace-live"); rec != nil || live == nil {
		t.Fatal("Get(trace) while running: want live info, no record")
	}
	if rec, live := j.Get(strconv.FormatInt(inf[0].Seq, 10)); rec != nil || live == nil {
		t.Fatal("Get(seq) while running: want live info, no record")
	}
	// One Get carries the live row and its partial tree, open spans
	// marked.
	_, live := j.Get("trace-live")
	if len(live.Spans) != 1 || !live.Spans[0].Open || Find(live.Spans, "op:build-hold") == nil {
		t.Fatalf("live spans = %+v, want an open statement root over op:build-hold", live.Spans)
	}
	if inf := j.InFlight(); inf[0].Spans != nil {
		t.Error("the in-flight list carries span trees; only Get fills them")
	}

	tr.Counter(MetricCacheMisses, 1)
	tr.StartPass(2)
	tr.EndPass(PassStats{Level: 2, Backend: "bitmap"})
	tr.Counter(MetricRulesEmitted, 7)
	tr.EndTask()
	tr.EndTask()
	rec := q.End(QueryOutcome{Rows: 7})
	if len(j.InFlight()) != 0 {
		t.Fatal("statement still in flight after End")
	}
	got, live := j.Get("trace-live")
	if got == nil || live != nil {
		t.Fatal("Get after End: want record, no live info")
	}
	if got != rec || got.Rules != 7 || got.Cache != "cold" || got.Backend != "bitmap" {
		t.Fatalf("record = %+v", got)
	}
	if len(got.Spans) == 0 || got.Spans[0].Name != SpanStatement {
		t.Fatalf("record spans = %+v, want statement root", got.Spans)
	}
	if got.WallMS <= 0 {
		t.Errorf("WallMS = %v, want > 0", got.WallMS)
	}
	if r, l := j.Get("nope"); r != nil || l != nil {
		t.Fatal("Get(unknown) hit")
	}
}

// TestJournalError: an execution error is recorded on the ring entry.
func TestJournalError(t *testing.T) {
	j := NewJournal(JournalConfig{})
	q := j.Begin(NewTrace(""), "MINE ...", "cycles")
	q.End(QueryOutcome{Err: errors.New("boom")})
	if got := j.Recent(1)[0].Error; got != "boom" {
		t.Fatalf("Error = %q, want boom", got)
	}
}

// TestJournalSink: every completed statement lands in the JSONL sink
// as one parseable line, without the span tree.
func TestJournalSink(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(JournalConfig{Sink: &buf})
	for i := 0; i < 3; i++ {
		tr := NewTrace("")
		tr.StartTask(SpanStatement)
		tr.EndTask()
		endSimple(j.Begin(tr, fmt.Sprintf("MINE #%d", i), ""), i)
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		var rec QueryRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if rec.Spans != nil {
			t.Error("sink line carries spans")
		}
		if rec.Statement != fmt.Sprintf("MINE #%d", n) {
			t.Errorf("line %d statement = %q", n, rec.Statement)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("sink has %d lines, want 3", n)
	}
}

// TestJournalSlowLog: statements over the threshold emit one
// structured warning; fast ones stay quiet.
func TestJournalSlowLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	j := NewJournal(JournalConfig{SlowThreshold: time.Nanosecond, SlowLog: logger})
	q := j.Begin(NewTrace("slow-1"), "MINE SLOW", "cycles")
	time.Sleep(time.Millisecond)
	endSimple(q, 0)
	out := buf.String()
	if !strings.Contains(out, "slow statement") || !strings.Contains(out, "slow-1") {
		t.Fatalf("slow log = %q, want a 'slow statement' line with the trace id", out)
	}

	buf.Reset()
	jFast := NewJournal(JournalConfig{SlowThreshold: time.Hour, SlowLog: logger})
	endSimple(jFast.Begin(NewTrace(""), "MINE FAST", ""), 0)
	if buf.Len() != 0 {
		t.Fatalf("fast statement logged: %q", buf.String())
	}
}

// TestJournalNil: a nil journal is fully disabled — Begin yields a nil
// handle whose End is a no-op, and the read side returns empty views.
func TestJournalNil(t *testing.T) {
	var j *Journal
	q := j.Begin(NewTrace(""), "MINE ...", "")
	if q != nil {
		t.Fatal("nil journal returned a handle")
	}
	if rec := q.End(QueryOutcome{}); rec != nil {
		t.Fatal("nil handle End returned a record")
	}
	if j.Recent(0) != nil || j.InFlight() != nil || j.Total() != 0 {
		t.Fatal("nil journal leaked state")
	}
	if r, l := j.Get("x"); r != nil || l != nil {
		t.Fatal("nil journal Get hit")
	}
}

// TestJournalConcurrentSessions hammers the ring and the in-flight
// table from many writer goroutines while readers snapshot every view
// — the exact access pattern of a busy tarmd under /v1/queries
// polling. Must be clean under -race.
func TestJournalConcurrentSessions(t *testing.T) {
	j := NewJournal(JournalConfig{Size: 16, Sink: &syncBuffer{}})
	const writers = 8
	const perWriter = 200
	done := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				j.Recent(0)
				for _, inf := range j.InFlight() {
					j.Get(inf.TraceID)
				}
				j.Total()
			}
		}()
	}
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				tr := NewTrace("")
				tr.StartTask(SpanStatement)
				q := j.Begin(tr, fmt.Sprintf("MINE w%d i%d", w, i), "cycles")
				tr.StartPass(1)
				tr.EndPass(PassStats{Level: 1})
				tr.EndTask()
				endSimple(q, i)
			}
		}(w)
	}
	writersWG.Wait()
	close(done)
	readers.Wait()
	if got := j.Total(); got != writers*perWriter {
		t.Fatalf("Total = %d, want %d", got, writers*perWriter)
	}
	if len(j.InFlight()) != 0 {
		t.Fatal("statements left in flight")
	}
	if len(j.Recent(0)) != 16 {
		t.Fatalf("ring holds %d, want 16", len(j.Recent(0)))
	}
}

// syncBuffer is a mutex-guarded sink for the concurrent test (a real
// deployment hands the journal an *os.File, which is write-atomic).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}
