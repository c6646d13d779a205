package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/tarm-project/tarm/internal/tdb"
)

// newDurableTestServer serves a WAL-backed database from dir; reopen it
// after Kill to inspect what survived.
func newDurableTestServer(t *testing.T, dir string, pol tdb.FsyncPolicy) (*Server, *tdb.DB, *httptest.Server) {
	t.Helper()
	db, err := tdb.OpenDurable(dir, tdb.Durability{Fsync: pol})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTxTable("baskets"); err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, db, ts
}

const importCSV = "timestamp,items\n" +
	"2024-01-01 12:00:00,bread;milk\n" +
	"2024-01-01 12:05:00,bread;wine\n" +
	"2024-01-02 09:00:00,milk\n"

// A 200 from /v1/append on a durable server is a durability promise:
// the batch must survive an immediate kill with no checkpoint.
func TestAppendDurableAckSurvivesKill(t *testing.T) {
	dir := t.TempDir()
	_, db, ts := newDurableTestServer(t, dir, tdb.FsyncAlways)
	code, out, raw := postAppend(t, ts.URL, appendBody(3, "bread", "milk"))
	if code != http.StatusOK {
		t.Fatalf("append status %d: %s", code, raw)
	}
	if !out.Durable {
		t.Fatalf("durable server acked with durable=false: %+v", out)
	}
	db.Kill()

	db2, err := tdb.OpenDurable(dir, tdb.Durability{Fsync: tdb.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Kill()
	tbl, ok := db2.TxTable("baskets")
	if !ok || tbl.Len() != 3 {
		t.Fatalf("acked batch lost: table ok=%v len=%d, want 3", ok, tbl.Len())
	}
}

func TestFlushEndpoint(t *testing.T) {
	dir := t.TempDir()
	s, db, ts := newDurableTestServer(t, dir, tdb.FsyncOff)
	postAppend(t, ts.URL, appendBody(5, "bread"))

	resp, err := http.Post(ts.URL+"/v1/flush", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush status %d: %s", resp.StatusCode, raw)
	}
	var out flushResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("bad flush response %s: %v", raw, err)
	}
	if !out.Durable || out.Tables != 1 || out.SegmentsWritten == 0 || out.WALTruncated == 0 {
		t.Errorf("flush response %+v: want durable, 1 table, segments written, WAL truncated", out)
	}
	if rec := s.Journal().Recent(1); len(rec) != 1 || rec[0].Task != "flush" {
		t.Errorf("journal after flush: %+v", rec)
	}
	db.Kill()

	// Everything was checkpointed: reopening replays nothing.
	db2, err := tdb.OpenDurable(dir, tdb.Durability{Fsync: tdb.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Kill()
	if rec := db2.Recovery(); rec.Records != 0 {
		t.Errorf("post-flush reopen replayed %+v", rec)
	}
}

func TestFlushMemoryOnly(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/flush", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("flush on memory-only db: status %d, want 400", resp.StatusCode)
	}
}

func TestImportExportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, db, ts := newDurableTestServer(t, dir, tdb.FsyncOff)

	// Import into a table that does not exist yet: created on the fly.
	resp, err := http.Post(ts.URL+"/v1/import?table=loaded", "text/csv", strings.NewReader(importCSV))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("import status %d: %s", resp.StatusCode, raw)
	}
	var imp importResponse
	if err := json.Unmarshal(raw, &imp); err != nil {
		t.Fatal(err)
	}
	if imp.Imported != 3 || !imp.Created || !imp.Durable {
		t.Errorf("import response %+v, want 3 imported into a created table, durable", imp)
	}
	if rec := s.Journal().Recent(1); len(rec) != 1 || rec[0].Task != "import" || rec[0].Rows != 3 {
		t.Errorf("journal after import: %+v", rec)
	}

	// Export must round-trip the import byte-for-byte.
	resp, err = http.Get(ts.URL + "/v1/export?table=loaded")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export status %d: %s", resp.StatusCode, got)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("export Content-Type = %q", ct)
	}
	if string(got) != importCSV {
		t.Errorf("export is not the import round-tripped:\ngot:\n%swant:\n%s", got, importCSV)
	}

	// The imported table survives a kill: import is WAL-logged (create
	// record + one append batch).
	db.Kill()
	db2, err := tdb.OpenDurable(dir, tdb.Durability{Fsync: tdb.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Kill()
	tbl, ok := db2.TxTable("loaded")
	if !ok || tbl.Len() != 3 {
		t.Fatalf("imported table after kill: ok=%v len=%d, want 3", ok, tbl.Len())
	}
}

// A malformed body must reject atomically: no partial rows applied.
func TestImportAtomicOnParseError(t *testing.T) {
	_, db, ts := newDurableTestServer(t, t.TempDir(), tdb.FsyncOff)
	bad := "timestamp,items\n2024-01-01 12:00:00,bread\nnot-a-time,milk\n"
	resp, err := http.Post(ts.URL+"/v1/import?table=baskets", "text/csv", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad import status %d: %s", resp.StatusCode, raw)
	}
	tbl, _ := db.TxTable("baskets")
	if tbl.Len() != 0 {
		t.Fatalf("failed import leaked %d rows into the table", tbl.Len())
	}
	db.Kill()
}

// TestImportRefusedLeavesDictionary: a refused import interns nothing.
// The body's last record names an item never seen before under a
// timestamp outside the storable range; its 400 must leave the
// dictionary as it was, or the next append would write those names to
// the WAL and the next checkpoint to items.dict. A body over the limit
// is a 413, as on the other write endpoints.
func TestImportRefusedLeavesDictionary(t *testing.T) {
	_, db, ts := newDurableTestServer(t, t.TempDir(), tdb.FsyncOff)
	defer db.Kill()
	dictLen := db.Dict().Len()
	bad := "timestamp,items\n2024-01-01 12:00:00,bread;milk\n1500-06-01 00:00:00,never-seen-before\n"
	resp, err := http.Post(ts.URL+"/v1/import?table=baskets", "text/csv", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad import status %d: %s", resp.StatusCode, raw)
	}
	if got := db.Dict().Len(); got != dictLen {
		t.Errorf("dictionary grew from %d to %d names on a refused import", dictLen, got)
	}

	_, err = tdb.ParseBaskets(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(strings.NewReader(bad)), 16))
	if code := bodyErrorCode(err); code != http.StatusRequestEntityTooLarge {
		t.Errorf("an import body over its limit maps to %d (%v), want 413", code, err)
	}
}

func TestImportExportValidation(t *testing.T) {
	_, _, ts := newDurableTestServer(t, t.TempDir(), tdb.FsyncOff)
	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{"POST", "/v1/import", http.StatusBadRequest},                // no table
		{"GET", "/v1/export", http.StatusBadRequest},                 // no table
		{"GET", "/v1/export?table=nosuch", http.StatusNotFound},      // unknown table
		{"POST", "/v1/import?table=bad.name", http.StatusBadRequest}, // invalid name
	} {
		var resp *http.Response
		var err error
		if tc.method == "POST" {
			resp, err = http.Post(ts.URL+tc.path, "text/csv", strings.NewReader(importCSV))
		} else {
			resp, err = http.Get(ts.URL + tc.path)
		}
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

// TestStorageAdmission: import, flush and export are admitted by the
// sequence statements and appends use, so they refuse alike — 503 while
// draining and 429 at a full queue, each with Retry-After and the
// uniform error body — and a refused import stores nothing.
func TestStorageAdmission(t *testing.T) {
	endpoints := []struct{ name, method, path, body string }{
		{"import", "POST", "/v1/import?table=loaded", importCSV},
		{"flush", "POST", "/v1/flush", ""},
		{"export", "GET", "/v1/export?table=baskets", ""},
	}
	for _, state := range []struct {
		name string
		code int
		msg  string
	}{
		{"queue-full", http.StatusTooManyRequests, "queue full"},
		{"draining", http.StatusServiceUnavailable, "draining"},
	} {
		t.Run(state.name, func(t *testing.T) {
			db, err := tdb.OpenDurable(t.TempDir(), tdb.Durability{Fsync: tdb.FsyncOff})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Kill()
			fillFixture(t, db)
			bt := newBlockTracer()
			s := New(db, Config{Pool: 1, Queue: 1, Tracer: bt})
			ts := httptest.NewServer(s)
			defer ts.Close()

			// Wedge one statement in its first pass; then either queue a
			// second behind it (the server is exactly full) or drain.
			results := make(chan int, 2)
			post := func() {
				code, _, _ := postStatement(t, ts.URL, testStatements[2], "")
				results <- code
			}
			go post()
			<-bt.entered
			waiting := 1
			drained := make(chan error, 1)
			if state.code == http.StatusTooManyRequests {
				go post()
				waiting++
				waitHealthz(t, ts.URL, func(h map[string]any) bool {
					return h["inflight"].(float64) == 1 && h["queued"].(float64) == 1
				})
			} else {
				go func() { drained <- s.Drain(context.Background()) }()
				waitHealthz(t, ts.URL, func(h map[string]any) bool { return h["status"] == "draining" })
			}

			for _, ep := range endpoints {
				rid := state.name + "-" + ep.name
				req, err := http.NewRequest(ep.method, ts.URL+ep.path, strings.NewReader(ep.body))
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("X-Request-ID", rid)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != state.code {
					t.Errorf("%s: status %d, want %d: %s", ep.name, resp.StatusCode, state.code, raw)
					continue
				}
				if retry := resp.Header.Get("Retry-After"); retry != "1" {
					t.Errorf("%s: Retry-After = %q, want \"1\"", ep.name, retry)
				}
				e := decodeError(t, string(raw))
				if !strings.Contains(e.Error, state.msg) || e.RequestID != rid || e.RetryAfterMS != 1000 {
					t.Errorf("%s: body = %+v, want %q with request id %s and retry_after_ms 1000", ep.name, e, state.msg, rid)
				}
			}
			if _, ok := db.TxTable("loaded"); ok {
				t.Error("a refused import created its table")
			}

			close(bt.release)
			for ; waiting > 0; waiting-- {
				if code := <-results; code != http.StatusOK {
					t.Errorf("blocked statement finished with %d, want 200", code)
				}
			}
			if state.code == http.StatusServiceUnavailable {
				if err := <-drained; err != nil {
					t.Fatalf("drain: %v", err)
				}
			}
		})
	}
}
