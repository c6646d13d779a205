// Storage-surface endpoints: checkpointing and bulk CSV ingest/egress.
//
//	POST /v1/flush            checkpoint the database; on a durable
//	                          database this truncates the WAL
//	POST /v1/import?table=T   basket CSV body → transactions in T
//	                          (T is created when absent)
//	GET  /v1/export?table=T   T as basket CSV
//
// All three run through the one admission sequence statements and
// appends use (Server.admit: drain refusal, bounded queue, pool slot)
// and land in the query journal, so a bulk import shows up in
// /v1/queries next to the MINE statements it races.

package server

import (
	"bytes"
	"fmt"
	"net/http"
	"time"

	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
)

// Storage metric names.
const (
	MetricFlushes      = "tarmd_flushes_total"    // checkpoints served (counter)
	MetricFlushErrors  = "tarmd_flush_err_total"  // failed checkpoints (counter)
	MetricImports      = "tarmd_imports_total"    // imports served (counter)
	MetricImportTx     = "tarmd_import_tx_total"  // transactions imported (counter)
	MetricImportErrors = "tarmd_import_err_total" // failed imports (counter)
	MetricExports      = "tarmd_exports_total"    // exports served (counter)
	MetricExportErrors = "tarmd_export_err_total" // failed exports (counter)
)

// maxImportBody bounds import bodies; bigger loads should arrive as
// multiple requests (each an atomic, WAL-committed batch).
const maxImportBody = 64 << 20

// flushResponse reports what the checkpoint wrote.
type flushResponse struct {
	RequestID       string  `json:"request_id,omitempty"`
	Durable         bool    `json:"durable"`
	Tables          int     `json:"tables"`
	SegmentsWritten int     `json:"segments_written"`
	SegmentsSkipped int     `json:"segments_skipped"`
	WALTruncated    int64   `json:"wal_truncated_bytes"`
	WallMS          float64 `json:"wall_ms"`
}

// handleFlush checkpoints the database on demand: segment files, dict
// and manifest rewritten, WAL truncated. Operators call it before a
// backup or to bound recovery time; the SIGTERM drain path does the
// same thing via DB.Close.
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	if s.db.Dir() == "" {
		s.reject(w, http.StatusBadRequest, "tarmd: flush on a memory-only database")
		return
	}
	release, ok := s.admit(r.Context(), w, "", MetricFlushErrors)
	if !ok {
		return
	}
	defer release()

	inflight := s.journal.Begin(obs.TraceFromContext(r.Context()), "FLUSH", "flush")
	start := time.Now()
	st, err := s.db.Checkpoint()
	wall := time.Since(start)
	if err != nil {
		s.reg.Counter(MetricFlushErrors).Add(1)
		inflight.End(obs.QueryOutcome{Err: err})
		s.reject(w, http.StatusInternalServerError, fmt.Sprintf("tarmd: flush: %v", err))
		return
	}
	s.reg.Counter(MetricFlushes).Add(1)
	inflight.End(obs.QueryOutcome{Rows: st.Tables})
	writeJSON(w, http.StatusOK, flushResponse{
		RequestID:       w.Header().Get("X-Request-ID"),
		Durable:         s.db.Durable(),
		Tables:          st.Tables,
		SegmentsWritten: st.SegmentsWritten,
		SegmentsSkipped: st.SegmentsSkipped,
		WALTruncated:    st.WALTruncated,
		WallMS:          float64(wall) / float64(time.Millisecond),
	})
}

// importResponse reports what landed, mirroring appendResponse.
type importResponse struct {
	Table     string  `json:"table"`
	RequestID string  `json:"request_id,omitempty"`
	Imported  int     `json:"imported"`
	Epoch     int64   `json:"epoch"`
	Durable   bool    `json:"durable"`
	Created   bool    `json:"created,omitempty"` // table did not exist before
	WallMS    float64 `json:"wall_ms"`
}

// handleImport bulk-loads basket CSV (timestamp,item;item;...) into
// ?table=, creating the table when absent. The whole body is parsed
// before anything is stored, then committed as one batch, so the
// import is atomic with respect to concurrent scans and costs one WAL
// commit regardless of size; a parse error rejects the whole body with
// nothing applied and no table created.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("table")
	if name == "" {
		s.reg.Counter(MetricImportErrors).Add(1)
		s.reject(w, http.StatusBadRequest, "tarmd: import without ?table=")
		return
	}
	release, ok := s.admit(r.Context(), w, "", MetricImportErrors)
	if !ok {
		return
	}
	defer release()

	inflight := s.journal.Begin(obs.TraceFromContext(r.Context()),
		fmt.Sprintf("IMPORT CSV INTO %s", name), "import")
	start := time.Now()

	fail := func(code int, err error) {
		s.reg.Counter(MetricImportErrors).Add(1)
		inflight.End(obs.QueryOutcome{Err: err})
		s.reject(w, code, err.Error())
	}

	// Neither the dictionary nor the table is touched until the whole
	// body has parsed: a refused body leaves no names behind for the
	// next WAL dictionary frame or checkpoint to persist.
	baskets, err := tdb.ParseBaskets(http.MaxBytesReader(w, r.Body, maxImportBody))
	if err != nil {
		fail(bodyErrorCode(err), fmt.Errorf("tarmd: import: %w", err))
		return
	}
	if len(baskets) == 0 {
		fail(http.StatusBadRequest, fmt.Errorf("tarmd: import: empty CSV body"))
		return
	}

	tbl, ok := s.db.TxTable(name)
	created := false
	if !ok {
		if tbl, err = s.db.CreateTxTable(name); err != nil {
			fail(http.StatusBadRequest, err)
			return
		}
		created = true
	}
	_, epoch, err := tbl.AppendBatchDurable(tdb.InternBaskets(baskets, s.db.Dict()))
	wall := time.Since(start)
	if err != nil {
		fail(http.StatusInternalServerError, fmt.Errorf("tarmd: import not durable: %w", err))
		return
	}

	n := len(baskets)
	s.reg.Counter(MetricImports).Add(1)
	s.reg.Counter(MetricImportTx).Add(int64(n))
	inflight.End(obs.QueryOutcome{Rows: n})
	s.subs.observe(name)
	writeJSON(w, http.StatusOK, importResponse{
		Table:     name,
		RequestID: w.Header().Get("X-Request-ID"),
		Imported:  n,
		Epoch:     epoch,
		Durable:   s.db.Durable(),
		Created:   created,
		WallMS:    float64(wall) / float64(time.Millisecond),
	})
}

// handleExport dumps ?table= as basket CSV — the byte-for-byte inverse
// of handleImport, so export → import round-trips a table.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("table")
	if name == "" {
		s.reg.Counter(MetricExportErrors).Add(1)
		s.reject(w, http.StatusBadRequest, "tarmd: export without ?table=")
		return
	}
	tbl, ok := s.db.TxTable(name)
	if !ok {
		s.reg.Counter(MetricExportErrors).Add(1)
		s.reject(w, http.StatusNotFound, fmt.Sprintf("tarmd: no transaction table %q", name))
		return
	}
	release, admitted := s.admit(r.Context(), w, "", MetricExportErrors)
	if !admitted {
		return
	}
	defer release()

	inflight := s.journal.Begin(obs.TraceFromContext(r.Context()),
		fmt.Sprintf("EXPORT %s TO CSV", name), "export")

	// Render to a buffer first so an export error can still become a
	// clean 500 instead of a torn 200 body.
	var buf bytes.Buffer
	if err := tdb.ExportBaskets(&buf, tbl, s.db.Dict()); err != nil {
		s.reg.Counter(MetricExportErrors).Add(1)
		inflight.End(obs.QueryOutcome{Err: err})
		s.reject(w, http.StatusInternalServerError, fmt.Sprintf("tarmd: export: %v", err))
		return
	}
	s.reg.Counter(MetricExports).Add(1)
	inflight.End(obs.QueryOutcome{Rows: tbl.Len()})
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", name+".csv"))
	_, _ = w.Write(buf.Bytes())
}
