// Batched ingest: POST /v1/append accepts a batch of timestamped
// transactions for one table, admission-controlled through the same
// pool as statements so a write burst backpressures instead of starving
// the miners. Appends feed the table's change log, so a warm hold-table
// cache entry is delta-maintained on the next MINE rather than
// invalidated.

package server

import (
	"fmt"
	"net/http"
	"time"

	"github.com/tarm-project/tarm/internal/obs"
)

// Append metric names, next to the tarmd_* statement metrics.
const (
	MetricAppends       = "tarmd_appends_total"    // append batches admitted (counter)
	MetricAppendTx      = "tarmd_append_tx_total"  // transactions appended (counter)
	MetricAppendErrors  = "tarmd_append_err_total" // append batches failed (counter)
	MetricAppendLatency = "tarmd_append_seconds"   // end-to-end append latency (histogram)
)

// maxAppendBody bounds append bodies: batches are bigger than
// statements, but an ingest endpoint is not a bulk loader.
const maxAppendBody = 8 << 20

// appendResponse reports what landed: the count, the table's write
// epoch after the batch (which the next MINE's delta maintenance will
// catch up to) and timing.
type appendResponse struct {
	Table     string  `json:"table"`
	RequestID string  `json:"request_id,omitempty"`
	Appended  int     `json:"appended"`
	Epoch     int64   `json:"epoch"`
	Durable   bool    `json:"durable"` // acked after WAL commit
	WallMS    float64 `json:"wall_ms"`
}

// handleAppend admits and applies one append batch: decode (no
// interning), table lookup, admission, then intern and commit.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r, maxAppendBody)
	var req appendBatch
	if err == nil {
		req, err = decodeAppend(body)
	}
	if err != nil {
		s.reg.Counter(MetricAppendErrors).Add(1)
		s.reject(w, bodyErrorCode(err), err.Error())
		return
	}
	tbl, ok := s.db.TxTable(req.table)
	if !ok {
		s.reg.Counter(MetricAppendErrors).Add(1)
		s.reject(w, http.StatusNotFound, fmt.Sprintf("tarmd: no transaction table %q", req.table))
		return
	}

	// Admission control, the statements' own: drain refuses, the pool
	// bounds concurrency, the queue bounds waiting.
	release, ok := s.admit(r.Context(), w, "", MetricAppendErrors)
	if !ok {
		return
	}
	defer release()
	s.reg.Counter(MetricAppends).Add(1)

	// Journal the batch like a statement, under the request's trace ID,
	// so the query history interleaves reads and writes.
	stmtText := fmt.Sprintf("APPEND %d tx INTO %s", len(req.txs), req.table)
	inflight := s.journal.Begin(obs.TraceFromContext(r.Context()), stmtText, "append")

	start := time.Now()
	batch := req.intern(s.db.Dict())
	// On a durable database the 200 is the durability contract: the
	// batch's WAL record is committed under the configured fsync policy
	// before this returns, and a commit failure is a 500, never an ack.
	_, epoch, err := tbl.AppendBatchDurable(batch)
	wall := time.Since(start)
	if err != nil {
		s.reg.Counter(MetricAppendErrors).Add(1)
		inflight.End(obs.QueryOutcome{Err: err})
		s.reject(w, http.StatusInternalServerError, fmt.Sprintf("tarmd: append not durable: %v", err))
		return
	}

	s.reg.Histogram(MetricAppendLatency).Observe(wall.Seconds())
	s.reg.Counter(MetricAppendTx).Add(int64(len(batch)))
	inflight.End(obs.QueryOutcome{Rows: len(batch)})

	// Wake the standing statements on this table: each decides for
	// itself whether the batch closed a granule (or dirtied a closed
	// one) and warrants a refresh. Coalesced, never blocking.
	s.subs.observe(req.table)

	writeJSON(w, http.StatusOK, appendResponse{
		Table:     req.table,
		RequestID: w.Header().Get("X-Request-ID"),
		Appended:  len(batch),
		Epoch:     epoch,
		Durable:   s.db.Durable(),
		WallMS:    float64(wall) / float64(time.Millisecond),
	})
}
