// Batched ingest: POST /v1/append accepts a batch of timestamped
// transactions for one table, admission-controlled through the same
// pool as statements so a write burst backpressures instead of starving
// the miners. Appends feed the table's change log, so a warm hold-table
// cache entry is delta-maintained on the next MINE rather than
// invalidated.

package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
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

// appendRequest is the POST /v1/append JSON body.
type appendRequest struct {
	Table        string     `json:"table"`
	Transactions []appendTx `json:"transactions"`
}

// appendTx is one transaction of an append batch. Items are names,
// interned into the database dictionary on arrival.
type appendTx struct {
	At    time.Time `json:"at"`
	Items []string  `json:"items"`
}

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

// handleAppend admits and applies one append batch.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	req, err := readAppend(r)
	if err != nil {
		s.reg.Counter(MetricAppendErrors).Add(1)
		s.reject(w, http.StatusBadRequest, err.Error())
		return
	}
	tbl, ok := s.db.TxTable(req.Table)
	if !ok {
		s.reg.Counter(MetricAppendErrors).Add(1)
		s.reject(w, http.StatusNotFound, fmt.Sprintf("tarmd: no transaction table %q", req.Table))
		return
	}

	// Admission control, identical to statements: drain refuses, the
	// pool bounds concurrency, the queue bounds waiting.
	release, ok := s.admitOp(w, r, MetricAppendErrors)
	if !ok {
		return
	}
	defer release()
	s.reg.Counter(MetricAppends).Add(1)

	// Journal the batch like a statement, under the request's trace ID,
	// so the query history interleaves reads and writes.
	stmtText := fmt.Sprintf("APPEND %d tx INTO %s", len(req.Transactions), req.Table)
	inflight := s.journal.Begin(obs.TraceFromContext(r.Context()), stmtText, "append")

	start := time.Now()
	batch := make([]tdb.Tx, len(req.Transactions))
	for i, tx := range req.Transactions {
		batch[i] = tdb.Tx{At: tx.At, Items: s.db.Dict().InternAll(tx.Items...)}
	}
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
	s.subs.observe(req.Table)

	writeJSON(w, http.StatusOK, appendResponse{
		Table:     req.Table,
		RequestID: w.Header().Get("X-Request-ID"),
		Appended:  len(batch),
		Epoch:     epoch,
		Durable:   s.db.Durable(),
		WallMS:    float64(wall) / float64(time.Millisecond),
	})
}

// readAppend decodes and validates the append body.
func readAppend(r *http.Request) (appendRequest, error) {
	var req appendRequest
	body, err := io.ReadAll(io.LimitReader(r.Body, maxAppendBody))
	if err != nil {
		return req, fmt.Errorf("tarmd: reading body: %w", err)
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return req, fmt.Errorf("tarmd: bad JSON body: %w", err)
	}
	if req.Table == "" {
		return req, fmt.Errorf("tarmd: append without a table")
	}
	if len(req.Transactions) == 0 {
		return req, fmt.Errorf("tarmd: append with no transactions")
	}
	for i, tx := range req.Transactions {
		if tx.At.IsZero() {
			return req, fmt.Errorf("tarmd: transaction %d has no timestamp", i)
		}
		if err := tdb.CheckTime(tx.At); err != nil {
			return req, fmt.Errorf("tarmd: transaction %d: %w", i, err)
		}
		if len(tx.Items) == 0 {
			return req, fmt.Errorf("tarmd: transaction %d has no items", i)
		}
	}
	return req, nil
}
