package core

import (
	"context"
	"fmt"

	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// ExtendContext incrementally updates the hold table after new
// transactions were appended to tbl at or after the old span's end (the
// production pattern: one new day arrives, yesterday's table is
// refreshed without recounting the whole history). It returns a new
// HoldTable; the receiver is unchanged.
//
// It is the append-at-the-end special case of MaintainContext: the
// dirty region is the old final granule (appends may land inside it)
// plus every granule after it. It returns an error if the table's span
// no longer starts where it used to, or if nothing new arrived; appends
// that landed strictly inside the old span are caught by
// MaintainContext's dirty-list soundness check and also surface as an
// error telling the caller to rebuild, as do a table scoped to one
// statement and a threshold view. Cancellation is observed between
// levels and between granule scans, never per transaction.
func (h *HoldTable) ExtendContext(ctx context.Context, tbl *tdb.TxTable) (*HoldTable, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := h.refreshErr("Extend"); err != nil {
		return nil, err
	}
	span, ok := tbl.Span(h.Cfg.Granularity)
	if !ok {
		return nil, fmt.Errorf("core: Extend on an empty table")
	}
	if span.Lo != h.Span.Lo {
		return nil, fmt.Errorf("core: Extend: span start moved from %d to %d; rebuild instead", h.Span.Lo, span.Lo)
	}
	if span.Hi <= h.Span.Hi {
		return nil, fmt.Errorf("core: Extend: no granules after %d (table ends at %d)", h.Span.Hi, span.Hi)
	}
	dirty := make([]timegran.Granule, 0, int(span.Hi-h.Span.Hi)+1)
	for g := h.Span.Hi; g <= span.Hi; g++ {
		dirty = append(dirty, g)
	}
	return h.MaintainContext(ctx, tbl, dirty)
}
