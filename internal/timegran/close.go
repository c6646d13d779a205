package timegran

import "time"

// Granule-close arithmetic for continuous mining.
//
// A standing statement must only re-emit results when a granule can no
// longer change, and the system has no authoritative wall clock for the
// data: timestamps come from the append stream itself. The *stream
// clock* is the maximum transaction timestamp seen so far, and a
// granule n is **closed** once the stream clock reaches End(n, g) — the
// first instant of granule n+1. Every transaction at or after that
// instant belongs to a later granule, so under in-order appends granule
// n's contents are final. (Out-of-order appends into a closed granule
// are still legal; they surface through the change log as dirty closed
// granules and force a re-emission.)

// ClosedThrough returns the last granule closed under stream clock
// `clock` at granularity g, i.e. the granule immediately before the one
// containing clock. A clock sitting exactly on a granule boundary —
// clock == End(n, g) == Start(n+1, g) — closes granule n: granules
// cover the half-open interval [Start, End), so the boundary instant is
// the first moment of n+1.
//
// Every granule ≤ ClosedThrough is closed; the granule containing
// clock (ClosedThrough+1) is still open.
func ClosedThrough(clock time.Time, g Granularity) Granule {
	return GranuleOf(clock, g) - 1
}
