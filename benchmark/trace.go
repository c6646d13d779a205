package main

import (
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/tarm-project/tarm/internal/obs"
)

// span is one recorded interval. Harness spans (client ops, layer
// probes) and the spans tarmd publishes for a statement share a trace
// id — the statement's X-Request-ID — so trace_<workload>.json reads as
// one forest: client op → its HTTP steps → the server's statement →
// op:* → core.BuildHoldTable → pass:Lk.
type span struct {
	Trace   string            `json:"trace"`
	ID      int               `json:"id"`
	Parent  int               `json:"parent"` // 0 = root
	Name    string            `json:"name"`
	StartMS float64           `json:"start_ms"` // since the recorder was created
	DurMS   float64           `json:"dur_ms"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// maxSpans bounds the recorder: layer metrics are aggregated as spans
// arrive, so dropping the tail of a long run loses detail in the file,
// never in the numbers.
const maxSpans = 200_000

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its id (0 when not recording
// or full).
func (r *recorder) add(trace, name string, parent int, start time.Time, dur time.Duration, attrs map[string]string) int {
	if r == nil || len(r.spans) >= maxSpans {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		StartMS: float64(start.Sub(r.t0)) / 1e6,
		DurMS:   float64(dur) / 1e6,
		Attrs:   attrs,
	})
	return id
}

// attach hangs a server-published span tree under a client span. The
// server reports offsets from its own first span; the client cannot
// see when, inside its round trip, the server started, so the tree is
// centred in the client interval.
func (r *recorder) attach(trace string, parent int, clientStart time.Time, clientDur time.Duration, forest []*obs.SpanNode) {
	if r == nil || len(forest) == 0 {
		return
	}
	serverDur := time.Duration(forest[0].WallMS * 1e6)
	base := clientStart.Add((clientDur - serverDur) / 2)
	var walk func(n *obs.SpanNode, parent int)
	walk = func(n *obs.SpanNode, parent int) {
		id := r.add(trace, n.Name, parent,
			base.Add(time.Duration(n.StartMS*1e6)), time.Duration(n.WallMS*1e6), n.Attrs)
		for _, c := range n.Children {
			walk(c, id)
		}
	}
	for _, n := range forest {
		walk(n, parent)
	}
}

func (r *recorder) write(path string, stamp [][2]string) error {
	if r == nil {
		return nil
	}
	kv := make(map[string]string, len(stamp))
	for _, p := range stamp {
		kv[p[0]] = p[1]
	}
	raw, err := json.Marshal(struct {
		Stamp map[string]string `json:"stamp"`
		Spans []span            `json:"spans"`
	}{kv, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfMS is a span's self time: its duration minus the part of its
// interval that its children cover. Children may overlap each other
// (parallel work) or stick out of the parent (clock skew between
// stopwatches); the cover is the union, clipped to the parent.
func selfMS(n *obs.SpanNode) float64 {
	type iv struct{ lo, hi float64 }
	ivs := make([]iv, 0, len(n.Children))
	lo, hi := n.StartMS, n.StartMS+n.WallMS
	for _, c := range n.Children {
		a, b := c.StartMS, c.StartMS+c.WallMS
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	cover, end := 0.0, lo
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			cover += v.hi - end
			end = v.hi
		}
	}
	return n.WallMS - cover
}

// journalAgg accumulates what the statements' journal records say
// about the layers below the plan: operator walls, counting passes and
// their candidate counters.
type journalAgg struct {
	statements int
	stmtMS     float64 // Σ statement span
	journalMS  float64 // Σ journal record wall (Begin → End)
	selfMS     float64 // Σ statement self time
	opMS       map[string]float64
	passMS     [3]float64 // k=1, k=2, k≥3
	counted    float64
	pruned     float64
	frequent   float64
	rows       float64
	stray      int // records without a statement that carry op:* or pass:* spans
}

func newJournalAgg() *journalAgg { return &journalAgg{opMS: map[string]float64{}} }

// queryRecord is the slice of GET /v1/queries/{id} the harness reads.
type queryRecord struct {
	WallMS float64         `json:"wall_ms"`
	Spans  []*obs.SpanNode `json:"spans"`
}

// opKey folds an operator span name into its metric family: every
// op:mine:<task> is "mine".
func opKey(name string) (string, bool) {
	rest, ok := strings.CutPrefix(name, "op:")
	if !ok {
		return "", false
	}
	if strings.HasPrefix(rest, "mine:") {
		return "mine", true
	}
	return rest, true
}

func (a *journalAgg) add(rec *queryRecord) {
	root := obs.Find(rec.Spans, obs.SpanStatement)
	if root == nil {
		// Appends, flushes and imports are journalled without a
		// statement span; what matters is that no mining span hides in
		// them.
		if hasMiningSpan(rec.Spans) {
			a.stray++
		}
		return
	}
	a.statements++
	a.stmtMS += root.WallMS
	a.journalMS += rec.WallMS
	a.selfMS += selfMS(root)
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		if k, ok := opKey(n.Name); ok {
			a.opMS[k] += n.WallMS
		}
		if lvl, ok := strings.CutPrefix(n.Name, "pass:L"); ok {
			if k, err := strconv.Atoi(lvl); err == nil && k >= 1 {
				i := k - 1
				if i > 2 {
					i = 2
				}
				a.passMS[i] += n.WallMS
				a.counted += attrNum(n, "counted")
				a.pruned += attrNum(n, "pruned")
				a.frequent += attrNum(n, "frequent")
				a.rows += attrNum(n, "rows")
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
}

func hasMiningSpan(forest []*obs.SpanNode) bool {
	for _, n := range forest {
		if strings.HasPrefix(n.Name, "op:") || strings.HasPrefix(n.Name, "pass:") || hasMiningSpan(n.Children) {
			return true
		}
	}
	return false
}

func attrNum(n *obs.SpanNode, key string) float64 {
	v, _ := strconv.ParseFloat(n.Attrs[key], 64) // absent or malformed counts as 0
	return v
}
