// Continuous mining: POST /v1/subscriptions registers a standing
// SUBSCRIBE MINE statement; a per-subscription worker re-runs it when
// the append stream closes a granule (or dirties a closed one) and
// emits rule deltas — added / removed / changed — into a bounded
// per-subscriber event ring served by GET /v1/subscriptions/{id}/events
// as long-poll JSON or SSE. A wedged or disconnected subscriber costs
// the server nothing but its ring: pushes never block, overflow drops
// the oldest event (counted, surfaced, detectable by the seq gap), and
// refreshes stay bounded by a small semaphore so a storm of
// subscriptions cannot starve interactive statements out of the shared
// executor.

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tml"
)

// Subscription metric names, next to the tarmd_* statement metrics.
const (
	MetricSubs           = "tarmd_subs_total"            // subscriptions registered (counter)
	MetricSubsActive     = "tarmd_subs_active"           // subscriptions currently registered (gauge)
	MetricSubRejected    = "tarmd_sub_rejected_total"    // registrations refused: limit reached (counter)
	MetricSubRefreshes   = "tarmd_sub_refreshes_total"   // standing-statement re-runs (counter)
	MetricSubRefreshErrs = "tarmd_sub_refresh_err_total" // re-runs that failed (counter)
	MetricSubEvents      = "tarmd_sub_events_total"      // delta events emitted (counter)
	MetricSubDeltas      = "tarmd_sub_deltas_total"      // rule deltas across all events (counter)
	MetricSubDropped     = "tarmd_sub_dropped_total"     // events a full ring evicted before any reader had them (counter)
	MetricSubRefreshSecs = "tarmd_sub_refresh_seconds"   // re-run latency (histogram)
)

// subEvent is one emission: a sequence number over the subscription's
// lifetime, the emission wall time, and the standing statement's
// update (closed granule, epoch, deltas).
type subEvent struct {
	Seq int64     `json:"seq"`
	At  time.Time `json:"at"`
	tml.SubUpdate
}

// subscription is one registered standing statement plus its bounded
// event ring and long-poll wakeup.
type subscription struct {
	id       string
	table    string
	standing *tml.Standing
	created  time.Time

	notify chan struct{} // coalesced "table advanced" signal, cap 1
	stop   chan struct{} // closed on deregistration
	done   chan struct{} // worker exited

	mu        sync.Mutex
	events    []subEvent // ring, newest last; bounded by manager queue cap
	nextSeq   int64
	handed    int64 // events with Seq < handed have gone out to a reader
	dropped   int64 // evicted while Seq >= handed: lost, not merely aged out
	refreshes int64
	errs      int64
	lastErr   string
	wake      chan struct{} // closed on every push; long-pollers wait on it
}

// push appends an event to the ring, evicting the oldest when full, and
// wakes every long-poller. Never blocks. The ring retains events after
// delivery (a reconnecting reader can replay them), so an eviction is a
// drop only when no reader was ever handed the evicted event.
func (sub *subscription) push(ev subEvent, cap_ int) (dropped bool) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	ev.Seq = sub.nextSeq
	sub.nextSeq++
	if len(sub.events) >= cap_ {
		if sub.events[0].Seq >= sub.handed {
			sub.dropped++
			dropped = true
		}
		n := copy(sub.events, sub.events[1:])
		sub.events = sub.events[:n]
	}
	sub.events = append(sub.events, ev)
	close(sub.wake)
	sub.wake = make(chan struct{})
	return dropped
}

// eventsAfter snapshots the retained events with Seq > after for a
// reader (long-poll answer or SSE write) and records them as handed
// out.
func (sub *subscription) eventsAfter(after int64) (evs []subEvent, next int64, wake <-chan struct{}) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	next = after
	for _, ev := range sub.events {
		if ev.Seq > after {
			evs = append(evs, ev)
			next = ev.Seq
		}
	}
	if len(evs) > 0 && next >= sub.handed {
		sub.handed = next + 1
	}
	return evs, next, sub.wake
}

// subManager owns the subscriptions: registration limits, the observe
// fan-out from appends, and the worker lifecycle. All refreshes share
// one small semaphore so standing statements are admission-controlled
// against the executor like any other load.
type subManager struct {
	s          *Server
	ctx        context.Context
	cancel     context.CancelFunc
	refreshSem chan struct{}

	mu      sync.Mutex
	subs    map[string]*subscription
	byTable map[string][]*subscription
	nextID  int64
	closed  bool
}

func newSubManager(s *Server) *subManager {
	ctx, cancel := context.WithCancel(context.Background())
	workers := s.cfg.Pool / 2
	if workers < 1 {
		workers = 1
	}
	return &subManager{
		s:          s,
		ctx:        ctx,
		cancel:     cancel,
		refreshSem: make(chan struct{}, workers),
		subs:       make(map[string]*subscription),
		byTable:    make(map[string][]*subscription),
	}
}

// register creates a subscription for stmt, or reports why not.
func (m *subManager) register(stmt *tml.MineStmt) (*subscription, error) {
	standing, err := tml.NewStanding(m.s.exec, stmt)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, errDraining
	}
	if len(m.subs) >= m.s.cfg.MaxSubs {
		m.mu.Unlock()
		return nil, errSubsFull
	}
	m.nextID++
	sub := &subscription{
		id:       fmt.Sprintf("sub-%d", m.nextID),
		table:    stmt.Table,
		standing: standing,
		created:  time.Now(),
		notify:   make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		wake:     make(chan struct{}),
	}
	m.subs[sub.id] = sub
	m.byTable[sub.table] = append(m.byTable[sub.table], sub)
	active := len(m.subs)
	m.mu.Unlock()

	m.s.reg.Counter(MetricSubs).Add(1)
	m.s.reg.Gauge(MetricSubsActive).Set(float64(active))
	// Prime the worker: the first run emits the registration snapshot.
	sub.notify <- struct{}{}
	go m.worker(sub)
	return sub, nil
}

var (
	errSubsFull = fmt.Errorf("subscription limit reached")
	errDraining = fmt.Errorf("server is draining")
)

// get returns a subscription by id.
func (m *subManager) get(id string) *subscription {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.subs[id]
}

// remove deregisters and stops a subscription; reports whether it
// existed.
func (m *subManager) remove(id string) bool {
	m.mu.Lock()
	sub := m.subs[id]
	if sub == nil {
		m.mu.Unlock()
		return false
	}
	delete(m.subs, id)
	byTable := m.byTable[sub.table][:0]
	for _, s := range m.byTable[sub.table] {
		if s != sub {
			byTable = append(byTable, s)
		}
	}
	m.byTable[sub.table] = byTable
	active := len(m.subs)
	m.mu.Unlock()
	m.s.reg.Gauge(MetricSubsActive).Set(float64(active))
	// Stop the worker via the stop channel; the notify channel is never
	// closed, so a racing observe can still send into it harmlessly.
	close(sub.stop)
	<-sub.done
	return true
}

// list snapshots the registered subscriptions, oldest first (ids are
// sub-N, so numeric order is creation order).
func (m *subManager) list() []*subscription {
	m.mu.Lock()
	out := make([]*subscription, 0, len(m.subs))
	for _, sub := range m.subs {
		out = append(out, sub)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return subNum(out[i].id) < subNum(out[j].id) })
	return out
}

func subNum(id string) int64 {
	n, _ := strconv.ParseInt(strings.TrimPrefix(id, "sub-"), 10, 64)
	return n
}

// observe tells every subscription on table that it advanced. Called
// after each successful append; never blocks (the notify channel
// coalesces).
func (m *subManager) observe(table string) {
	m.mu.Lock()
	subs := append([]*subscription(nil), m.byTable[table]...)
	m.mu.Unlock()
	for _, sub := range subs {
		select {
		case sub.notify <- struct{}{}:
		default:
		}
	}
}

// shutdown stops every worker and refuses new registrations. Called by
// Drain before waiting on in-flight statements.
func (m *subManager) shutdown() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	subs := make([]*subscription, 0, len(m.subs))
	for _, sub := range m.subs {
		subs = append(subs, sub)
	}
	m.mu.Unlock()
	m.cancel()
	for _, sub := range subs {
		<-sub.done
	}
}

// worker is one subscription's refresh loop: wait for an append signal
// (or the registration prime), step the standing statement under the
// shared refresh semaphore, emit the update.
func (m *subManager) worker(sub *subscription) {
	defer close(sub.done)
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-sub.stop:
			return
		case <-sub.notify:
		}
		m.refresh(sub)
	}
}

// refresh runs one Step and pushes its update, if any.
func (m *subManager) refresh(sub *subscription) {
	select {
	case m.refreshSem <- struct{}{}:
	case <-m.ctx.Done():
		return
	}
	defer func() { <-m.refreshSem }()

	start := time.Now()
	upd, err := sub.standing.Step(m.ctx)
	if err != nil {
		if m.ctx.Err() != nil {
			return
		}
		m.s.reg.Counter(MetricSubRefreshErrs).Add(1)
		sub.mu.Lock()
		sub.errs++
		sub.lastErr = err.Error()
		sub.mu.Unlock()
		return
	}
	if upd == nil {
		return // nothing closed, nothing dirty: not a refresh
	}
	m.s.reg.Counter(MetricSubRefreshes).Add(1)
	m.s.reg.Histogram(MetricSubRefreshSecs).Observe(time.Since(start).Seconds())
	sub.mu.Lock()
	sub.refreshes++
	sub.mu.Unlock()
	if sub.push(subEvent{At: time.Now(), SubUpdate: *upd}, m.s.cfg.SubQueue) {
		m.s.reg.Counter(MetricSubDropped).Add(1)
	}
	m.s.reg.Counter(MetricSubEvents).Add(1)
	m.s.reg.Counter(MetricSubDeltas).Add(int64(len(upd.Deltas)))
}

// subView is the JSON shape of one subscription: identity, the standing
// statement, and live progress counters. Epoch vs TableEpoch lets a
// client detect a settled stream (every append reflected in an emitted
// event): Epoch is the newest pushed event's, so a reader that sees it
// can read that event.
type subView struct {
	ID            string    `json:"id"`
	RequestID     string    `json:"request_id,omitempty"`
	Statement     string    `json:"statement"`
	Table         string    `json:"table"`
	Task          string    `json:"task"`
	Created       time.Time `json:"created"`
	ClosedThrough string    `json:"closed_through,omitempty"`
	Epoch         int64     `json:"epoch"`
	TableEpoch    int64     `json:"table_epoch"`
	Rules         int       `json:"rules"`
	NextSeq       int64     `json:"next_seq"`
	Refreshes     int64     `json:"refreshes"`
	Dropped       int64     `json:"dropped"`
	Errors        int64     `json:"errors"`
	LastError     string    `json:"last_error,omitempty"`
}

func (s *Server) subView(sub *subscription, rid string) subView {
	v := subView{
		ID:         sub.id,
		RequestID:  rid,
		Statement:  sub.standing.Stmt().String(),
		Table:      sub.table,
		Task:       sub.standing.Task(),
		Created:    sub.created,
		TableEpoch: sub.standing.Table().Epoch(),
	}
	sub.mu.Lock()
	v.NextSeq = sub.nextSeq
	v.Refreshes = sub.refreshes
	v.Dropped = sub.dropped
	v.Errors = sub.errs
	v.LastError = sub.lastErr
	if n := len(sub.events); n > 0 {
		last := sub.events[n-1]
		v.Epoch = last.Epoch
		v.Rules = last.Rules
		v.ClosedThrough = last.ClosedLabel
	}
	sub.mu.Unlock()
	return v
}

// handleSubscribe registers a standing statement: 400 for anything but
// a well-formed SUBSCRIBE MINE, 404 for an unknown table, 429 at the
// subscription limit, 503 while draining.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	req, err := readStatement(w, r)
	if err != nil {
		s.reject(w, bodyErrorCode(err), err.Error())
		return
	}
	if s.isDraining() {
		s.refuseDraining(w)
		return
	}
	if !tml.IsSubscribeStatement(req.Statement) {
		s.reject(w, http.StatusBadRequest, "tarmd: subscriptions want a SUBSCRIBE MINE statement")
		return
	}
	stmt, err := tml.Parse(req.Statement)
	if err != nil {
		s.reject(w, http.StatusBadRequest, err.Error())
		return
	}
	if _, ok := s.db.TxTable(stmt.Table); !ok {
		s.reject(w, http.StatusNotFound, fmt.Sprintf("tarmd: no transaction table %q", stmt.Table))
		return
	}
	sub, err := s.subs.register(stmt)
	switch {
	case err == errSubsFull:
		s.refuse(w, http.StatusTooManyRequests, MetricSubRejected,
			fmt.Sprintf("tarmd: subscription limit reached (%d active)", s.cfg.MaxSubs))
		return
	case err == errDraining:
		s.refuseDraining(w)
		return
	case err != nil:
		s.reject(w, http.StatusBadRequest, err.Error())
		return
	}
	// Journal the registration like a statement, so the query history
	// shows when each standing statement entered the system; the
	// refreshes it triggers journal themselves through the executor.
	fl := s.journal.Begin(obs.TraceFromContext(r.Context()), stmt.String(), obs.TaskSubscribe)
	fl.End(obs.QueryOutcome{})
	writeJSON(w, http.StatusCreated, s.subView(sub, w.Header().Get("X-Request-ID")))
}

func (s *Server) handleSubList(w http.ResponseWriter, r *http.Request) {
	subs := s.subs.list()
	views := make([]subView, 0, len(subs))
	for _, sub := range subs {
		views = append(views, s.subView(sub, ""))
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleSubGet(w http.ResponseWriter, r *http.Request) {
	sub := s.subs.get(r.PathValue("id"))
	if sub == nil {
		s.reject(w, http.StatusNotFound, fmt.Sprintf("tarmd: no subscription %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, s.subView(sub, w.Header().Get("X-Request-ID")))
}

func (s *Server) handleSubDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.subs.remove(id) {
		s.reject(w, http.StatusNotFound, fmt.Sprintf("tarmd: no subscription %q", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": "removed"})
}

// subEventsResponse is the long-poll GET .../events answer. NextAfter
// is the cursor for the next poll; Dropped is the lifetime count of
// events the ring evicted before any reader was handed them (a jump in
// Seq numbers tells a client *where*). A reader that keeps up sees 0
// however many events have aged out of the ring behind it.
type subEventsResponse struct {
	ID        string     `json:"id"`
	RequestID string     `json:"request_id,omitempty"`
	Events    []subEvent `json:"events"`
	NextAfter int64      `json:"next_after"`
	Dropped   int64      `json:"dropped"`
}

// maxEventWait caps ?wait_ms long-polls.
const maxEventWait = 30 * time.Second

// handleSubEvents serves a subscription's event stream: plain JSON with
// optional long-poll (?after=N&wait_ms=M), or SSE when the client asks
// for text/event-stream (or ?stream=sse).
func (s *Server) handleSubEvents(w http.ResponseWriter, r *http.Request) {
	sub := s.subs.get(r.PathValue("id"))
	if sub == nil {
		s.reject(w, http.StatusNotFound, fmt.Sprintf("tarmd: no subscription %q", r.PathValue("id")))
		return
	}
	q := r.URL.Query()
	after := int64(-1)
	if v := q.Get("after"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			s.reject(w, http.StatusBadRequest, "tarmd: bad after cursor")
			return
		}
		after = n
	}
	if q.Get("stream") == "sse" || strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.serveSSE(w, r, sub, after)
		return
	}
	var wait time.Duration
	if v := q.Get("wait_ms"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			s.reject(w, http.StatusBadRequest, "tarmd: bad wait_ms")
			return
		}
		wait = time.Duration(n) * time.Millisecond
		if wait > maxEventWait {
			wait = maxEventWait
		}
	}
	deadline := time.Now().Add(wait)
	for {
		evs, next, wake := sub.eventsAfter(after)
		if len(evs) > 0 || time.Now().After(deadline) {
			sub.mu.Lock()
			dropped := sub.dropped
			sub.mu.Unlock()
			if evs == nil {
				evs = []subEvent{}
			}
			writeJSON(w, http.StatusOK, subEventsResponse{
				ID:        sub.id,
				RequestID: w.Header().Get("X-Request-ID"),
				Events:    evs,
				NextAfter: next,
				Dropped:   dropped,
			})
			return
		}
		remain := time.Until(deadline)
		timer := time.NewTimer(remain)
		select {
		case <-wake:
			timer.Stop()
		case <-timer.C:
		case <-r.Context().Done():
			timer.Stop()
			return
		}
	}
}

// serveSSE streams events as Server-Sent Events until the client goes
// away (or the server drains). Each event is one `data:` line of the
// same JSON the long-poll returns.
func (s *Server) serveSSE(w http.ResponseWriter, r *http.Request, sub *subscription, after int64) {
	fl, ok := w.(http.Flusher)
	if !ok {
		s.reject(w, http.StatusBadRequest, "tarmd: streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		evs, next, wake := sub.eventsAfter(after)
		for _, ev := range evs {
			b, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\ndata: %s\n\n", ev.Seq, b)
		}
		if len(evs) > 0 {
			fl.Flush()
			after = next
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		case <-s.subs.ctx.Done():
			return
		}
	}
}
