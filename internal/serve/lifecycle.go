package serve

import (
	"encoding/json"
	"net/http"
	"sync"

	"dramscope/internal/trace"
)

// This file is how runs and campaigns progress, written once. Both
// embed a lifecycle: a state that leaves running exactly once, NDJSON
// stream lines that land by slot index in any order, and one wake
// channel. Every terminal transition — LRU and store hits, an
// execution's finish, a coalesced follower's finish, cancellation, a
// campaign's aggregate — goes through finish, which also marks and ends
// the root span, so no path can move a state twice or leave its span
// open. The stream, report and trace endpoints and retention are one
// implementation each over it.

// lifecycle is the progress state a run or a campaign embeds. Its
// stream is the filled prefix of lines followed, once the state is
// terminal, by exactly one terminal line.
type lifecycle struct {
	kind string      // "run" or "campaign": names it in error bodies
	id   string      // set once, before the owner is published
	span *trace.Span // root span, marked and ended by the terminal transition

	mu        sync.Mutex
	changed   chan struct{} // closed and replaced on every change
	state     string
	completed int      // slots landed
	lines     [][]byte // NDJSON stream payloads, by slot index
	report    []byte
	errMsg    string
	errKind   string
}

// outcome is a lifecycle's payload: what a terminal transition moves it
// to, and what wait reports of its progress.
type outcome struct {
	state   string
	report  []byte
	errMsg  string
	errKind string
	// lines are stream payloads by slot index: finish lands them in the
	// empty slots; wait returns a copy of every slot.
	lines [][]byte
	// cached marks the span cached=true instead of with the state: the
	// outcome came from the result cache or the store, not an execution.
	cached bool
}

// begin readies a lifecycle in the running state with one stream slot
// per line it will carry.
func (l *lifecycle) begin(kind string, span *trace.Span, slots int) {
	l.kind, l.span = kind, span
	l.changed = make(chan struct{})
	l.state = StateRunning
	l.lines = make([][]byte, slots)
}

// wake wakes every waiter: stream handlers, flight and campaign
// watchers. It is the one place the change channel closes. Callers hold
// l.mu.
func (l *lifecycle) wake() {
	close(l.changed)
	l.changed = make(chan struct{})
}

// landLocked fills slot i with line unless the slot is already filled,
// and reports whether it did. Callers hold l.mu.
func (l *lifecycle) landLocked(i int, line []byte) bool {
	if line == nil || i < 0 || i >= len(l.lines) || l.lines[i] != nil {
		return false
	}
	l.lines[i] = line
	l.completed++
	return true
}

// land fills one slot — an executed experiment's result, a finished
// campaign member — in any state, and wakes waiters.
func (l *lifecycle) land(i int, line []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.landLocked(i, line)
	l.wake()
}

// fill lands every line of a result that streamed elsewhere — a flight
// leader's lines mirrored into a follower, a worker's report replayed —
// in the empty slots, while the lifecycle is still running.
func (l *lifecycle) fill(lines [][]byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.state != StateRunning {
		return
	}
	moved := false
	for i, line := range lines {
		moved = l.landLocked(i, line) || moved
	}
	if moved {
		l.wake()
	}
}

// finishLocked is the one way out of running: it lands o.lines, moves
// to o's state and payload, marks and ends the span, and wakes waiters.
// The first terminal state sticks — once the lifecycle has left
// running, finish changes nothing and reports false. Callers hold l.mu.
func (l *lifecycle) finishLocked(o outcome) bool {
	if l.state != StateRunning {
		return false
	}
	for i, line := range o.lines {
		l.landLocked(i, line)
	}
	l.state, l.report, l.errMsg, l.errKind = o.state, o.report, o.errMsg, o.errKind
	if o.cached {
		l.span.SetAttr("cached", true)
	} else {
		l.span.SetAttr("state", o.state)
	}
	l.span.End()
	l.wake()
	return true
}

// finish is finishLocked for callers that do not hold l.mu.
func (l *lifecycle) finish(o outcome) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.finishLocked(o)
}

// wait snapshots the lifecycle's progress — its state, its terminal
// payload once it has one, and a copy of every slot (landed lines never
// change) — with a channel that closes on the next change.
func (l *lifecycle) wait() (outcome, <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return outcome{state: l.state, report: l.report, errMsg: l.errMsg, errKind: l.errKind,
		lines: append([][]byte(nil), l.lines...)}, l.changed
}

// result returns the state and the report.
func (l *lifecycle) result() (state string, report []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state, l.report
}

// settled blocks until the lifecycle leaves running and returns its
// outcome.
func (l *lifecycle) settled() outcome {
	for {
		o, changed := l.wait()
		if o.state != StateRunning {
			return o
		}
		<-changed
	}
}

// life returns the lifecycle itself; promoted, it lets runs and
// campaigns satisfy tracked.
func (l *lifecycle) life() *lifecycle { return l }

// tracked is a run or a campaign as the shared endpoints see it.
type tracked interface {
	life() *lifecycle
	traceRecords() []trace.Record
}

// finder resolves a route's {id} to a run or a campaign, answering 404
// itself.
type finder func(w http.ResponseWriter, r *http.Request) (tracked, bool)

// handleStream serves GET /runs/{id}/stream and GET
// /campaigns/{id}/stream as NDJSON: the landed lines in slot order as
// the prefix fills — one StreamEvent per experiment, one
// CampaignStreamEvent per member — then one terminal line with
// "done":true and the final state. The terminal line is due exactly
// when the state has left running, because every line of the filled
// prefix has been written by then. The connection stays open until
// that line or the client disconnects.
func handleStream(find finder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, ok := find(w, r)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Cache-Control", "no-store")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		flush := func() {
			if flusher != nil {
				flusher.Flush()
			}
		}
		// Push the headers immediately: a fresh run's first experiment can
		// take minutes, and until the first flush the client would see
		// zero bytes on the wire — indistinguishable from a hung server.
		flush()

		next := 0
		for {
			o, changed := t.life().wait()
			from := next
			for ; next < len(o.lines) && o.lines[next] != nil; next++ {
				w.Write(o.lines[next])
				w.Write([]byte("\n"))
			}
			if next > from {
				flush()
			}
			if o.state != StateRunning {
				data, _ := json.Marshal(StreamEvent{Index: len(o.lines), Total: len(o.lines),
					Done: true, State: o.state, Error: o.errMsg})
				w.Write(data)
				w.Write([]byte("\n"))
				flush()
				return
			}
			select {
			case <-changed:
			case <-r.Context().Done():
				return
			}
		}
	}
}

// handleReport serves a finished run's report or campaign's aggregate
// verbatim: byte-identical to `cmd/experiments -json` (or `-campaign
// -json`) for the same specs. 409 Conflict while it is running, and
// after a cancellation or a failure that left no report.
func handleReport(find finder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, ok := find(w, r)
		if !ok {
			return
		}
		l := t.life()
		state, report := l.result()
		switch {
		case state == StateRunning:
			writeError(w, http.StatusConflict, "%s %s is still %s", l.kind, l.id, state)
		case state == StateCanceled || report == nil:
			writeError(w, http.StatusConflict, "%s %s was %s and has no report", l.kind, l.id, state)
		default:
			w.Header().Set("Content-Type", "application/json")
			w.Write(report)
		}
	}
}

// handleTrace serves a finished run's span tree, or a campaign's
// stitched tree (its own spans plus every member's subtree, including
// dispatch spans and grafted worker-side records on a federated
// coordinator): NDJSON by default, Chrome trace-event JSON with
// ?format=chrome. 409 Conflict while it is running, so the exported
// tree is complete and stable.
func handleTrace(find finder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, ok := find(w, r)
		if !ok {
			return
		}
		l := t.life()
		if state, _ := l.result(); state == StateRunning {
			writeError(w, http.StatusConflict, "%s %s is still %s", l.kind, l.id, state)
			return
		}
		writeTrace(w, r, t.traceRecords())
	}
}

// prune evicts the oldest finished campaigns and runs past the
// retention cap, so the report and stream payloads a long-running
// server holds stay bounded. Running ones are never evicted, nor are
// the members of a still-queryable campaign (see Manager.pinned);
// campaigns go first because evicting one releases its members' pins.
// Evicted ids answer 404; the result cache still serves their reports
// to new requests.
func (m *Manager) prune() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.retain <= 0 {
		return
	}
	m.campaignOrder = evict(m.campaignOrder, m.retain,
		func(id string) *lifecycle { return &m.campaigns[id].lifecycle },
		func(id string) {
			for _, r := range m.campaigns[id].runs {
				delete(m.pinned, r.id)
			}
			delete(m.campaigns, id)
		})
	m.order = evict(m.order, m.retain,
		func(id string) *lifecycle {
			if m.pinned[id] {
				return nil
			}
			return &m.runs[id].lifecycle
		},
		func(id string) { delete(m.runs, id) })
}

// evict is the eviction routine runs and campaigns share: it drops the
// oldest finished ids of order past retain and returns the kept order.
// life maps an id to its lifecycle (nil: exempt); drop removes an
// evicted id from its map. Callers hold Manager.mu.
func evict(order []string, retain int, life func(string) *lifecycle, drop func(string)) []string {
	var finished []string
	for _, id := range order {
		if l := life(id); l != nil {
			if state, _ := l.result(); state != StateRunning {
				finished = append(finished, id)
			}
		}
	}
	if len(finished) <= retain {
		return order
	}
	gone := make(map[string]bool, len(finished)-retain)
	for _, id := range finished[:len(finished)-retain] {
		gone[id] = true
		drop(id)
	}
	kept := order[:0]
	for _, id := range order {
		if !gone[id] {
			kept = append(kept, id)
		}
	}
	return kept
}
