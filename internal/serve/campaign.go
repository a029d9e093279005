package serve

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"dramscope/internal/expt"
	"dramscope/internal/trace"
)

// This file is the campaign half of the Manager: a campaign admits
// every member spec as an ordinary run (so members share the worker
// budget, the LRU, and the persistent store exactly like solo runs —
// a warm campaign is all cache hits and skips straight to
// aggregation), then watches them finish in campaign order, streams
// per-run completions, and assembles the deterministic aggregate
// report via expt.AggregateCampaign — the same pure function the CLI
// uses, so served aggregate bytes match `experiments -campaign -json`.

// campaign is one admitted campaign's lifecycle state.
type campaign struct {
	id        string
	runs      []*run // member runs, campaign order
	client    string // quota identity of the admitting client
	quotaCost int64  // campaign-level quota charge, released when it finishes

	// rec and root are the campaign's own span tree: one "campaign"
	// root with a "member:NNNNNN" child per spec. The trace ID is
	// derived from the member digests, and each member run's recorder
	// is linked under its member span — so GET /campaigns/{id}/trace
	// stitches the campaign records and every member's records into one
	// tree, local and federated members alike.
	rec         *trace.Recorder
	root        *trace.Span
	memberSpans []*trace.Span

	mu        sync.Mutex
	changed   chan struct{} // closed and replaced on every state change
	state     string
	completed int
	lines     [][]byte // per-member NDJSON payloads, by campaign index
	report    []byte   // aggregate report bytes
	errMsg    string
}

// bump wakes every waiter. Callers hold c.mu.
func (c *campaign) bump() {
	close(c.changed)
	c.changed = make(chan struct{})
}

// runInfo snapshots one member run as wire metadata. i is the member's
// campaign index.
func (c *campaign) runInfo(i int) CampaignRunInfo {
	r := c.runs[i]
	st := r.status(false)
	return CampaignRunInfo{
		Index:   i,
		RunID:   r.id,
		Profile: st.Profile,
		Seed:    st.Seed,
		Digest:  st.Digest,
		State:   st.State,
		Cached:  st.Cached,
		Error:   st.Error,
	}
}

// status snapshots the campaign as a CampaignStatus. withReport embeds
// the aggregate bytes; listings omit them.
func (c *campaign) status(withReport bool) CampaignStatus {
	c.mu.Lock()
	state, completed, report, errMsg := c.state, c.completed, c.report, c.errMsg
	c.mu.Unlock()
	st := CampaignStatus{
		ID:        c.id,
		State:     state,
		Total:     len(c.runs),
		Completed: completed,
		Error:     errMsg,
	}
	for i := range c.runs {
		st.Runs = append(st.Runs, c.runInfo(i))
	}
	if withReport && report != nil && state != StateCanceled {
		st.Report = json.RawMessage(report)
	}
	return st
}

// StartCampaign expands and admits a campaign: every member spec is
// resolved up front (one bad spec rejects the whole campaign before
// any work starts), admitted as an ordinary run on the shared worker
// pool, and watched to completion in campaign order. Admission control
// is all-or-nothing: the campaign reserves an execution slot per
// member and charges the client quota for the whole population up
// front, so a campaign either fits entirely (429 otherwise) and can
// never deadlock half-admitted against the queue cap.
func (m *Manager) StartCampaign(req CampaignRequest, client string) (*campaign, error) {
	reqs, err := req.expand()
	if err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("serve: empty campaign")
	}
	specs := make([]*expt.ResolvedSpec, len(reqs))
	suites := make([]*expt.Suite, len(reqs))
	for i, rr := range reqs {
		rs, suite, err := resolveRequest(rr, m.factory)
		if err != nil {
			return nil, fmt.Errorf("campaign spec %d: %w", i, err)
		}
		specs[i], suites[i] = rs, suite
	}

	var quotaCost int64
	if m.quota != nil {
		for _, rs := range specs {
			quotaCost += m.quota.cost(rs.MaxActivations)
		}
		if quotaCost > m.quota.limit {
			// A population larger than one client's whole quota still
			// admits — at full-quota cost, serializing that client's
			// campaigns — mirroring how an unbudgeted solo run charges
			// the full quota rather than being unservable.
			quotaCost = m.quota.limit
		}
		if !m.quota.charge(client, quotaCost) {
			m.metrics.rejectedQuota.Add(1)
			return nil, ErrQuotaExceeded
		}
	}
	if !m.reserveSlots(len(specs)) {
		if m.quota != nil {
			m.quota.release(client, quotaCost)
		}
		m.mu.Lock()
		draining := m.draining
		m.mu.Unlock()
		if draining {
			return nil, ErrDraining
		}
		m.metrics.rejectedQueue.Add(1)
		return nil, ErrQueueFull
	}

	m.mu.Lock()
	m.nextCampaign++
	id := fmt.Sprintf("c%06d", m.nextCampaign)
	m.mu.Unlock()

	c := &campaign{
		id:        id,
		client:    client,
		quotaCost: quotaCost,
		changed:   make(chan struct{}),
		state:     StateRunning,
		lines:     make([][]byte, len(specs)),
	}
	// The campaign trace is named by its member digests — the same
	// MemberSpans the CLI campaign runner uses, so an identical campaign
	// has identical span IDs wherever it runs.
	c.rec = trace.New("")
	c.root = c.rec.Root("campaign", fmt.Sprintf("campaign of %d members", len(specs))).Begin()
	c.root.SetAttr("members", len(specs))
	c.memberSpans = expt.MemberSpans(c.root, specs)

	for i := range specs {
		ms := c.memberSpans[i].Begin()
		// Members are admitted pinned: a warm campaign's members are
		// terminal immediately, and retention must not evict them
		// before the stream surfaces their run ids.
		opts := admitOpts{pinned: true, reserved: true, exemptQuota: true, client: client,
			link: &trace.Link{Trace: c.rec.TraceID(), Parent: ms.ID(), Path: ms.Path()}}
		r, err := m.admitRun(specs[i], suites[i], opts)
		if err != nil {
			// Only ErrDraining can reach here (slots and quota are
			// pre-reserved): unwind what was admitted and bail.
			for _, adm := range c.runs {
				m.cancelRun(adm.id, "server shutting down")
			}
			m.releaseSlots(len(specs) - i)
			if m.quota != nil {
				m.quota.release(client, quotaCost)
			}
			return nil, err
		}
		c.runs = append(c.runs, r)
	}

	m.mu.Lock()
	m.campaigns[id] = c
	m.campaignOrder = append(m.campaignOrder, id)
	m.mu.Unlock()
	m.pruneCampaigns()

	m.execWG.Add(1)
	go m.watchCampaign(c, specs)
	return c, nil
}

// watchCampaign waits for the members in campaign order, emitting one
// stream line per completed run, then aggregates and finishes. The
// campaign's quota charge is released when it reaches a terminal
// state — not per member, so a client cannot slip a second campaign in
// while the first one's tail is still aggregating.
func (m *Manager) watchCampaign(c *campaign, specs []*expt.ResolvedSpec) {
	defer m.execWG.Done()
	defer func() {
		if m.quota != nil && c.quotaCost > 0 {
			m.quota.release(c.client, c.quotaCost)
		}
	}()
	results := make([]expt.CampaignRunResult, len(c.runs))
	var failures []string
	canceled := false
	for i, r := range c.runs {
		state, report, errMsg := waitTerminal(r)
		c.memberSpans[i].SetAttr("state", state)
		c.memberSpans[i].End()
		results[i] = expt.CampaignRunResult{Index: i, Spec: specs[i], Report: report}
		switch state {
		case StateCanceled:
			canceled = true
			results[i].Err = fmt.Errorf("%s", errMsg)
		case StateFailed:
			failures = append(failures, fmt.Sprintf("run %s: %s", r.id, errMsg))
			if report == nil {
				results[i].Err = fmt.Errorf("%s", errMsg)
			}
		}

		info := c.runInfo(i)
		line, err := json.Marshal(CampaignStreamEvent{Index: i, Total: len(c.runs), Run: &info})
		if err != nil {
			line, _ = json.Marshal(CampaignStreamEvent{Index: i, Total: len(c.runs),
				Error: fmt.Sprintf("marshal run info: %v", err)})
		}
		c.mu.Lock()
		c.lines[i] = line
		c.completed++
		c.bump()
		c.mu.Unlock()
	}

	state := StateDone
	errMsg := ""
	if len(failures) > 0 {
		state = StateFailed
		errMsg = strings.Join(failures, "; ")
	}
	if canceled {
		state = StateCanceled
		errMsg = "canceled"
	}
	var report []byte
	if !canceled {
		agg, err := expt.AggregateCampaign(results)
		if err != nil {
			state, errMsg = StateFailed, err.Error()
		} else if report, err = agg.JSON(); err != nil {
			state, report, errMsg = StateFailed, nil, err.Error()
		}
	}
	c.root.SetAttr("state", state)
	c.root.End()
	c.mu.Lock()
	if c.state == StateRunning {
		c.state = state
		c.report = report
		c.errMsg = errMsg
	}
	c.bump()
	c.mu.Unlock()
}

// traceRecords assembles the stitched campaign tree: the campaign's
// own records plus every member run's records (which, being linked
// under the member spans, already carry coherent IDs and paths),
// sorted by path.
func (c *campaign) traceRecords() []trace.Record {
	recs := c.rec.Records()
	for _, r := range c.runs {
		recs = append(recs, r.rec.Records()...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Path < recs[j].Path })
	return recs
}

// waitTerminal blocks until a run leaves StateRunning and returns its
// terminal snapshot.
func waitTerminal(r *run) (state string, report []byte, errMsg string) {
	for {
		r.mu.Lock()
		state, report, errMsg = r.state, r.report, r.errMsg
		changed := r.changed
		r.mu.Unlock()
		if state != StateRunning {
			return state, report, errMsg
		}
		<-changed
	}
}

// wait returns the campaign stream position from index `from`:
// available lines, the terminal event once every line before it is
// out, and a channel that closes on the next state change — the same
// discipline as run.wait.
func (c *campaign) wait(from int) (lines [][]byte, terminal *CampaignStreamEvent, changed <-chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := from; i < len(c.lines) && c.lines[i] != nil; i++ {
		lines = append(lines, c.lines[i])
	}
	if c.state != StateRunning {
		ready := 0
		for ; ready < len(c.lines) && c.lines[ready] != nil; ready++ {
		}
		if from+len(lines) == ready {
			terminal = &CampaignStreamEvent{
				Index: len(c.runs),
				Total: len(c.runs),
				Done:  true,
				State: c.state,
				Error: c.errMsg,
			}
		}
	}
	return lines, terminal, c.changed
}

// GetCampaign returns a campaign by id.
func (m *Manager) GetCampaign(id string) (*campaign, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.campaigns[id]
	return c, ok
}

// Campaigns returns every admitted campaign in admission order.
func (m *Manager) Campaigns() []*campaign {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*campaign, 0, len(m.campaignOrder))
	for _, id := range m.campaignOrder {
		out = append(out, m.campaigns[id])
	}
	return out
}

// CancelCampaign cancels a campaign: the campaign is marked canceled
// and every still-running member run is canceled through the usual
// run-cancellation path. Finished members keep their terminal state
// (and their cached reports).
func (m *Manager) CancelCampaign(id string) (*campaign, bool) {
	return m.cancelCampaign(id, "canceled by client")
}

func (m *Manager) cancelCampaign(id, reason string) (*campaign, bool) {
	c, ok := m.GetCampaign(id)
	if !ok {
		return nil, false
	}
	c.mu.Lock()
	if c.state == StateRunning {
		c.state = StateCanceled
		c.errMsg = reason
		c.bump()
	}
	c.mu.Unlock()
	for _, r := range c.runs {
		m.cancelRun(r.id, reason)
	}
	return c, true
}

// pruneCampaigns evicts the oldest finished campaigns past the
// retention cap, mirroring run pruning. Evicting a campaign releases
// its members' retention pins (see Manager.pinned) — until then a
// queryable campaign's member reports stay fetchable.
func (m *Manager) pruneCampaigns() {
	m.mu.Lock()
	if m.retain <= 0 {
		m.mu.Unlock()
		return
	}
	var terminal []string
	for _, id := range m.campaignOrder {
		c := m.campaigns[id]
		c.mu.Lock()
		done := c.state != StateRunning
		c.mu.Unlock()
		if done {
			terminal = append(terminal, id)
		}
	}
	if len(terminal) <= m.retain {
		m.mu.Unlock()
		return
	}
	evict := make(map[string]bool, len(terminal)-m.retain)
	for _, id := range terminal[:len(terminal)-m.retain] {
		evict[id] = true
		for _, r := range m.campaigns[id].runs {
			delete(m.pinned, r.id)
		}
		delete(m.campaigns, id)
	}
	kept := m.campaignOrder[:0]
	for _, id := range m.campaignOrder {
		if !evict[id] {
			kept = append(kept, id)
		}
	}
	m.campaignOrder = kept
	m.mu.Unlock()
	// Released pins may have made old member runs evictable.
	m.prune()
}
