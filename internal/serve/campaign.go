package serve

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

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

// campaign is one admitted campaign. Its lifecycle carries the id, the
// state, one stream slot per member (by campaign index), the aggregate
// report, and the "campaign" root span.
type campaign struct {
	lifecycle

	runs      []*run // member runs, campaign order
	client    string // quota identity of the admitting client
	quotaCost int64  // campaign-level quota charge, released when it finishes

	// rec is the campaign's own span tree: one "campaign" root with a
	// "member:NNNNNN" child per spec. The trace ID is derived from the
	// member digests, and each member run's recorder is linked under
	// its member span — so GET /campaigns/{id}/trace stitches the
	// campaign records and every member's records into one tree, local
	// and federated members alike.
	rec         *trace.Recorder
	memberSpans []*trace.Span
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
// never deadlock half-admitted against the queue cap. A campaign the
// queue cannot hold is refused by its member count, before any member
// is resolved: each resolution builds a suite, and the body cap lets a
// request name millions of members.
func (m *Manager) StartCampaign(req CampaignRequest, client string) (*campaign, error) {
	reqs, err := req.expand(func(members int) error {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.slotErrLocked(members)
	})
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
	if err := m.reserveSlots(len(specs)); err != nil {
		if m.quota != nil {
			m.quota.release(client, quotaCost)
		}
		return nil, err
	}

	m.mu.Lock()
	m.nextCampaign++
	id := fmt.Sprintf("c%06d", m.nextCampaign)
	m.mu.Unlock()

	c := &campaign{client: client, quotaCost: quotaCost}
	c.id = id
	// The campaign trace is named by its member digests — the same
	// MemberSpans the CLI campaign runner uses, so an identical campaign
	// has identical span IDs wherever it runs.
	c.rec = trace.New("")
	root := c.rec.Root("campaign", fmt.Sprintf("campaign of %d members", len(specs))).Begin()
	root.SetAttr("members", len(specs))
	c.begin("campaign", root, len(specs))
	c.memberSpans = expt.MemberSpans(root, specs)

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
	m.prune()

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
		o := r.settled()
		c.memberSpans[i].SetAttr("state", o.state)
		c.memberSpans[i].End()
		results[i] = expt.CampaignRunResult{Index: i, Spec: specs[i], Report: o.report}
		switch o.state {
		case StateCanceled:
			canceled = true
			results[i].Err = fmt.Errorf("%s", o.errMsg)
		case StateFailed:
			failures = append(failures, fmt.Sprintf("run %s: %s", r.id, o.errMsg))
			if o.report == nil {
				results[i].Err = fmt.Errorf("%s", o.errMsg)
			}
		}

		info := c.runInfo(i)
		line, err := json.Marshal(CampaignStreamEvent{Index: i, Total: len(c.runs), Run: &info})
		if err != nil {
			line, _ = json.Marshal(CampaignStreamEvent{Index: i, Total: len(c.runs),
				Error: fmt.Sprintf("marshal run info: %v", err)})
		}
		c.land(i, line)
	}

	o := outcome{state: StateDone}
	if len(failures) > 0 {
		o.state = StateFailed
		o.errMsg = strings.Join(failures, "; ")
	}
	if canceled {
		o.state = StateCanceled
		o.errMsg = "canceled"
	} else {
		agg, err := expt.AggregateCampaign(results)
		if err != nil {
			o.state, o.errMsg = StateFailed, err.Error()
		} else if o.report, err = agg.JSON(); err != nil {
			o.state, o.report, o.errMsg = StateFailed, nil, err.Error()
		}
	}
	c.finish(o)
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
	c.finish(outcome{state: StateCanceled, errMsg: reason})
	for _, r := range c.runs {
		m.cancelRun(r.id, reason)
	}
	return c, true
}
