package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dramscope/internal/expt"
	"dramscope/internal/serve/dispatch"
	"dramscope/internal/trace"
)

// This file is the coordinator half of federated campaigns: when the
// server is configured with worker node URLs (-workers), every fresh
// execution — campaign member, solo run, or promoted follower alike —
// goes through the Federator, the expt.Executor that places it on a
// worker over the HTTP API (internal/serve/dispatch), tracks per-node
// health and free capacity, retries faulted members on other nodes,
// steals members that outlive the member timeout, and falls back to
// its local executor when no worker can take the member.
// cmd/experiments -workers runs CLI campaigns through the same
// executor.
//
// The byte-identity contract — a federated campaign aggregate and
// every per-member report are identical to the single-process run for
// any node count, placement, failure pattern, and retry schedule — is
// enforced by construction, not by hope:
//
//   - a member is dispatched as its spec, and the worker's resolved
//     canonical digest must equal the coordinator's before any report
//     byte is trusted (a worker with a diverging catalog or suite is a
//     fault, not a different answer);
//   - the report bytes come back verbatim and are validated against
//     the member's resolved selection (expt.SplitReport) before the
//     run completes with them;
//   - the aggregate is only ever assembled by expt.AggregateCampaign
//     in spec order, the same pure function the solo path uses;
//   - re-dispatch after a fault re-runs a deterministic spec, and the
//     shared persistent store plus spec-digest coalescing make the
//     retry a cache hit whenever the faulted worker managed to finish.

// FederationOptions configures a Federator.
type FederationOptions struct {
	// Workers are the worker nodes' base URLs.
	Workers []string
	// MemberTimeout bounds one dispatched member's remote execution;
	// on expiry the member is canceled on its worker and re-dispatched
	// elsewhere ("stolen"). 0 disables the timeout.
	MemberTimeout time.Duration
}

// fedWorker is one worker node's dispatcher-side state.
type fedWorker struct {
	url    string
	client *dispatch.Client

	// The placement state below is guarded by Federator.mu.
	inflight  int       // members currently dispatched to this node
	capacity  int       // admission capacity from /metrics; 0 = unprobed
	downUntil time.Time // faulted: out of placement until this instant
}

// Federator shards executions across worker nodes. It implements
// expt.Executor.
type Federator struct {
	opts FederationOptions

	// poll is the remote-run polling interval; cooldown is how long a
	// faulted worker sits out of placement before being offered
	// members again.
	poll, cooldown time.Duration

	// local runs the members no worker can take.
	local *expt.Local

	// leaveOnCancel decides what a canceled dispatch does with its
	// remote run: false cancels it on the worker too (a client DELETE
	// should stop the fleet-side work), true abandons it (coordinator
	// shutdown: the worker finishes on its own and persists the report
	// into the shared store for the restarted coordinator to re-attach
	// to). Wired to Manager draining by New.
	leaveOnCancel func() bool

	// pick chooses among eligible workers — by default the one with
	// the most free capacity (ties to the earliest configured). Tests
	// override it for forced and seeded-random placements. Called with
	// mu held and a non-empty eligible slice.
	pick func(eligible []*fedWorker) *fedWorker

	dispatched    atomic.Int64 // placement attempts (every member-to-worker offer)
	remoteDone    atomic.Int64 // members finished clean on a worker
	remoteFailed  atomic.Int64 // members finished failed (deterministically) on a worker
	retried       atomic.Int64 // re-dispatches after a worker fault
	stolen        atomic.Int64 // re-dispatches after a member timeout
	fallbackLocal atomic.Int64 // members no worker could take, run locally

	mu      sync.Mutex
	workers []*fedWorker
}

// NewFederator builds a dispatcher over the given worker base URLs,
// with local as the fallback for members no worker can take.
func NewFederator(opts FederationOptions, local *expt.Local) *Federator {
	f := &Federator{
		opts:          opts,
		poll:          100 * time.Millisecond,
		cooldown:      5 * time.Second,
		local:         local,
		leaveOnCancel: func() bool { return false },
		pick:          pickMostFree,
	}
	for _, raw := range opts.Workers {
		url := strings.TrimRight(strings.TrimSpace(raw), "/")
		if url == "" {
			continue
		}
		f.workers = append(f.workers, &fedWorker{
			url:    url,
			client: &dispatch.Client{Base: url},
		})
	}
	return f
}

// pickMostFree is the default placement: the worker with the most free
// admission capacity, ties resolved to the earliest configured node.
func pickMostFree(eligible []*fedWorker) *fedWorker {
	best := eligible[0]
	bestFree := best.capacity - best.inflight
	for _, w := range eligible[1:] {
		if free := w.capacity - w.inflight; free > bestFree {
			best, bestFree = w, free
		}
	}
	return best
}

// fedVerdict classifies one placement attempt.
type fedVerdict int

const (
	fedOK       fedVerdict = iota // terminal and validated — use the result
	fedBusy                       // worker at capacity (429): try another node
	fedFault                      // transport/server error, protocol or digest mismatch, worker-side kill
	fedTimeout                    // member timeout expired: steal the member
	fedCanceled                   // the coordinator's own context was canceled
)

// String names a verdict for dispatch-span attributes.
func (v fedVerdict) String() string {
	switch v {
	case fedOK:
		return "ok"
	case fedBusy:
		return "busy"
	case fedFault:
		return "fault"
	case fedTimeout:
		return "timeout"
	default:
		return "canceled"
	}
}

// Execute places the task's spec on the fleet, retrying faulted and
// timed-out attempts on other nodes, until a worker returns a
// validated terminal result. When every node is down, busy, or already
// faulted on this member, the task runs on the local executor instead.
// A member that *failed deterministically* on a worker (a report with
// embedded experiment errors) is a result, not a fault: by the
// determinism contract it fails identically everywhere, so it is never
// retried.
func (f *Federator) Execute(ctx context.Context, t expt.Task) expt.Execution {
	// The task's parent span (the run root, or a campaign member span)
	// is the parent of every dispatch attempt. Each attempt gets its own
	// "dispatch:NNNNNN" child carrying the worker, the verdict, and —
	// on retries — a retry mark; the winning attempt grafts the
	// worker's exported subtree underneath itself, stitching one tree.
	canceled := func() expt.Execution { return expt.Execution{Err: ctx.Err(), Canceled: true} }
	tried := make(map[string]bool)
	attempt := 0
	for {
		if ctx.Err() != nil {
			return canceled()
		}
		w := f.pickWorker(ctx, tried)
		if w == nil {
			f.fallbackLocal.Add(1)
			return f.local.Execute(ctx, t)
		}
		f.dispatched.Add(1)
		d := t.Parent.Child(fmt.Sprintf("dispatch:%06d", attempt), "dispatch "+w.url).Begin()
		d.SetAttr("worker", w.url)
		if attempt > 0 {
			d.SetAttr("retry", attempt)
		}
		attempt++
		ex, verdict := f.runOn(ctx, w, t.Spec, d)
		d.SetAttr("verdict", verdict.String())
		d.End()
		f.done(w)
		switch verdict {
		case fedOK:
			if ex.Err == nil {
				f.remoteDone.Add(1)
			} else {
				f.remoteFailed.Add(1)
			}
			return *ex
		case fedBusy:
			tried[w.url] = true
		case fedFault:
			tried[w.url] = true
			f.markDown(w)
			f.retried.Add(1)
		case fedTimeout:
			tried[w.url] = true
			f.stolen.Add(1)
		default: // fedCanceled
			return canceled()
		}
	}
}

// pickWorker claims the next eligible worker (not tried for this
// member, not cooling down after a fault), probing a node's admission
// capacity on first contact. nil means no node is placeable.
func (f *Federator) pickWorker(ctx context.Context, tried map[string]bool) *fedWorker {
	for {
		f.mu.Lock()
		now := time.Now()
		var eligible []*fedWorker
		for _, w := range f.workers {
			if tried[w.url] || now.Before(w.downUntil) {
				continue
			}
			eligible = append(eligible, w)
		}
		if len(eligible) == 0 {
			f.mu.Unlock()
			return nil
		}
		w := f.pick(eligible)
		w.inflight++
		probe := w.capacity == 0
		f.mu.Unlock()
		if !probe {
			return w
		}
		// First contact: learn the node's admission capacity from its
		// /metrics. An unreachable node faults here, before any member
		// state exists.
		capacity, err := w.client.Capacity(ctx)
		if err != nil {
			f.done(w)
			f.markDown(w)
			tried[w.url] = true
			continue
		}
		if capacity < 1 {
			capacity = 1
		}
		f.mu.Lock()
		w.capacity = capacity
		f.mu.Unlock()
		return w
	}
}

// done returns a worker's placement slot.
func (f *Federator) done(w *fedWorker) {
	f.mu.Lock()
	w.inflight--
	f.mu.Unlock()
}

// markDown benches a faulted worker for the cooldown window.
func (f *Federator) markDown(w *fedWorker) {
	f.mu.Lock()
	w.downUntil = time.Now().Add(f.cooldown)
	f.mu.Unlock()
}

// runOn runs one placement attempt on one worker end to end: start
// (carrying the trace link so the worker roots its subtree under the
// dispatch span d), verify the digest, poll to a terminal state, fetch
// and validate the report, then graft the worker's trace.
func (f *Federator) runOn(ctx context.Context, w *fedWorker, rs *expt.ResolvedSpec, d *trace.Span) (*expt.Execution, fedVerdict) {
	seed := rs.Seed
	req := dispatch.Request{
		Profile:        rs.Profile,
		Seed:           &seed,
		Only:           rs.Only,
		Jobs:           rs.Jobs,
		Shards:         rs.Shards,
		MaxActivations: rs.MaxActivations,
	}
	if d != nil && d.Recorder().TraceID() != "" {
		req.Trace = trace.FormatHeader(trace.Link{
			Trace:  d.Recorder().TraceID(),
			Parent: d.ID(),
			Path:   d.Path(),
		})
	}
	st, err := w.client.Start(ctx, req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, fedCanceled
		}
		var he *dispatch.HTTPError
		if errors.As(err, &he) && he.Code == http.StatusTooManyRequests {
			return nil, fedBusy
		}
		return nil, fedFault
	}
	id := st.ID
	// The identity check the whole contract hangs on: the worker
	// resolved the member to the same canonical digest, so its report
	// is keyed — in its LRU, in the shared store — exactly like a
	// local execution's would be. A mismatch means the worker is
	// running different code or a different catalog; its bytes are
	// not this member's bytes.
	if st.Digest != rs.Digest() {
		f.cancelRemote(w, id)
		return nil, fedFault
	}
	if st.State == dispatch.StateRunning {
		wctx := ctx
		if f.opts.MemberTimeout > 0 {
			var cancel context.CancelFunc
			wctx, cancel = context.WithTimeout(ctx, f.opts.MemberTimeout)
			defer cancel()
		}
		st, err = w.client.Wait(wctx, id, f.poll)
		if err != nil {
			switch {
			case ctx.Err() != nil:
				// The coordinator itself is canceling. On a client
				// DELETE the remote run is canceled too; on shutdown
				// drain it is abandoned so the worker finishes into
				// the shared store.
				if !f.leaveOnCancel() {
					f.cancelRemote(w, id)
				}
				return nil, fedCanceled
			case wctx.Err() != nil:
				// Only the member timeout expired: steal the member.
				f.cancelRemote(w, id)
				return nil, fedTimeout
			default:
				return nil, fedFault
			}
		}
	}
	switch st.State {
	case dispatch.StateDone, dispatch.StateFailed:
	default:
		// Canceled on the worker side — an operator DELETE, a worker
		// restart, a crash. That is a fault to retry, never a result.
		return nil, fedFault
	}
	report, err := w.client.Report(ctx, id)
	if err != nil {
		// Includes the failed-without-report case (409): nothing to
		// accept, so re-dispatch.
		if ctx.Err() != nil {
			return nil, fedCanceled
		}
		return nil, fedFault
	}
	if _, err := expt.SplitReport(report, rs.Names); err != nil {
		// The bytes do not parse as this member's selection; refuse
		// them outright.
		return nil, fedFault
	}
	// Stitch: fetch the worker's span subtree and graft it under the
	// dispatch span. Best effort — a worker without the trace endpoint
	// (or a transient fetch error) costs observability, never a result.
	if d != nil {
		if data, terr := w.client.Trace(ctx, id); terr == nil {
			if recs, perr := trace.ParseNDJSON(bytes.NewReader(data)); perr == nil {
				d.Recorder().Graft(recs)
			}
		}
	}
	ex := &expt.Execution{Report: report, Remote: true, Budget: st.ErrorKind == ErrorKindBudget}
	if st.State != dispatch.StateDone {
		ex.Err = errors.New(st.Error)
	}
	return ex, fedOK
}

// cancelRemote best-effort cancels a run on a worker, detached from
// the (possibly already canceled) member context.
func (f *Federator) cancelRemote(w *fedWorker, id string) {
	if id == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = w.client.Cancel(ctx, id)
}

// Snapshot freezes the dispatcher's counters for GET /metrics.
func (f *Federator) Snapshot() MetricsFederation {
	out := MetricsFederation{
		Dispatched:    f.dispatched.Load(),
		RemoteDone:    f.remoteDone.Load(),
		RemoteFailed:  f.remoteFailed.Load(),
		Retried:       f.retried.Load(),
		Stolen:        f.stolen.Load(),
		FallbackLocal: f.fallbackLocal.Load(),
	}
	f.mu.Lock()
	now := time.Now()
	out.Workers = len(f.workers)
	for _, w := range f.workers {
		if !now.Before(w.downUntil) {
			out.Healthy++
		}
	}
	f.mu.Unlock()
	return out
}

// isDraining reports whether the manager is shutting down — the signal
// the federator uses to abandon (rather than cancel) remote runs, so
// workers finish them into the shared store for the next coordinator.
func (m *Manager) isDraining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}
