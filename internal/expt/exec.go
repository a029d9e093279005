// This file is the run-execution pipeline every caller shares: the
// CLI campaign runner, dramscoped's manager, and the federation
// coordinator. A caller resolves a spec, checks its own caches, hands
// the spec and its fresh suite to an Executor, and persists a clean
// result. Executors differ only in where the suite runs — Local runs
// it on this process's worker-token Pool, a federated executor on a
// worker node — and both return the same classified Execution, so the
// callers never branch on where a report came from.

package expt

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"dramscope/internal/store"
	"dramscope/internal/trace"
)

// Executor runs one resolved spec to completion. Implementations must
// return a report byte-identical to a solo Suite.Run of the spec, so
// the choice of executor can change where and when a run executes but
// never a byte of its result.
type Executor interface {
	Execute(ctx context.Context, t Task) Execution
}

// Task is one execution request.
type Task struct {
	// Spec is the resolved spec to run.
	Spec *ResolvedSpec
	// Suite is the spec's fresh, unrun suite (from ResolveSpec). An
	// executor that runs the spec elsewhere leaves it unrun.
	Suite *Suite
	// Parent, when non-nil, is the span the execution hangs under:
	// "queue" and "execute" for a local run, one "dispatch:NNNNNN" per
	// attempt for a federated one.
	Parent *trace.Span
	// OnResult, when non-nil, is the suite's per-experiment callback
	// (Options.OnResult) for a local run.
	OnResult func(index, total int, res *ExptResult)
}

// Execution is one Task's classified outcome.
type Execution struct {
	// Report is the run's JSON report. Nil when the run produced none:
	// a planning error or a cancellation.
	Report []byte
	// Err is the run-level failure: a planning error, the context's
	// error on cancellation, or the per-experiment failures Report
	// embeds.
	Err error
	// Canceled reports that the context ended the run. A canceled run
	// carries no report, even if its suite returned one: experiments
	// the cancellation skipped would be recorded in it as failures.
	Canceled bool
	// Budget reports that Err is an activation-budget stop, so clients
	// can tell "raise the cap" from "fix the experiment".
	Budget bool
	// Remote reports that a federated worker produced Report.
	Remote bool
	// Workers is how many pool tokens the local run held; 0 when no
	// suite ran here (canceled while queued, or executed remotely).
	Workers int
	// QueueWait is how long the local run waited for its first token.
	QueueWait time.Duration
}

// Pool is a worker-token pool: the one concurrency bound shared by
// every local execution of a campaign or a server. A run blocks until
// it holds one token, then takes up to its spec's Jobs hint without
// blocking. The report is byte-identical for any token count (the
// suite contract), so admission timing can never change a result.
type Pool struct {
	tokens  chan struct{}
	waiting atomic.Int64
	holding atomic.Int64
}

// NewPool builds a pool of size tokens; size <= 0 means GOMAXPROCS.
func NewPool(size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	p := &Pool{tokens: make(chan struct{}, size)}
	for i := 0; i < size; i++ {
		p.tokens <- struct{}{}
	}
	return p
}

// Size is the pool's token count.
func (p *Pool) Size() int { return cap(p.tokens) }

// Waiting is how many executions are queued for a token right now.
func (p *Pool) Waiting() int64 { return p.waiting.Load() }

// Holding is how many executions hold tokens right now.
func (p *Pool) Holding() int64 { return p.holding.Load() }

// acquire blocks until the caller holds one token, then greedily takes
// up to want-1 more without blocking (want outside [1, Size] means the
// whole pool). Returns 0 if ctx ends while the caller is still queued.
func (p *Pool) acquire(ctx context.Context, want int) int {
	if want < 1 || want > cap(p.tokens) {
		want = cap(p.tokens)
	}
	p.waiting.Add(1)
	select {
	case <-p.tokens:
	case <-ctx.Done():
		p.waiting.Add(-1)
		return 0
	}
	p.waiting.Add(-1)
	p.holding.Add(1)
	got := 1
	for got < want {
		select {
		case <-p.tokens:
			got++
		default:
			return got
		}
	}
	return got
}

// release returns the n tokens one execution acquired.
func (p *Pool) release(n int) {
	p.holding.Add(-1)
	for i := 0; i < n; i++ {
		p.tokens <- struct{}{}
	}
}

// Local executes tasks in this process, on a shared Pool.
type Local struct {
	Pool *Pool
	// Store, when non-nil, warms the suites' probe chains
	// (Options.Store). Reports are persisted by the caller, never here.
	Store *store.Store
}

// Execute takes tokens under a "queue" span, runs the suite under an
// "execute" span, and classifies the outcome.
func (l *Local) Execute(ctx context.Context, t Task) Execution {
	start := time.Now()
	q := t.Parent.Child("queue", "queue").Begin()
	workers := l.Pool.acquire(ctx, t.Spec.Jobs)
	q.End()
	ex := Execution{Workers: workers, QueueWait: time.Since(start)}
	if workers == 0 {
		ex.Err, ex.Canceled = ctx.Err(), true
		return ex
	}
	defer l.Pool.release(workers)
	q.SetAttr("workers", workers)

	run := t.Parent.Child("execute", "execute").Begin()
	spec := t.Spec.RunSpec
	spec.Jobs = workers
	rep, err := t.Suite.Run(Options{Spec: spec, Context: ctx, OnResult: t.OnResult, Store: l.Store, Trace: run})
	run.End()
	switch {
	case err != nil:
		ex.Err = err
	case ctx.Err() != nil:
		ex.Err, ex.Canceled = ctx.Err(), true
	default:
		if ex.Report, ex.Err = rep.JSON(); ex.Err == nil {
			ex.Err = rep.Err()
			ex.Budget = rep.BudgetExceeded() != nil
		}
	}
	return ex
}

// SplitReport is the check every report from outside this process must
// pass before it is trusted as a run of the selection: a store entry,
// or a federated worker's response. It splits the report into its
// experiment objects, verbatim and in report order, and rejects it
// unless their names equal names — same count, same names, same order.
func SplitReport(report []byte, names []string) ([]json.RawMessage, error) {
	var doc struct {
		Experiments []json.RawMessage `json:"experiments"`
	}
	if err := json.Unmarshal(report, &doc); err != nil {
		return nil, fmt.Errorf("expt: report: %w", err)
	}
	if len(doc.Experiments) != len(names) {
		return nil, fmt.Errorf("expt: report has %d experiments, selection has %d",
			len(doc.Experiments), len(names))
	}
	for i, raw := range doc.Experiments {
		var id struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(raw, &id); err != nil || id.Name != names[i] {
			return nil, fmt.Errorf("expt: report entry %d is %q, want %q", i, id.Name, names[i])
		}
	}
	return doc.Experiments, nil
}

// MemberSpans creates one "member:NNNNNN" child of a campaign root per
// spec, in spec order, so the tree shape never depends on scheduling.
// If the root's recorder has no trace ID yet, the campaign is named
// after its member digests, so equal campaigns trace under equal IDs
// wherever they run. The spans are not begun. A nil root yields nil
// spans, which record nothing.
func MemberSpans(root *trace.Span, specs []*ResolvedSpec) []*trace.Span {
	spans := make([]*trace.Span, len(specs))
	if root == nil {
		return spans
	}
	if rec := root.Recorder(); rec.TraceID() == "" {
		parts := make([]string, len(specs))
		for i, rs := range specs {
			parts[i] = rs.Digest()
		}
		rec.SetTraceID(trace.DeriveID(parts...))
	}
	for i, rs := range specs {
		spans[i] = root.Child(fmt.Sprintf("member:%06d", i), fmt.Sprintf("member %s seed %d", rs.Profile, rs.Seed)).
			SetAttr("index", i).SetAttr("digest", rs.Digest()).
			SetAttr("profile", rs.Profile).SetAttr("seed", rs.Seed)
	}
	return spans
}
