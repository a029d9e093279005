package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"dramscope/internal/expt"
	"dramscope/internal/host"
	"dramscope/internal/store"
	"dramscope/internal/trace"
)

// Manager owns every run the server has accepted: it validates and
// admits requests (canonicalized into expt.RunSpec), hands every fresh
// execution to one expt.Executor — a Local over a worker pool shared
// across all concurrent runs and campaigns, or the Federator on a
// coordinator — supports cancellation, and serves repeated requests
// from an LRU result cache keyed by the spec digest.
//
// Admission is built for heavy traffic: the cache check, single-flight
// registration, queue-capacity check, and quota charge happen under
// one lock, so every request takes exactly one of four paths —
// cache hit (free), coalesced follower of an in-flight identical run
// (free), a bounded execution slot (queue + worker pool), or a typed
// rejection (ErrQueueFull / ErrQuotaExceeded → 429).
type Manager struct {
	factory SuiteFactory
	// pool is the shared worker-token pool local executions run on; its
	// size also bounds the admission queue.
	pool *expt.Pool
	// exec runs every fresh execution — flight leader, promoted
	// follower, campaign member alike: a Local over pool, or on a
	// coordinator the Federator with that Local as its fallback.
	exec  expt.Executor
	cache *resultCache

	// artifacts, when non-nil, is the persistent store backing the
	// in-memory LRU: finished reports are written through to it, LRU
	// misses consult it before executing a suite, and every run's
	// probe chains are warmed through it. Unlike the LRU it survives
	// restarts and is shared across server processes.
	artifacts *store.Store

	// retain caps how many finished runs stay queryable; without it a
	// long-running server would keep every run's report and stream
	// payloads forever and grow without bound. Running runs are never
	// evicted.
	retain int

	// maxQueue caps how many admitted executions may wait for worker
	// tokens; admissions past maxQueue+workers are rejected with
	// ErrQueueFull instead of growing an unbounded goroutine backlog.
	maxQueue int

	// quota, when non-nil, enforces the per-client in-flight
	// activation-budget cap (see clientQuota).
	quota *clientQuota

	// fed, when non-nil, is exec on a federation coordinator: admitted
	// executions are dispatched to worker nodes instead of the local
	// pool, with a local execution as the fallback of last resort (see
	// federate.go). Kept for its /metrics counters.
	fed *Federator

	metrics *metrics

	// slowThreshold, when > 0, emits one structured NDJSON line to
	// slowLog for every executed run whose admission-to-terminal wall
	// time crosses it: digest, client, queue wait, execution wall, and
	// probe cost — enough to tell "the box is saturated" from "this
	// spec is expensive" without a debugger on the server.
	slowThreshold time.Duration
	slowLog       io.Writer

	// traceW, when non-nil, receives every executed run's span tree as
	// NDJSON when the run reaches a terminal state (-trace FILE on
	// dramscoped).
	traceW io.Writer

	// obsMu serializes writes to slowLog and traceW — both are shared,
	// line-oriented sinks written from execution goroutines.
	obsMu sync.Mutex

	// execWG tracks every background goroutine the manager owns —
	// executions, flight watchers, campaign watchers — so Shutdown can
	// drain them instead of abandoning in-flight suites at process
	// exit.
	execWG sync.WaitGroup

	mu       sync.Mutex
	draining bool // set by Shutdown: all new admissions are refused
	// outstanding counts admitted executions (queued or running) —
	// the quantity the bounded queue caps. Cache hits and coalesced
	// followers never count.
	outstanding int
	runs        map[string]*run
	order       []string // run ids in admission order, for GET /runs
	next        int

	// flights maps a spec digest to its in-flight execution, so
	// concurrent identical requests coalesce (see flight.go).
	flights map[string]*flight

	// pinned holds run ids retention must not evict: members of a
	// still-queryable campaign, whose per-run reports clients fetch as
	// the campaign stream surfaces their ids (a warm campaign's
	// members are terminal the moment they are admitted, so without
	// the pin a small -retain could evict early members before any
	// client sees them). Pins are released when prune evicts the
	// campaign itself.
	pinned map[string]bool

	// campaigns mirror runs: admission-ordered, retained up to the
	// same cap.
	campaigns     map[string]*campaign
	campaignOrder []string
	nextCampaign  int
}

// Typed admission failures. The HTTP layer maps the first two to
// 429 Too Many Requests (with Retry-After) and draining to 503.
var (
	// ErrQueueFull: the bounded admission queue ahead of the worker
	// pool is at capacity.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrQuotaExceeded: the client's in-flight activation-budget quota
	// is exhausted.
	ErrQuotaExceeded = errors.New("serve: client activation-budget quota exceeded")
	// ErrDraining: the server is shutting down and admits nothing new.
	ErrDraining = errors.New("serve: server is shutting down")
)

// defaultRetainTerminal is the default retention cap for finished
// runs. Evicted runs answer 404; their cached reports (if any) remain
// servable through new requests via the result cache.
const defaultRetainTerminal = 256

// defaultMaxQueue is the default admission-queue capacity: far more
// than the worker pool (so bursts absorb), far less than "unbounded"
// (so a flood answers 429 instead of OOMing the server).
const defaultMaxQueue = 64

// NewManager builds a manager with the given shared worker budget
// (<= 0 means GOMAXPROCS) and result-cache capacity in entries
// (< 0 disables caching; 0 means the default of 64).
func NewManager(factory SuiteFactory, budget, cacheSize int) *Manager {
	if cacheSize == 0 {
		cacheSize = 64
	}
	if cacheSize < 0 {
		cacheSize = 0
	}
	pool := expt.NewPool(budget)
	m := &Manager{
		factory:   factory,
		pool:      pool,
		exec:      &expt.Local{Pool: pool},
		cache:     newResultCache(cacheSize),
		retain:    defaultRetainTerminal,
		maxQueue:  defaultMaxQueue,
		metrics:   newMetrics(),
		runs:      make(map[string]*run),
		flights:   make(map[string]*flight),
		pinned:    make(map[string]bool),
		campaigns: make(map[string]*campaign),
	}
	return m
}

// run is one admitted request. Its lifecycle carries the id, the state,
// one stream slot per experiment (by report index), the report, and
// the "run" root span.
type run struct {
	lifecycle

	spec      *expt.ResolvedSpec
	client    string    // quota identity of the admitting client
	admitted  time.Time // for the run-latency histogram
	quotaCost int64     // charge held against the client quota (0 = none)

	// rec is the run's span tree: every admitted run records one,
	// rooted at "run" (under the coordinator's dispatch span when the
	// admission carried a trace link). The recorder has its own lock,
	// so span calls never contend with r.mu.
	rec *trace.Recorder

	// Guarded by mu.
	cancel    context.CancelFunc
	suite     *expt.Suite // follower's unrun suite, retained for failover
	cached    bool
	coalesced bool
}

func (r *run) traceRecords() []trace.Record { return r.rec.Records() }

// status snapshots the run as a RunStatus. withReport embeds the
// report bytes (GET /runs/{id}); listings omit them.
func (r *run) status(withReport bool) RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RunStatus{
		ID:             r.id,
		State:          r.state,
		Profile:        r.spec.Profile,
		Seed:           r.spec.Seed,
		Digest:         r.spec.Digest(),
		Jobs:           r.spec.Jobs,
		Shards:         r.spec.Shards,
		MaxActivations: r.spec.MaxActivations,
		Experiments:    r.spec.Names,
		Total:          len(r.spec.Names),
		Completed:      r.completed,
		Cached:         r.cached,
		Coalesced:      r.coalesced,
		Error:          r.errMsg,
		ErrorKind:      r.errKind,
	}
	if withReport && r.report != nil && r.state != StateCanceled {
		st.Report = json.RawMessage(r.report)
	}
	return st
}

// StartTraced admits one run request with an optional trace link — the
// parsed X-Dramscope-Trace header of a coordinator's dispatch, which
// roots this run's span subtree under the coordinator's tree.
func (m *Manager) StartTraced(req RunRequest, client string, link *trace.Link) (*run, error) {
	rs, suite, err := resolveRequest(req, m.factory)
	if err != nil {
		return nil, err
	}
	return m.admitRun(rs, suite, admitOpts{client: client, link: link})
}

// admitOpts tunes admitRun for its two callers: interactive runs
// (zero value) and campaign members.
type admitOpts struct {
	// pinned: campaign member, exempt from retention eviction while
	// its campaign stays queryable.
	pinned bool
	// reserved: the caller pre-reserved an execution slot (campaign
	// all-or-nothing admission); admitRun consumes it instead of
	// checking the queue, and releases it on the free paths.
	reserved bool
	// exemptQuota: the caller already charged the client quota at a
	// higher level (the campaign's all-or-nothing charge).
	exemptQuota bool
	// client is the quota identity.
	client string
	// link, when non-nil, roots the run's span tree under a foreign
	// trace: a coordinator's dispatch span (X-Dramscope-Trace) or a
	// local campaign's member span.
	link *trace.Link
}

// Admission-path outcomes, decided under m.mu in admitRun.
const (
	admitExec      = iota // fresh flight leader: consumes a slot, executes
	admitCached           // LRU hit: pre-completed
	admitCoalesced        // follower of an in-flight identical run
)

// admitRun registers one resolved spec. The decisive checks — result
// cache, in-flight coalescing, queue capacity, client quota — all
// happen under one lock, so two racing identical requests can never
// both execute, and a run is either admitted with bounded resources or
// rejected with a typed error before any state is created.
func (m *Manager) admitRun(rs *expt.ResolvedSpec, suite *expt.Suite, opts admitOpts) (*run, error) {
	digest := rs.Digest() // memoized; compute outside the lock

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}

	r := &run{
		spec:     rs,
		client:   opts.client,
		admitted: time.Now(),
		cancel:   func() {},
	}
	// Every admitted run records a span tree. Solo runs name the trace
	// by their canonical digest — the same identity the caches key by —
	// so a re-run of the same spec produces the same span IDs; linked
	// admissions adopt the foreign trace and extend its path.
	if opts.link != nil {
		r.rec = trace.NewLinked(*opts.link)
	} else {
		r.rec = trace.New(digest)
	}
	root := r.rec.Root("run", fmt.Sprintf("run %s seed %d", rs.Profile, rs.Seed)).Begin()
	root.SetAttr("digest", digest).SetAttr("profile", rs.Profile).SetAttr("seed", rs.Seed)
	r.begin("run", root, len(rs.Names))

	var fl *flight
	path := admitExec
	if e, hit := m.cache.get(digest); hit {
		path = admitCached
		m.metrics.lruHits.Add(1)
		r.completeFromEntry(e)
	} else if f, ok := m.flights[digest]; ok {
		path = admitCoalesced
		m.metrics.coalesced.Add(1)
		r.coalesced = true
		r.suite = suite // retained: the failover suite if the leader cancels
		root.SetAttr("coalesced", true)
		f.addFollower(r)
	} else {
		if !opts.reserved {
			if err := m.slotErrLocked(1); err != nil {
				m.mu.Unlock()
				return nil, err
			}
			m.outstanding++
		}
		if m.quota != nil && !opts.exemptQuota {
			cost := m.quota.cost(rs.MaxActivations)
			if !m.quota.charge(opts.client, cost) {
				if !opts.reserved {
					m.outstanding--
				}
				m.mu.Unlock()
				m.metrics.rejectedQuota.Add(1)
				if opts.reserved {
					m.releaseSlots(1)
				}
				return nil, ErrQuotaExceeded
			}
			r.quotaCost = cost
		}
		fl = &flight{digest: digest, leader: r}
		m.flights[digest] = fl
	}

	m.next++
	r.id = fmt.Sprintf("r%06d", m.next)
	m.runs[r.id] = r
	m.order = append(m.order, r.id)
	if opts.pinned {
		m.pinned[r.id] = true
	}
	m.mu.Unlock()
	m.metrics.admitted.Add(1)

	switch path {
	case admitCached, admitCoalesced:
		// Free paths: a pre-reserved campaign slot is not needed.
		if opts.reserved {
			m.releaseSlots(1)
		}
	case admitExec:
		m.execWG.Add(1)
		go m.watchFlight(fl)
		if e, hit := m.loadStored(rs); hit {
			// Persistent-store hit: complete the leader without
			// executing; the flight watcher fans the result out to any
			// followers that joined while the store was consulted.
			m.metrics.storeHits.Add(1)
			m.releaseAdmission(r)
			r.completeFromEntry(e)
		} else {
			m.startExec(r, suite)
		}
	}
	m.prune()
	return r, nil
}

// completeFromEntry moves a run to done with a cache entry's artifacts,
// without executing: an LRU hit (before the run is registered) or a
// persistent-store hit.
func (r *run) completeFromEntry(e *cacheEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cached = r.finishLocked(outcome{state: StateDone, report: e.report, lines: e.lines, cached: true})
}

// slotErrLocked is the one queue-capacity rule: n more executions fit
// unless the server is draining (ErrDraining) or they would take the
// outstanding count past maxQueue plus the worker pool (ErrQueueFull,
// counted as a queue rejection). Caller holds m.mu.
func (m *Manager) slotErrLocked(n int) error {
	if m.draining {
		return ErrDraining
	}
	if m.outstanding+n > m.maxQueue+m.pool.Size() {
		m.metrics.rejectedQueue.Add(1)
		return ErrQueueFull
	}
	return nil
}

// reserveSlots atomically claims n execution slots for a campaign's
// all-or-nothing admission; on slotErrLocked's rejection it claims
// none and the whole request must be rejected.
func (m *Manager) reserveSlots(n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	err := m.slotErrLocked(n)
	if err == nil {
		m.outstanding += n
	}
	return err
}

// releaseSlots returns n execution slots.
func (m *Manager) releaseSlots(n int) {
	m.mu.Lock()
	m.outstanding -= n
	m.mu.Unlock()
}

// addOutstanding grows the outstanding count without a capacity check
// — the failover path, whose execution replaces one that was already
// admitted.
func (m *Manager) addOutstanding(n int) {
	m.mu.Lock()
	m.outstanding += n
	m.mu.Unlock()
}

// releaseAdmission returns an execution's bounded resources: its queue
// slot and its quota charge.
func (m *Manager) releaseAdmission(r *run) {
	m.releaseSlots(1)
	r.mu.Lock()
	cost := r.quotaCost
	r.quotaCost = 0
	r.mu.Unlock()
	if cost > 0 && m.quota != nil {
		m.quota.release(r.client, cost)
	}
}

// storeKey maps a resolved spec to its persistent-store key: the
// spec's canonical form, verbatim — the same bytes whose digest keys
// the in-memory LRU. One canonicalization site for both caches.
func storeKey(rs *expt.ResolvedSpec) store.ReportKey {
	return store.ReportKey{Spec: rs.Canonical()}
}

// loadStored consults the persistent store for a finished report and,
// on a hit, rehydrates a full cache entry (report bytes plus the
// per-experiment stream lines, reconstructed from the report) and
// promotes it into the LRU. A report that fails expt.SplitReport
// against the resolved selection is a miss; the run then executes
// normally and overwrites the entry.
func (m *Manager) loadStored(rs *expt.ResolvedSpec) (*cacheEntry, bool) {
	if m.artifacts == nil {
		return nil, false
	}
	report, ok := m.artifacts.LoadReport(storeKey(rs))
	if !ok {
		return nil, false
	}
	lines, err := replayLines(report, rs.Names)
	if err != nil {
		return nil, false
	}
	e := &cacheEntry{key: rs.Digest(), names: rs.Names, report: report, lines: lines}
	m.cache.add(e)
	return e, true
}

// replayLines rebuilds the NDJSON stream payloads of a report that did
// not stream through this process — a store entry or a worker's
// response — once expt.SplitReport accepts it: one StreamEvent per
// experiment, in report order, carrying the exact experiment object
// the report holds (compacted — the stream format is compact JSON).
// Wall-time metadata is absent by design: it belongs to the run that
// executed, not to a replay.
func replayLines(report []byte, names []string) ([][]byte, error) {
	exps, err := expt.SplitReport(report, names)
	if err != nil {
		return nil, err
	}
	lines := make([][]byte, len(exps))
	for i, raw := range exps {
		// A raw-prefix twin of StreamEvent: same field names and order,
		// with the experiment embedded verbatim (json.Marshal compacts
		// RawMessage, matching the live stream's compact encoding).
		line, err := json.Marshal(struct {
			Index      int             `json:"index"`
			Total      int             `json:"total"`
			Experiment json.RawMessage `json:"experiment"`
		}{i, len(exps), raw})
		if err != nil {
			return nil, err
		}
		lines[i] = line
	}
	return lines, nil
}

// startExec launches one fresh execution under the shutdown
// WaitGroup.
func (m *Manager) startExec(r *run, suite *expt.Suite) {
	ctx, cancel := context.WithCancel(context.Background())
	r.mu.Lock()
	r.cancel = cancel
	if r.state != StateRunning {
		cancel() // canceled between admission and launch
	}
	r.mu.Unlock()
	m.execWG.Add(1)
	go func() {
		defer m.execWG.Done()
		m.execute(ctx, r, suite)
	}()
}

// execute runs one admitted request through the manager's executor and
// completes it. A clean report enters the LRU and the store before the
// run turns done, so a client that sees "done" — or a same-digest
// request admitted once the flight is gone — finds it cached.
func (m *Manager) execute(ctx context.Context, r *run, suite *expt.Suite) {
	ex := m.exec.Execute(ctx, expt.Task{Spec: r.spec, Suite: suite, Parent: r.span, OnResult: r.onResult})
	if ex.Workers > 0 {
		m.metrics.executed.Add(1)
		m.metrics.addSuiteCost(suite.ProbeCost(), suite.ActivationsUsed())
	}
	if ex.Remote {
		// A worker's report arrives whole: replay it into the stream. The
		// federator accepted it through expt.SplitReport, so rebuilding
		// its lines cannot fail.
		lines, _ := replayLines(ex.Report, r.spec.Names)
		r.fill(lines)
	}
	o := outcome{state: StateDone, report: ex.Report}
	switch {
	case ex.Canceled:
		o.state = StateCanceled
	case ex.Err != nil:
		o.state = StateFailed
	}
	if ex.Err != nil {
		o.errMsg = ex.Err.Error()
	}
	if ex.Budget {
		o.errKind = ErrorKindBudget
	}
	if o.state == StateDone {
		streamed, _ := r.wait()
		m.cache.add(&cacheEntry{
			key:    r.spec.Digest(),
			names:  r.spec.Names,
			report: ex.Report,
			lines:  streamed.lines,
		})
		if m.artifacts != nil {
			// Write-through, best-effort: a full disk must not fail a
			// finished run, it only costs the next process a re-run.
			_ = m.artifacts.SaveReport(storeKey(r.spec), ex.Report)
		}
	}
	m.releaseAdmission(r)
	r.finish(o)
	m.observe(r, ex.QueueWait, suite.ProbeCost())
}

// retryAfterSeconds derives the Retry-After hint a 429 carries from
// live load: every admitted execution still outstanding (queued,
// running, or dispatched to a worker) times the recent p50
// admission-to-terminal latency, spread over the worker pool — a
// bucket-resolution estimate of when the backlog next frees a slot.
// Clamped to [1s, 5min]: an empty histogram still hints at one
// second, and a pathological backlog cannot park clients for hours.
func (m *Manager) retryAfterSeconds() int {
	m.mu.Lock()
	depth := m.outstanding
	m.mu.Unlock()
	mx := m.metrics
	mx.mu.Lock()
	p50 := mx.hist.percentile(0.50)
	mx.mu.Unlock()
	secs := int((float64(depth)*p50/float64(m.pool.Size()) + 999) / 1000)
	if secs < 1 {
		secs = 1
	}
	if secs > 300 {
		secs = 300
	}
	return secs
}

// observe records one finished execution's outcome, latency, trace,
// and (when slow) a slow-run log line.
func (m *Manager) observe(r *run, queueWait time.Duration, probe host.Counters) {
	state, _ := r.result()
	wall := time.Since(r.admitted)
	m.metrics.observeExecution(state, wall)

	if m.slowThreshold > 0 && m.slowLog != nil && wall >= m.slowThreshold {
		line, err := json.Marshal(SlowRunEvent{
			Run:     r.id,
			Digest:  r.spec.Digest(),
			Client:  r.client,
			State:   state,
			QueueMS: float64(queueWait) / float64(time.Millisecond),
			WallMS:  float64(wall) / float64(time.Millisecond),
			Probe:   probe,
		})
		if err == nil {
			m.obsMu.Lock()
			m.slowLog.Write(append(line, '\n'))
			m.obsMu.Unlock()
		}
	}
	if m.traceW != nil {
		m.obsMu.Lock()
		trace.WriteNDJSON(m.traceW, r.rec.Records())
		m.obsMu.Unlock()
	}
}

// SlowRunEvent is the structured NDJSON line the slow-run log emits
// (-slow-threshold): one line per executed run whose wall time crossed
// the threshold, separating queue wait from execution and carrying the
// probe cost the run actually spent.
type SlowRunEvent struct {
	Run     string        `json:"run"`
	Digest  string        `json:"digest"`
	Client  string        `json:"client,omitempty"`
	State   string        `json:"state"`
	QueueMS float64       `json:"queueMs"`
	WallMS  float64       `json:"wallMs"`
	Probe   host.Counters `json:"probe"`
}

// onResult is the suite's per-experiment completion callback: marshal
// the result once and land it under its report index. It runs on suite
// worker goroutines, concurrently.
func (r *run) onResult(index, total int, res *expt.ExptResult) {
	line, err := json.Marshal(StreamEvent{Index: index, Total: total, Experiment: res,
		ElapsedMS: float64(res.Elapsed) / float64(time.Millisecond)})
	if err != nil {
		line, _ = json.Marshal(StreamEvent{Index: index, Total: total,
			Error: fmt.Sprintf("marshal result: %v", err)})
	}
	r.land(index, line)
}

// Get returns a run by id.
func (m *Manager) Get(id string) (*run, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs[id]
	return r, ok
}

// Runs returns every admitted run in admission order.
func (m *Manager) Runs() []*run {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*run, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.runs[id])
	}
	return out
}

// Cancel cancels a run by id. Canceling a finished (or cached) run is
// a no-op; the run keeps its terminal state. Canceling the leader of a
// coalesced flight promotes a follower instead of stranding it (see
// flight.go).
func (m *Manager) Cancel(id string) (*run, bool) {
	return m.cancelRun(id, "canceled by client")
}

func (m *Manager) cancelRun(id, reason string) (*run, bool) {
	r, ok := m.Get(id)
	if !ok {
		return nil, false
	}
	r.mu.Lock()
	cancel := r.cancel
	r.finishLocked(outcome{state: StateCanceled, errMsg: reason})
	r.suite = nil
	r.mu.Unlock()
	cancel()
	return r, true
}

// Shutdown drains the manager for process exit: new admissions are
// refused (ErrDraining), every running run and campaign is canceled
// through the usual cancellation path (in-flight experiments finish
// their current node, then stop — no partial store writes), and the
// call blocks until every execution, flight watcher, and campaign
// watcher goroutine has returned or ctx expires.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	runs := append([]string(nil), m.order...)
	camps := append([]string(nil), m.campaignOrder...)
	m.mu.Unlock()

	for _, id := range camps {
		m.cancelCampaign(id, "server shutting down")
	}
	for _, id := range runs {
		m.cancelRun(id, "server shutting down")
	}

	done := make(chan struct{})
	go func() {
		m.execWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
