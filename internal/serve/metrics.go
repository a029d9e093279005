package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"dramscope/internal/host"
)

// This file is the observability half of heavy-traffic hardening: one
// metrics struct every admission and execution path ticks, rendered as
// plain JSON by GET /metrics (expvar-style — no dependencies, no wire
// format beyond encoding/json). Everything here is out-of-band
// operational data and can never appear in a report.

// metrics aggregates the server's operational counters. The atomic
// counters are ticked from admission and execution paths; the probe
// totals and the latency histogram take the mutex (they are updated
// once per finished execution, never on a per-request hot path).
type metrics struct {
	admitted  atomic.Int64 // runs registered, all admission paths
	executed  atomic.Int64 // runs whose suite executed on the local pool
	coalesced atomic.Int64 // runs that joined an in-flight execution
	lruHits   atomic.Int64 // admissions answered by the in-memory LRU
	storeHits atomic.Int64 // admissions answered by the persistent store

	rejectedQueue atomic.Int64 // admissions refused: queue full (429)
	rejectedQuota atomic.Int64 // admissions refused: client quota (429)

	done     atomic.Int64 // executions that finished clean
	failed   atomic.Int64 // executions that finished with errors
	canceled atomic.Int64 // executions canceled before finishing

	activations atomic.Int64 // metered ACT total across finished executions

	mu    sync.Mutex
	probe host.Counters // probe-chain command totals across finished executions
	hist  histogram     // run latency, admission to terminal state
}

func newMetrics() *metrics {
	m := &metrics{}
	m.hist.init(latencyBucketsMs)
	return m
}

// addSuiteCost folds one finished execution's command accounting into
// the totals: the probe-chain cost (zero for store-warmed runs) and
// the metered activation total.
func (mx *metrics) addSuiteCost(probe host.Counters, acts int64) {
	mx.activations.Add(acts)
	mx.mu.Lock()
	mx.probe = mx.probe.Add(probe)
	mx.mu.Unlock()
}

// observeExecution records one execution's terminal state and, for
// runs that actually produced a report (done or failed), its
// admission-to-terminal latency. Canceled runs are counted but not
// timed — their latency measures the client's patience, not the
// server.
func (mx *metrics) observeExecution(state string, elapsed time.Duration) {
	switch state {
	case StateDone:
		mx.done.Add(1)
	case StateFailed:
		mx.failed.Add(1)
	default:
		mx.canceled.Add(1)
		return
	}
	mx.mu.Lock()
	mx.hist.observe(float64(elapsed) / float64(time.Millisecond))
	mx.mu.Unlock()
}

// latencyBucketsMs are the fixed histogram bucket upper bounds in
// milliseconds: roughly logarithmic from "cache hit" (1 ms) to "cold
// full suite on a loaded box" (10 min). A fixed layout keeps observe
// O(buckets) with zero allocation and makes snapshots comparable
// across servers.
var latencyBucketsMs = []float64{
	1, 2, 5, 10, 25, 50, 100, 250, 500,
	1000, 2500, 5000, 10000, 30000, 60000, 180000, 600000,
}

// histogram is a fixed-bucket latency histogram. counts has one extra
// overflow bucket past the last bound. Callers hold metrics.mu.
type histogram struct {
	bounds []float64
	counts []int64
	total  int64
	sum    float64
}

func (h *histogram) init(bounds []float64) {
	h.bounds = bounds
	h.counts = make([]int64, len(bounds)+1)
}

func (h *histogram) observe(ms float64) {
	i := 0
	for i < len(h.bounds) && ms > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.total++
	h.sum += ms
}

// percentile returns the upper bound of the bucket holding the p-th
// percentile observation (0 < p < 1). Observations past the last bound
// report the last bound — the histogram cannot resolve beyond its
// range. Zero observations report 0.
func (h *histogram) percentile(p float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := int64(p*float64(h.total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.bounds[len(h.bounds)-1]
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// Metrics is the GET /metrics response body. Counters are cumulative
// since process start; gauges (queue depth, in-flight) are
// instantaneous. See docs/api.md for the field reference.
type Metrics struct {
	Queue   MetricsQueue   `json:"queue"`
	Runs    MetricsRuns    `json:"runs"`
	Cache   MetricsCache   `json:"cache"`
	Probe   MetricsProbe   `json:"probe"`
	Latency MetricsLatency `json:"latency"`
	// Federation is present only on a coordinator (-workers).
	Federation *MetricsFederation `json:"federation,omitempty"`
}

// MetricsFederation reports the coordinator's dispatcher. Dispatched
// counts every member-to-worker placement attempt; RemoteDone and
// RemoteFailed count members that reached a validated terminal state
// on a worker; Retried counts re-dispatches after a worker fault;
// Stolen counts re-dispatches after a member timeout; FallbackLocal
// counts members no worker could take that executed on the
// coordinator itself. Healthy is how many workers are currently in
// placement (not benched by a fault cooldown).
type MetricsFederation struct {
	Workers       int   `json:"workers"`
	Healthy       int   `json:"healthy"`
	Dispatched    int64 `json:"dispatched"`
	RemoteDone    int64 `json:"remoteDone"`
	RemoteFailed  int64 `json:"remoteFailed"`
	Retried       int64 `json:"retried"`
	Stolen        int64 `json:"stolen"`
	FallbackLocal int64 `json:"fallbackLocal"`
}

// MetricsQueue describes the admission queue and worker pool.
type MetricsQueue struct {
	// Depth is how many admitted executions are waiting for worker
	// tokens right now; Capacity is the configured waiting-room size
	// (-queue). InFlight executions hold tokens; Workers is the pool
	// size (-budget).
	Depth    int64 `json:"depth"`
	Capacity int   `json:"capacity"`
	InFlight int64 `json:"inFlight"`
	Workers  int   `json:"workers"`
}

// MetricsRuns counts admissions and execution outcomes.
type MetricsRuns struct {
	Admitted      int64 `json:"admitted"`
	Executed      int64 `json:"executed"`
	Coalesced     int64 `json:"coalesced"`
	RejectedQueue int64 `json:"rejectedQueue"`
	RejectedQuota int64 `json:"rejectedQuota"`
	Done          int64 `json:"done"`
	Failed        int64 `json:"failed"`
	Canceled      int64 `json:"canceled"`
}

// MetricsCache reports result-cache effectiveness. HitRate is
// (lruHits + storeHits + coalesced) / admitted — the fraction of
// admissions that did not cost a fresh suite execution — and is 0
// before the first admission.
type MetricsCache struct {
	LRUHits   int64   `json:"lruHits"`
	StoreHits int64   `json:"storeHits"`
	Entries   int     `json:"entries"`
	HitRate   float64 `json:"hitRate"`
}

// MetricsProbe is the cumulative probe-chain command cost of every
// finished execution (host.Counters totals), plus the metered
// activation total the budget accounting observed.
type MetricsProbe struct {
	ACT             int64 `json:"act"`
	PRE             int64 `json:"pre"`
	RD              int64 `json:"rd"`
	WR              int64 `json:"wr"`
	REF             int64 `json:"ref"`
	ActivationsUsed int64 `json:"activationsUsed"`
}

// MetricsLatency summarizes the run-latency histogram (admission to
// terminal state, executed runs only). Percentiles are fixed-bucket
// upper bounds, not exact order statistics.
type MetricsLatency struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"meanMs"`
	P50Ms  float64 `json:"p50Ms"`
	P95Ms  float64 `json:"p95Ms"`
	P99Ms  float64 `json:"p99Ms"`
}

// Metrics snapshots the server's operational state for GET /metrics.
func (m *Manager) Metrics() Metrics {
	mx := m.metrics
	var out Metrics

	m.mu.Lock()
	out.Queue.Capacity = m.maxQueue
	m.mu.Unlock()
	out.Queue.Depth = m.pool.Waiting()
	out.Queue.InFlight = m.pool.Holding()
	out.Queue.Workers = m.pool.Size()

	out.Runs = MetricsRuns{
		Admitted:      mx.admitted.Load(),
		Executed:      mx.executed.Load(),
		Coalesced:     mx.coalesced.Load(),
		RejectedQueue: mx.rejectedQueue.Load(),
		RejectedQuota: mx.rejectedQuota.Load(),
		Done:          mx.done.Load(),
		Failed:        mx.failed.Load(),
		Canceled:      mx.canceled.Load(),
	}

	out.Cache.LRUHits = mx.lruHits.Load()
	out.Cache.StoreHits = mx.storeHits.Load()
	out.Cache.Entries = m.cache.len()
	if adm := out.Runs.Admitted; adm > 0 {
		served := out.Cache.LRUHits + out.Cache.StoreHits + out.Runs.Coalesced
		out.Cache.HitRate = float64(served) / float64(adm)
	}

	mx.mu.Lock()
	out.Probe = MetricsProbe{
		ACT: mx.probe.ACT, PRE: mx.probe.PRE,
		RD: mx.probe.RD, WR: mx.probe.WR, REF: mx.probe.REF,
	}
	out.Latency = MetricsLatency{
		Count: mx.hist.total,
		P50Ms: mx.hist.percentile(0.50),
		P95Ms: mx.hist.percentile(0.95),
		P99Ms: mx.hist.percentile(0.99),
	}
	if mx.hist.total > 0 {
		out.Latency.MeanMs = mx.hist.sum / float64(mx.hist.total)
	}
	mx.mu.Unlock()
	out.Probe.ActivationsUsed = mx.activations.Load()
	if m.fed != nil {
		fs := m.fed.Snapshot()
		out.Federation = &fs
	}
	return out
}
