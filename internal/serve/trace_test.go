package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"dramscope/internal/trace"
)

// This file proves the observability contract of the serve layer: every
// admitted run records a span tree reachable at GET /runs/{id}/trace, a
// campaign stitches its members into one tree, federation grafts the
// worker-side subtrees under the coordinator's dispatch spans, /metrics
// speaks Prometheus text format on request, and slow runs leave one
// structured log line.

var updateProm = flag.Bool("update-prom", false, "rewrite testdata/metrics.prom from the current renderer")

// getTrace fetches a trace endpoint and returns the parsed records.
func getTrace(t *testing.T, ts *httptest.Server, path string) []trace.Record {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status = %d: %s", path, resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("GET %s Content-Type = %q, want application/x-ndjson", path, ct)
	}
	recs, err := trace.ParseNDJSON(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("GET %s: parse NDJSON: %v", path, err)
	}
	return recs
}

func pathSet(recs []trace.Record) map[string]trace.Record {
	m := make(map[string]trace.Record, len(recs))
	for _, r := range recs {
		m[r.Path] = r
	}
	return m
}

// TestRunTraceEndpoint: a solo run's trace is unavailable (409) while it
// executes, then serves the full span tree — run root named by the
// canonical digest, queue/execute children, and the suite's experiment
// spans beneath — in NDJSON and Chrome trace-event form.
func TestRunTraceEndpoint(t *testing.T) {
	t.Parallel()
	started := make(chan struct{})
	release := make(chan struct{})
	ts := newTestServer(t, Config{Factory: blockingFactory(started, release)})

	st, resp := postRun(t, ts, `{"seed":7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /runs status = %d", resp.StatusCode)
	}
	<-started
	r, err := http.Get(ts.URL + "/runs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusConflict {
		t.Fatalf("trace of a running run: status = %d, want 409", r.StatusCode)
	}
	close(release)
	if fin := waitDone(t, ts, st.ID); fin.State != StateDone {
		t.Fatalf("run state = %s", fin.State)
	}

	recs := getTrace(t, ts, "/runs/"+st.ID+"/trace")
	byPath := pathSet(recs)
	for _, p := range []string{"run", "run/queue", "run/execute", "run/execute/expt:slow", "run/execute/expt:quick"} {
		if _, ok := byPath[p]; !ok {
			t.Errorf("trace is missing span %q; have %d records", p, len(recs))
		}
	}
	root := byPath["run"]
	if root.Trace != st.Digest {
		t.Errorf("trace ID = %q, want the canonical digest %q", root.Trace, st.Digest)
	}
	var attrs map[string]any
	if err := json.Unmarshal(root.Attrs, &attrs); err != nil {
		t.Fatalf("run root attrs: %v", err)
	}
	if attrs["digest"] != st.Digest || attrs["state"] != string(StateDone) {
		t.Errorf("run root attrs = %v, want digest %q and state done", attrs, st.Digest)
	}
	// Parentage follows paths: every non-root span's parent ID is the
	// span ID of its path prefix.
	for _, rec := range recs {
		i := strings.LastIndex(rec.Path, "/")
		if i < 0 {
			continue
		}
		parent, ok := byPath[rec.Path[:i]]
		if !ok {
			t.Errorf("span %q has no parent record %q", rec.Path, rec.Path[:i])
			continue
		}
		if rec.Parent != parent.Span {
			t.Errorf("span %q parent = %q, want %q", rec.Path, rec.Parent, parent.Span)
		}
	}

	// Chrome export: a JSON envelope with one complete event per span.
	cresp, err := http.Get(ts.URL + "/runs/" + st.ID + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	data, err := readAll(cresp)
	if err != nil {
		t.Fatal(err)
	}
	if ct := cresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("chrome trace Content-Type = %q", ct)
	}
	var env struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(env.TraceEvents) != len(recs) {
		t.Fatalf("chrome trace has %d events, want %d", len(env.TraceEvents), len(recs))
	}
}

// TestCoalescedFollowerTraceEnds: a coalesced follower's run span ends
// with its terminal state, exactly like its leader's — the follower
// finishes through the same lifecycle transition, not a copy of it.
func TestCoalescedFollowerTraceEnds(t *testing.T) {
	t.Parallel()
	started := make(chan struct{})
	release := make(chan struct{})
	ts := newTestServer(t, Config{Factory: blockingFactory(started, release)})

	leader, _ := postRun(t, ts, `{"seed":13}`)
	<-started
	follower, _ := postRun(t, ts, `{"seed":13}`)
	if !follower.Coalesced {
		t.Fatalf("second identical POST not coalesced: %+v", follower)
	}
	close(release)
	for _, id := range []string{leader.ID, follower.ID} {
		if fin := waitDone(t, ts, id); fin.State != StateDone {
			t.Fatalf("run %s state = %s", id, fin.State)
		}
		root := pathSet(getTrace(t, ts, "/runs/"+id+"/trace"))["run"]
		var attrs map[string]any
		if err := json.Unmarshal(root.Attrs, &attrs); err != nil {
			t.Fatalf("run %s root attrs: %v", id, err)
		}
		if root.DurUs <= 0 || attrs["state"] != StateDone {
			t.Errorf("run %s root span: durUs %d, attrs %s; want it ended with state done",
				id, root.DurUs, root.Attrs)
		}
	}
}

// TestRunTraceLinkedHeader: a run created with an X-Dramscope-Trace
// header roots its span tree under the foreign span — same trace ID,
// path prefixed by the parent's, root parented to the given span ID —
// which is what lets a coordinator graft the subtree verbatim.
func TestRunTraceLinkedHeader(t *testing.T) {
	t.Parallel()
	ts := newTestServer(t, Config{Factory: testFactory})

	link := trace.Link{
		Trace:  trace.DeriveID("linked-header-test"),
		Parent: trace.SpanID(trace.DeriveID("linked-header-test"), "campaign/member:000003"),
		Path:   "campaign/member:000003",
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/runs", strings.NewReader(`{"seed":11}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.Header, trace.FormatHeader(link))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fin := waitDone(t, ts, st.ID); fin.State != StateDone {
		t.Fatalf("run state = %s", fin.State)
	}

	recs := getTrace(t, ts, "/runs/"+st.ID+"/trace")
	if len(recs) == 0 {
		t.Fatal("linked run produced no trace records")
	}
	byPath := pathSet(recs)
	root, ok := byPath[link.Path+"/run"]
	if !ok {
		t.Fatalf("no root at %q; paths: %v", link.Path+"/run", pathList(recs))
	}
	if root.Trace != link.Trace || root.Parent != link.Parent {
		t.Errorf("root trace/parent = %q/%q, want the linked %q/%q", root.Trace, root.Parent, link.Trace, link.Parent)
	}
	for _, r := range recs {
		if !strings.HasPrefix(r.Path, link.Path+"/") {
			t.Errorf("span %q escapes the linked path prefix %q", r.Path, link.Path)
		}
	}
}

func pathList(recs []trace.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Path
	}
	return out
}

// TestCampaignTraceEndpoint: a campaign's trace is one stitched tree —
// the campaign root, one member span per spec, and under each member
// the full run subtree of that member's admitted run, exactly once.
func TestCampaignTraceEndpoint(t *testing.T) {
	t.Parallel()
	ts := newTestServer(t, Config{Factory: testFactory})

	seeds := []uint64{51, 52, 53}
	cs, resp := postCampaign(t, ts, seedSpecsBody(seeds))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /campaigns status = %d", resp.StatusCode)
	}
	campaignStreamEvents(t, ts, cs.ID)
	if fin := getCampaignStatus(t, ts, cs.ID); fin.State != StateDone {
		t.Fatalf("campaign state = %s", fin.State)
	}

	recs := getTrace(t, ts, "/campaigns/"+cs.ID+"/trace")
	byPath := pathSet(recs)
	if _, ok := byPath["campaign"]; !ok {
		t.Fatal("campaign trace has no campaign root")
	}
	for i := range seeds {
		member := fmt.Sprintf("campaign/member:%06d", i)
		for _, p := range []string{member, member + "/run", member + "/run/execute/expt:alpha"} {
			if n := countPath(recs, p); n != 1 {
				t.Errorf("campaign trace has %d records at %q, want exactly 1", n, p)
			}
		}
	}
	for _, r := range recs {
		if r.Trace != byPath["campaign"].Trace {
			t.Errorf("span %q carries trace %q, want the campaign's %q", r.Path, r.Trace, byPath["campaign"].Trace)
		}
	}
}

func countPath(recs []trace.Record, path string) int {
	n := 0
	for _, r := range recs {
		if r.Path == path {
			n++
		}
	}
	return n
}

// TestFederatedCampaignTraceStitched: a federated campaign under fault
// injection still produces ONE stitched trace: every member exactly
// once, each member's worker-side experiment spans grafted under the
// coordinator's dispatch span, and the injected fault visible as a
// dispatch span with a fault verdict followed by a marked retry span.
func TestFederatedCampaignTraceStitched(t *testing.T) {
	t.Parallel()
	fw := newFaultyWorker(t, Config{Factory: testFactory})
	fw.set(func(fw *faultyWorker) { fw.fail5xx = 1 })
	_, healthyTS := newWorker(t, Config{Factory: testFactory})
	_, ts := newCoordinator(t, Config{
		Factory: testFactory,
		Workers: []string{fw.ts.URL, healthyTS.URL},
	})

	seeds := []uint64{61, 62}
	cs, resp := postCampaign(t, ts, seedSpecsBody(seeds))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /campaigns status = %d", resp.StatusCode)
	}
	campaignStreamEvents(t, ts, cs.ID)
	if fin := getCampaignStatus(t, ts, cs.ID); fin.State != StateDone {
		t.Fatalf("campaign state = %s", fin.State)
	}

	recs := getTrace(t, ts, "/campaigns/"+cs.ID+"/trace")
	workerExpt := regexp.MustCompile(`^campaign/member:(\d{6})/run/dispatch:\d{6}/run/execute/expt:alpha$`)
	perMember := map[string]int{}
	retries, faults := 0, 0
	for _, r := range recs {
		if m := workerExpt.FindStringSubmatch(r.Path); m != nil {
			perMember[m[1]]++
		}
		var attrs map[string]any
		if len(r.Attrs) > 0 {
			if err := json.Unmarshal(r.Attrs, &attrs); err != nil {
				t.Fatalf("span %q attrs unparseable: %v", r.Path, err)
			}
		}
		if _, ok := attrs["retry"]; ok {
			retries++
		}
		if attrs["verdict"] == "fault" {
			faults++
		}
	}
	for i := range seeds {
		member := fmt.Sprintf("%06d", i)
		if perMember[member] != 1 {
			t.Errorf("member %s has %d worker-side experiment spans, want exactly 1 (paths: %v)",
				member, perMember[member], pathList(recs))
		}
		if n := countPath(recs, fmt.Sprintf("campaign/member:%06d", i)); n != 1 {
			t.Errorf("member %s appears %d times in the stitched trace, want once", member, n)
		}
	}
	if faults == 0 {
		t.Error("injected worker fault left no dispatch span with verdict=fault")
	}
	if retries == 0 {
		t.Error("re-dispatch after the injected fault left no span marked retry")
	}
}

// TestMetricsPrometheusNegotiation: GET /metrics answers JSON by
// default and Prometheus text exposition when asked — by query
// parameter or Accept header.
func TestMetricsPrometheusNegotiation(t *testing.T) {
	t.Parallel()
	ts := newTestServer(t, Config{Factory: testFactory})
	st, _ := postRun(t, ts, `{"seed":5}`)
	waitDone(t, ts, st.ID)

	get := func(path, accept string) (string, string) {
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, err := readAll(resp)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s status = %d", path, resp.StatusCode)
		}
		return resp.Header.Get("Content-Type"), string(data)
	}

	if ct, body := get("/metrics", ""); ct != "application/json" || !strings.HasPrefix(body, "{") {
		t.Errorf("default /metrics: Content-Type %q, body %q...", ct, body[:min(40, len(body))])
	}
	for _, variant := range []struct{ path, accept string }{
		{"/metrics?format=prometheus", ""},
		{"/metrics", "text/plain"},
	} {
		ct, body := get(variant.path, variant.accept)
		if ct != prometheusContentType {
			t.Errorf("%+v: Content-Type = %q, want %q", variant, ct, prometheusContentType)
		}
		for _, want := range []string{
			"# TYPE dramscope_runs_admitted_total counter",
			"dramscope_runs_admitted_total 1",
			"dramscope_run_latency_ms_bucket{le=\"+Inf\"}",
			"dramscope_run_latency_ms_count 1",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("%+v: exposition is missing %q", variant, want)
			}
		}
	}
}

// TestPrometheusRenderGolden byte-compares the exposition renderer
// against testdata/metrics.prom for a fixed snapshot covering every
// metric family, coordinator block included. Regenerate with
// go test ./internal/serve -run TestPrometheusRenderGolden -update-prom
func TestPrometheusRenderGolden(t *testing.T) {
	t.Parallel()
	m := Metrics{
		Queue: MetricsQueue{Depth: 2, Capacity: 64, InFlight: 3, Workers: 4},
		Runs: MetricsRuns{Admitted: 100, Executed: 60, Coalesced: 10, RejectedQueue: 5,
			RejectedQuota: 2, Done: 55, Failed: 3, Canceled: 2},
		Cache: MetricsCache{LRUHits: 20, StoreHits: 10, Entries: 30, HitRate: 0.4},
		Probe: MetricsProbe{ACT: 1000, PRE: 900, RD: 5000, WR: 4000, REF: 10, ActivationsUsed: 950},
		Federation: &MetricsFederation{Workers: 3, Healthy: 2, Dispatched: 80, RemoteDone: 70,
			RemoteFailed: 4, Retried: 6, Stolen: 1, FallbackLocal: 2},
	}
	hist := histSnapshot{
		bounds: []float64{1, 10, 100, 1000},
		counts: []int64{5, 30, 20, 4, 1}, // last bucket is overflow
		total:  60,
		sum:    3456.75,
	}
	got := renderPrometheus(m, hist)
	const fixture = "testdata/metrics.prom"
	if *updateProm {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixture, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-prom)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("exposition drifted from %s:\n%s", fixture, got)
	}
}

// syncBuffer is a mutex-guarded buffer for writers the manager drives
// from its own goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSlowRunLog: a run whose wall time meets -slow-threshold leaves
// exactly one parseable SlowRunEvent line — and admissions that never
// execute (cache hits) leave none.
func TestSlowRunLog(t *testing.T) {
	t.Parallel()
	var slow syncBuffer
	ts := newTestServer(t, Config{
		Factory:       testFactory,
		SlowThreshold: time.Nanosecond, // every executed run is "slow"
		SlowLog:       &slow,
	})

	st, _ := postRun(t, ts, `{"seed":21}`)
	if fin := waitDone(t, ts, st.ID); fin.State != StateDone {
		t.Fatalf("run state = %s", fin.State)
	}
	waitFor(t, "the slow-run log line", func() bool { return strings.Contains(slow.String(), "\n") })

	// A cache-served admission of the same spec executes nothing and
	// must not log.
	st2, _ := postRun(t, ts, `{"seed":21}`)
	if fin := waitDone(t, ts, st2.ID); fin.State != StateDone {
		t.Fatalf("cached run state = %s", fin.State)
	}

	lines := strings.Split(strings.TrimRight(slow.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("slow log has %d lines, want exactly 1:\n%s", len(lines), slow.String())
	}
	var ev SlowRunEvent
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("slow log line is not valid JSON: %v\n%s", err, lines[0])
	}
	if ev.Run != st.ID || ev.Digest != st.Digest || ev.State != string(StateDone) {
		t.Errorf("slow event = %+v, want run %s digest %s state done", ev, st.ID, st.Digest)
	}
	if ev.WallMS < 0 || ev.QueueMS < 0 {
		t.Errorf("slow event timings negative: %+v", ev)
	}
}

// TestTraceWriter: with Config.TraceWriter set, every executed run
// appends its complete span tree to the writer as NDJSON.
func TestTraceWriter(t *testing.T) {
	t.Parallel()
	var tw syncBuffer
	ts := newTestServer(t, Config{Factory: testFactory, TraceWriter: &tw})

	st, _ := postRun(t, ts, `{"seed":23}`)
	if fin := waitDone(t, ts, st.ID); fin.State != StateDone {
		t.Fatalf("run state = %s", fin.State)
	}
	waitFor(t, "the trace writer flush", func() bool {
		recs, err := trace.ParseNDJSON(strings.NewReader(tw.String()))
		return err == nil && countPath(recs, "run/execute/expt:alpha") == 1
	})
	recs, err := trace.ParseNDJSON(strings.NewReader(tw.String()))
	if err != nil {
		t.Fatalf("trace writer output unparseable: %v", err)
	}
	if countPath(recs, "run") != 1 {
		t.Errorf("trace writer output has %d run roots, want 1", countPath(recs, "run"))
	}
}
