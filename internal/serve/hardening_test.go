package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dramscope/internal/expt"
	"dramscope/internal/store"
)

// countingBlockingFactory builds suites whose single "slow" experiment
// parks on release and bumps execs each time it actually runs — the
// instrument for proving how many suite executions N requests cost.
// Every start is announced on starts (buffered, non-blocking), so
// tests can await the first execution or a failover's second one. The
// printed output is constant: re-executions are byte-identical.
func countingBlockingFactory(execs *atomic.Int64, starts chan struct{}, release <-chan struct{}) SuiteFactory {
	return func(profile string, seed uint64) (*expt.Suite, error) {
		s := expt.NewSuite(seed)
		err := s.Register(expt.Experiment{
			Name:  "slow",
			Title: "Slow",
			Run: func(j *expt.Job) error {
				execs.Add(1)
				select {
				case starts <- struct{}{}:
				default:
				}
				<-release
				j.Printf("slow done seed=%d\n", j.Seed())
				return nil
			},
		})
		if err != nil {
			return nil, err
		}
		return s, nil
	}
}

// postRunAs is postRun with a client identity header, for quota tests.
func postRunAs(t *testing.T, ts *httptest.Server, body, apiKey string) (RunStatus, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/runs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil && resp.StatusCode < 300 {
		t.Fatalf("decode POST /runs response: %v", err)
	}
	return st, resp
}

// TestCoalesceConcurrentPosts is the single-flight contract: N
// concurrent identical POSTs cost exactly one suite execution, every
// follower is marked coalesced, and every report — leader and
// followers alike — is byte-identical to a solo run of the same spec.
func TestCoalesceConcurrentPosts(t *testing.T) {
	t.Parallel()
	var execs atomic.Int64
	starts := make(chan struct{}, 16)
	release := make(chan struct{})
	ts := newTestServer(t, Config{
		Factory: countingBlockingFactory(&execs, starts, release),
		Budget:  4, CacheSize: -1, // no LRU: coalescing alone must dedupe
	})

	leader, resp := postRun(t, ts, `{"seed":3}`)
	if resp.StatusCode != http.StatusAccepted || leader.Coalesced {
		t.Fatalf("leader POST: status=%d coalesced=%v, want 202/false", resp.StatusCode, leader.Coalesced)
	}
	<-starts // the leader's suite is executing (and parked)

	const followers = 8
	ids := make([]string, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, resp := postRun(t, ts, `{"seed":3}`)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("follower %d: status = %d, want 202", i, resp.StatusCode)
			}
			if !st.Coalesced {
				t.Errorf("follower %d not marked coalesced: %+v", i, st)
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	close(release)

	want := soloReport(t, &execs, 3)
	for _, id := range append(ids, leader.ID) {
		final := waitDone(t, ts, id)
		if final.State != StateDone {
			t.Fatalf("run %s state = %s (err %q), want done", id, final.State, final.Error)
		}
		got, code := getReport(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("run %s report status = %d", id, code)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("run %s report differs from solo run:\ngot:  %s\nwant: %s", id, got, want)
		}
		// Coalesced followers replay the leader's stream lines verbatim.
		events := streamEvents(t, ts, id)
		if len(events) != 2 || events[0].Experiment == nil || !events[1].Done {
			t.Fatalf("run %s stream = %+v, want 1 result + terminal", id, events)
		}
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("%d identical POSTs cost %d suite executions, want exactly 1", followers+1, n)
	}
}

// soloReport runs the counting suite locally for one spec and returns
// the report bytes, excluding the local execution from the server
// count.
func soloReport(t *testing.T, execs *atomic.Int64, seed uint64) []byte {
	t.Helper()
	var localExecs atomic.Int64
	release := make(chan struct{})
	close(release)
	factory := countingBlockingFactory(&localExecs, make(chan struct{}, 1), release)
	suite, err := factory(expt.DefaultFigProfile, seed)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := suite.Run(expt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCanceledLeaderFailover: canceling the leader of a coalesced
// flight promotes a follower, whose own retained suite re-executes —
// the follower still completes, with a report byte-identical to a solo
// run, at the cost of exactly one extra execution.
func TestCanceledLeaderFailover(t *testing.T) {
	t.Parallel()
	var execs atomic.Int64
	starts := make(chan struct{}, 16)
	release := make(chan struct{})
	// Budget 2 with jobs:1 runs: the canceled leader's parked
	// experiment keeps holding one worker token until release, and the
	// promoted follower needs the other one to start (jobs is excluded
	// from the digest, so the runs still coalesce).
	ts := newTestServer(t, Config{
		Factory: countingBlockingFactory(&execs, starts, release),
		Budget:  2, CacheSize: -1,
	})

	leader, _ := postRun(t, ts, `{"seed":9,"jobs":1}`)
	<-starts
	follower, _ := postRun(t, ts, `{"seed":9,"jobs":1}`)
	if !follower.Coalesced {
		t.Fatalf("second identical POST not coalesced: %+v", follower)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+leader.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The promoted follower's own suite must start executing.
	select {
	case <-starts:
	case <-time.After(5 * time.Second):
		t.Fatal("follower was never promoted to execute after leader cancellation")
	}
	close(release)

	final := waitDone(t, ts, follower.ID)
	if final.State != StateDone {
		t.Fatalf("promoted follower state = %s (err %q), want done", final.State, final.Error)
	}
	if final.Coalesced {
		t.Error("promoted follower still marked coalesced; it executed its own suite")
	}
	got, _ := getReport(t, ts, follower.ID)
	if want := soloReport(t, &execs, 9); !bytes.Equal(got, want) {
		t.Fatalf("failover report differs from solo run:\ngot:  %s\nwant: %s", got, want)
	}
	if st := getStatus(t, ts, leader.ID); st.State != StateCanceled {
		t.Errorf("canceled leader state = %s, want canceled", st.State)
	}
	if n := execs.Load(); n != 2 {
		t.Errorf("failover cost %d executions, want 2 (canceled leader + promoted follower)", n)
	}
}

// TestCanceledLeaderNoFollowers: with nobody to promote the flight
// dissolves, and the next identical POST starts a fresh execution
// instead of joining a dead flight.
func TestCanceledLeaderNoFollowers(t *testing.T) {
	t.Parallel()
	var execs atomic.Int64
	starts := make(chan struct{}, 16)
	release := make(chan struct{})
	close(release) // executions complete immediately once started
	ts := newTestServer(t, Config{
		Factory: countingBlockingFactory(&execs, starts, release),
		Budget:  1, CacheSize: -1,
	})

	st, _ := postRun(t, ts, `{"seed":4}`)
	waitDone(t, ts, st.ID)
	st2, resp := postRun(t, ts, `{"seed":4}`)
	if resp.StatusCode != http.StatusAccepted || st2.Coalesced {
		t.Fatalf("POST after finished flight: status=%d coalesced=%v, want a fresh 202 run",
			resp.StatusCode, st2.Coalesced)
	}
	if waitDone(t, ts, st2.ID).State != StateDone {
		t.Fatal("re-run after dissolved flight did not finish")
	}
	if n := execs.Load(); n != 2 {
		t.Fatalf("two sequential identical POSTs (no cache) cost %d executions, want 2", n)
	}
}

// TestQueueFullRejects is the backpressure contract: once the queue
// ahead of the worker pool is full, new work answers 429 with
// Retry-After — but identical POSTs still coalesce (free) and the
// rejection is observable in /metrics.
func TestQueueFullRejects(t *testing.T) {
	t.Parallel()
	var execs atomic.Int64
	starts := make(chan struct{}, 16)
	release := make(chan struct{})
	ts := newTestServer(t, Config{
		Factory: countingBlockingFactory(&execs, starts, release),
		Budget:  1, QueueSize: 1, CacheSize: -1,
	})

	first, _ := postRun(t, ts, `{"seed":1}`) // holds the only worker
	<-starts
	second, _ := postRun(t, ts, `{"seed":2}`) // fills the queue

	_, resp := postRun(t, ts, `{"seed":3}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("POST over capacity: status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After header")
	}

	// Saturation must not break coalescing: an identical POST joins the
	// running flight without needing a queue slot.
	co, resp := postRun(t, ts, `{"seed":1}`)
	if resp.StatusCode != http.StatusAccepted || !co.Coalesced {
		t.Fatalf("identical POST under saturation: status=%d coalesced=%v, want 202 coalesced",
			resp.StatusCode, co.Coalesced)
	}

	close(release)
	for _, id := range []string{first.ID, second.ID, co.ID} {
		if got := waitDone(t, ts, id); got.State != StateDone {
			t.Fatalf("run %s state = %s, want done", id, got.State)
		}
	}

	var m Metrics
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if m.Runs.RejectedQueue != 1 {
		t.Errorf("metrics rejectedQueue = %d, want 1", m.Runs.RejectedQueue)
	}
	if m.Runs.Coalesced != 1 {
		t.Errorf("metrics coalesced = %d, want 1", m.Runs.Coalesced)
	}
	if m.Queue.Capacity != 1 {
		t.Errorf("metrics queue capacity = %d, want 1", m.Queue.Capacity)
	}
}

// TestClientQuota: per-client in-flight activation budgets. A client
// at its quota answers 429 while other clients still admit; an
// unbudgeted run charges the whole quota; finishing releases it.
func TestClientQuota(t *testing.T) {
	t.Parallel()
	var execs atomic.Int64
	starts := make(chan struct{}, 16)
	release := make(chan struct{})
	ts := newTestServer(t, Config{
		Factory: countingBlockingFactory(&execs, starts, release),
		Budget:  4, CacheSize: -1, ClientQuota: 100,
	})

	a1, resp := postRunAs(t, ts, `{"seed":1,"maxActivations":60}`, "client-a")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("client-a first POST: status = %d, want 202", resp.StatusCode)
	}
	<-starts

	// 60 + 60 > 100: client-a is over budget while the first run lives.
	_, resp = postRunAs(t, ts, `{"seed":2,"maxActivations":60}`, "client-a")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("client-a over-quota POST: status = %d, want 429", resp.StatusCode)
	}
	// Quotas are per client: client-b has its own budget.
	b1, resp := postRunAs(t, ts, `{"seed":2,"maxActivations":60}`, "client-b")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("client-b POST: status = %d, want 202", resp.StatusCode)
	}
	// An unbudgeted run charges the full quota: client-c gets exactly
	// one in-flight execution.
	c1, resp := postRunAs(t, ts, `{"seed":3}`, "client-c")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("client-c unbudgeted POST: status = %d, want 202", resp.StatusCode)
	}
	_, resp = postRunAs(t, ts, `{"seed":4}`, "client-c")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("client-c second unbudgeted POST: status = %d, want 429", resp.StatusCode)
	}

	close(release)
	for _, id := range []string{a1.ID, b1.ID, c1.ID} {
		waitDone(t, ts, id)
	}
	// Finished executions release their charges.
	a2, resp := postRunAs(t, ts, `{"seed":5,"maxActivations":60}`, "client-a")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("client-a POST after release: status = %d, want 202", resp.StatusCode)
	}
	waitDone(t, ts, a2.ID)
}

// TestOversizedBodyRejected: request bodies are bounded, so one
// multi-GB POST cannot grow the decoder without limit — it answers
// 413 instead.
func TestOversizedBodyRejected(t *testing.T) {
	t.Parallel()
	ts := newTestServer(t, Config{Factory: testFactory})

	huge := `{"profile":"` + strings.Repeat("a", maxRequestBody+1024) + `"}`
	for _, path := range []string{"/runs", "/campaigns"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		var e apiError
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("POST %s: error body not JSON: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s oversized body: status = %d, want 413", path, resp.StatusCode)
		}
		if e.Error == "" {
			t.Errorf("POST %s: empty 413 error message", path)
		}
	}

	// A body under the cap still decodes strictly: an unknown field is
	// a 400 validation error, not a size rejection.
	small := `{"bogusField":true}`
	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(small))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("small invalid body: status = %d, want 400", resp.StatusCode)
	}
}

// TestMetricsEndpoint walks one cold run and one LRU hit through
// GET /metrics and checks every section reports them.
func TestMetricsEndpoint(t *testing.T) {
	t.Parallel()
	ts := newTestServer(t, Config{Factory: testFactory, Budget: 2})

	st, _ := postRun(t, ts, `{"only":["gamma"],"seed":8}`)
	if got := waitDone(t, ts, st.ID); got.State != StateDone {
		t.Fatalf("run state = %s, want done", got.State)
	}
	if st2, resp := postRun(t, ts, `{"only":["gamma"],"seed":8}`); resp.StatusCode != http.StatusOK || !st2.Cached {
		t.Fatalf("second POST not an LRU hit (status %d)", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d, want 200", resp.StatusCode)
	}
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Runs.Admitted != 2 || m.Runs.Executed != 1 || m.Runs.Done != 1 {
		t.Errorf("runs = %+v, want admitted=2 executed=1 done=1", m.Runs)
	}
	if m.Cache.LRUHits != 1 || m.Cache.Entries != 1 {
		t.Errorf("cache = %+v, want 1 LRU hit and 1 entry", m.Cache)
	}
	if m.Cache.HitRate != 0.5 {
		t.Errorf("hit rate = %v, want 0.5 (1 of 2 admissions served free)", m.Cache.HitRate)
	}
	if m.Latency.Count != 1 || m.Latency.P50Ms <= 0 || m.Latency.P99Ms < m.Latency.P50Ms {
		t.Errorf("latency = %+v, want one observation with sane percentiles", m.Latency)
	}
	if m.Queue.Workers != 2 || m.Queue.Capacity != defaultMaxQueue {
		t.Errorf("queue = %+v, want workers=2 capacity=%d", m.Queue, defaultMaxQueue)
	}
}

// TestShutdownDrains: Shutdown cancels in-flight runs, refuses new
// admissions with 503, waits for execution goroutines, and leaves no
// partial report in the persistent store — the graceful-exit contract
// cmd/dramscoped relies on at SIGTERM.
func TestShutdownDrains(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	starts := make(chan struct{}, 16)
	release := make(chan struct{})
	h := New(Config{
		Factory: countingBlockingFactory(&execs, starts, release),
		Budget:  1, CacheSize: -1, Store: st1,
	})
	ts := httptest.NewServer(h)
	t.Cleanup(func() { drain(t, h, ts) })

	running, _ := postRun(t, ts, `{"seed":7}`)
	<-starts // mid-run: the experiment is executing and parked

	shutErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shutErr <- h.Shutdown(ctx) }()

	// While draining, new work is refused.
	deadline := time.After(5 * time.Second)
	for {
		_, resp := postRun(t, ts, `{"seed":8}`)
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		select {
		case <-deadline:
			t.Fatal("POST during drain never answered 503")
		case <-time.After(5 * time.Millisecond):
		}
	}

	close(release) // let the parked experiment return so the drain completes
	if err := <-shutErr; err != nil {
		t.Fatalf("Shutdown returned %v, want clean drain", err)
	}
	if got := getStatus(t, ts, running.ID); got.State != StateCanceled {
		t.Errorf("in-flight run after Shutdown = %s, want canceled", got.State)
	}

	// The canceled run must not have written a report: a fresh server on
	// the same store directory gets a miss and executes again.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	release2 := make(chan struct{})
	close(release2)
	h2 := New(Config{
		Factory: countingBlockingFactory(&execs, make(chan struct{}, 16), release2),
		Budget:  1, CacheSize: -1, Store: st2,
	})
	ts2 := httptest.NewServer(h2)
	t.Cleanup(func() { drain(t, h2, ts2) })
	re, resp := postRun(t, ts2, `{"seed":7}`)
	if resp.StatusCode != http.StatusAccepted || re.Cached {
		t.Fatalf("rerun after shutdown: status=%d cached=%v — a partial report leaked into the store",
			resp.StatusCode, re.Cached)
	}
	if got := waitDone(t, ts2, re.ID); got.State != StateDone {
		t.Fatalf("rerun state = %s, want done", got.State)
	}
}

// TestCampaignQueueReservation: campaign admission is all-or-nothing
// against the bounded queue — a campaign that cannot fit entirely
// answers 429 and admits nothing.
func TestCampaignQueueReservation(t *testing.T) {
	t.Parallel()
	var execs atomic.Int64
	starts := make(chan struct{}, 16)
	release := make(chan struct{})
	close(release)
	ts := newTestServer(t, Config{
		Factory: countingBlockingFactory(&execs, starts, release),
		Budget:  1, QueueSize: 1, CacheSize: -1,
	})

	// Queue + workers hold 2; a 3-member campaign cannot fit.
	body := `{"specs":[{"seed":11},{"seed":12},{"seed":13}]}`
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized campaign: status = %d, want 429", resp.StatusCode)
	}
	if got := execs.Load(); got != 0 {
		t.Fatalf("rejected campaign still executed %d suites", got)
	}

	// A 2-member campaign fits exactly.
	body = `{"specs":[{"seed":11},{"seed":12}]}`
	resp, err = http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var cs CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fitting campaign: status = %d, want 202", resp.StatusCode)
	}
	waitCampaignDone(t, ts, cs.ID)
}

// TestCampaignOversizedRejectedBeforeResolve: a campaign the queue
// cannot hold is refused by its member count — 429 and one queue
// rejection, with no member resolved (no suite built) — for explicit
// specs and for a profile glob crossed with seeds alike, while a
// campaign of exactly the capacity still admits and resolves each of
// its members once.
func TestCampaignOversizedRejectedBeforeResolve(t *testing.T) {
	t.Parallel()
	var execs, builds atomic.Int64
	release := make(chan struct{})
	close(release)
	inner := countingBlockingFactory(&execs, make(chan struct{}, 16), release)
	ts := newTestServer(t, Config{
		Factory: func(profile string, seed uint64) (*expt.Suite, error) {
			builds.Add(1)
			return inner(profile, seed)
		},
		Budget: 1, QueueSize: 1, CacheSize: -1,
	})

	// Queue + workers hold 2.
	for _, body := range []string{
		`{"specs":[{"seed":11},{"seed":12},{"seed":13}]}`,
		`{"profiles":"all","seeds":[1,2,3,4,5,6,7,8]}`,
	} {
		_, resp := postCampaign(t, ts, body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("oversized campaign %s: status = %d, want 429", body, resp.StatusCode)
		}
		if got := builds.Load(); got != 0 {
			t.Fatalf("oversized campaign %s resolved %d members before its 429", body, got)
		}
	}

	cs, resp := postCampaign(t, ts, `{"specs":[{"seed":11},{"seed":12}]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("campaign of exactly the capacity: status = %d, want 202", resp.StatusCode)
	}
	if got := waitCampaignDone(t, ts, cs.ID); got.State != StateDone {
		t.Fatalf("fitting campaign state = %s, want done", got.State)
	}
	if got := builds.Load(); got != 2 {
		t.Fatalf("fitting campaign resolved %d members, want 2", got)
	}

	var m Metrics
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Runs.RejectedQueue != 2 {
		t.Errorf("metrics rejectedQueue = %d, want 2", m.Runs.RejectedQueue)
	}
}

// waitCampaignDone polls a campaign until it leaves "running".
func waitCampaignDone(t *testing.T, ts *httptest.Server, id string) CampaignStatus {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var cs CampaignStatus
		if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if cs.State != StateRunning {
			return cs
		}
		select {
		case <-deadline:
			t.Fatalf("campaign %s never finished", id)
		case <-time.After(10 * time.Millisecond):
		}
	}
}
