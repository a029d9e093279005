package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dramscope/internal/expt"
	"dramscope/internal/store"
)

// This file proves the federation contract of federate.go under fault
// injection: a federated campaign's aggregate and every per-member
// report are byte-identical to the single-process run for any node
// count, placement, failure pattern, and retry schedule — and the
// aggregate never duplicates or drops a member.

// newCoordinator builds a coordinator server with a cooldown long
// enough that a worker benched by a fault stays benched for the rest of
// the test.
func newCoordinator(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	if srv.mgr.fed != nil {
		srv.mgr.fed.cooldown = time.Minute
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { drain(t, srv, ts) })
	return srv, ts
}

// newWorker builds one worker node, returning the Server for in-package
// metric assertions alongside its HTTP endpoint.
func newWorker(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { drain(t, srv, ts) })
	return srv, ts
}

// faultyWorker fronts a real worker server with an injectable fault
// layer: it can sever connections mid-request, answer 5xx or 429, and
// add latency — all scoped to the /runs endpoints so the capacity probe
// (/metrics) still sees a live node and the faults land on dispatch
// itself. The backend underneath is a fully functional worker, so a
// request that is not selected for injection behaves exactly like a
// healthy node.
type faultyWorker struct {
	backend   *Server
	backendTS *httptest.Server
	proxy     *httputil.ReverseProxy
	ts        *httptest.Server

	mu         sync.Mutex
	fail5xx    int           // /runs requests to answer 500 (<0: all)
	busy429    int           // /runs requests to answer 429 (<0: all)
	drop       int           // /runs requests to sever mid-flight (<0: all)
	delay      time.Duration // added to every request
	statusGets int           // GET /runs/{id} requests seen
}

func newFaultyWorker(t *testing.T, cfg Config) *faultyWorker {
	t.Helper()
	fw := &faultyWorker{backend: New(cfg)}
	fw.backendTS = httptest.NewServer(fw.backend)
	t.Cleanup(func() { drain(t, fw.backend, fw.backendTS) })
	u, err := url.Parse(fw.backendTS.URL)
	if err != nil {
		t.Fatal(err)
	}
	fw.proxy = httputil.NewSingleHostReverseProxy(u)
	fw.ts = httptest.NewServer(http.HandlerFunc(fw.serveHTTP))
	t.Cleanup(fw.ts.Close)
	return fw
}

func (fw *faultyWorker) set(f func(*faultyWorker)) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	f(fw)
}

func take(n *int) bool {
	if *n == 0 {
		return false
	}
	if *n > 0 {
		*n--
	}
	return true
}

func (fw *faultyWorker) serveHTTP(w http.ResponseWriter, r *http.Request) {
	mode := ""
	fw.mu.Lock()
	delay := fw.delay
	if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/runs/") && strings.Count(r.URL.Path, "/") == 2 {
		fw.statusGets++
	}
	if strings.HasPrefix(r.URL.Path, "/runs") {
		switch {
		case take(&fw.drop):
			mode = "drop"
		case take(&fw.fail5xx):
			mode = "500"
		case take(&fw.busy429):
			mode = "429"
		}
	}
	fw.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	switch mode {
	case "drop":
		// Sever the connection with no response at all, like a worker
		// crashing mid-request.
		panic(http.ErrAbortHandler)
	case "500":
		http.Error(w, `{"error":"injected worker fault"}`, http.StatusInternalServerError)
	case "429":
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"injected backpressure"}`, http.StatusTooManyRequests)
	default:
		fw.proxy.ServeHTTP(w, r)
	}
}

// localCampaign runs the reference single-process campaign over the
// given seeds at the default profile and returns the aggregate bytes
// plus every member report — the "want" side of every byte-identity
// assertion here.
func localCampaign(t *testing.T, factory SuiteFactory, seeds []uint64) ([]byte, [][]byte) {
	t.Helper()
	c := &expt.Campaign{}
	for _, s := range seeds {
		c.Specs = append(c.Specs, expt.RunSpec{Profile: expt.DefaultFigProfile, Seed: s})
	}
	members := make([][]byte, len(seeds))
	rep, err := c.Run(expt.CampaignOptions{Factory: factory, OnRun: func(i, total int, res *expt.CampaignRunResult) {
		members[i] = res.Report
	}})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return agg, members
}

func seedSpecsBody(seeds []uint64) string {
	parts := make([]string, len(seeds))
	for i, s := range seeds {
		parts[i] = fmt.Sprintf(`{"seed":%d}`, s)
	}
	return `{"specs":[` + strings.Join(parts, ",") + `]}`
}

func fedCampaignReport(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/campaigns/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	data, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /campaigns/%s/report status = %d: %s", id, resp.StatusCode, data)
	}
	return data
}

// assertCampaignStream asserts the no-duplicate/no-missing-member
// contract: exactly one stream line per member, strictly in campaign
// order, then the terminal line.
func assertCampaignStream(t *testing.T, events []CampaignStreamEvent, total int) {
	t.Helper()
	if len(events) != total+1 {
		t.Fatalf("campaign stream produced %d events, want %d members + terminal: %+v", len(events), total, events)
	}
	for i := 0; i < total; i++ {
		if ev := events[i]; ev.Index != i || ev.Run == nil {
			t.Fatalf("stream event %d = %+v, want member at index %d exactly once", i, ev, i)
		}
	}
	if term := events[total]; !term.Done {
		t.Fatalf("terminal event = %+v", term)
	}
}

// assertFederatedCampaign runs one campaign on a coordinator and
// asserts the full byte-identity contract against the local reference:
// campaign done, stream complete, aggregate and every member report
// byte-identical.
func assertFederatedCampaign(t *testing.T, ts *httptest.Server, seeds []uint64, wantAgg []byte, wantMembers [][]byte) {
	t.Helper()
	cs, resp := postCampaign(t, ts, seedSpecsBody(seeds))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /campaigns status = %d", resp.StatusCode)
	}
	events := campaignStreamEvents(t, ts, cs.ID)
	assertCampaignStream(t, events, len(seeds))
	final := getCampaignStatus(t, ts, cs.ID)
	if final.State != StateDone {
		t.Fatalf("campaign state = %s (err %q), want done", final.State, final.Error)
	}
	if got := fedCampaignReport(t, ts, cs.ID); !bytes.Equal(got, wantAgg) {
		t.Fatalf("federated aggregate differs from the single-process run:\ngot:  %s\nwant: %s", got, wantAgg)
	}
	for i, ri := range final.Runs {
		got, code := getReport(t, ts, ri.RunID)
		if code != http.StatusOK {
			t.Fatalf("member %d report status = %d", i, code)
		}
		if !bytes.Equal(got, wantMembers[i]) {
			t.Fatalf("member %d report differs from its solo run:\ngot:  %s\nwant: %s", i, got, wantMembers[i])
		}
	}
}

// TestFederatedCampaignShardsMembers: a coordinator with two healthy
// workers shards a campaign across them, executes nothing locally, and
// reproduces the single-process bytes — for campaign members and for a
// federated solo run alike.
func TestFederatedCampaignShardsMembers(t *testing.T) {
	t.Parallel()
	w1, w1ts := newWorker(t, Config{Factory: testFactory})
	w2, w2ts := newWorker(t, Config{Factory: testFactory})
	srv, ts := newCoordinator(t, Config{
		Factory: testFactory,
		Workers: []string{w1ts.URL, w2ts.URL},
	})

	seeds := []uint64{31, 32, 33, 34}
	wantAgg, wantMembers := localCampaign(t, testFactory, seeds)
	assertFederatedCampaign(t, ts, seeds, wantAgg, wantMembers)

	// A solo run federates through the same dispatcher.
	solo, resp := postRun(t, ts, `{"seed":35}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("solo POST status = %d", resp.StatusCode)
	}
	if st := waitDone(t, ts, solo.ID); st.State != StateDone {
		t.Fatalf("solo run state = %s", st.State)
	}
	got, _ := getReport(t, ts, solo.ID)
	suite, err := testFactory(expt.DefaultFigProfile, 35)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := suite.Run(expt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("federated solo run differs from a local suite run")
	}

	// All five executions happened on workers, none on the coordinator.
	if n := srv.mgr.metrics.executed.Load(); n != 0 {
		t.Errorf("coordinator executed %d runs locally, want 0", n)
	}
	if n := w1.mgr.metrics.executed.Load() + w2.mgr.metrics.executed.Load(); n != 5 {
		t.Errorf("workers executed %d runs, want 5", n)
	}
	fs := srv.mgr.fed.Snapshot()
	if fs.RemoteDone != 5 || fs.FallbackLocal != 0 || fs.Retried != 0 {
		t.Errorf("federation metrics = %+v, want 5 remoteDone and no retries/fallbacks", fs)
	}
}

// TestFederatedFaultInjection: a faulty worker — dropping connections,
// answering 5xx or 429, or delaying — never corrupts a campaign: the
// affected members are re-dispatched to the healthy node and the
// result stays byte-identical, with the aggregate never duplicating or
// missing a member.
func TestFederatedFaultInjection(t *testing.T) {
	t.Parallel()
	seeds := []uint64{41, 42}
	wantAgg, wantMembers := localCampaign(t, testFactory, seeds)

	cases := []struct {
		name        string
		inject      func(*faultyWorker)
		wantRetried bool // the injected fault must surface as a re-dispatch
	}{
		{"fail500", func(fw *faultyWorker) { fw.fail5xx = -1 }, true},
		{"drop", func(fw *faultyWorker) { fw.drop = -1 }, true},
		{"busy429", func(fw *faultyWorker) { fw.busy429 = -1 }, false},
		{"delay", func(fw *faultyWorker) { fw.delay = 25 * time.Millisecond }, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			fw := newFaultyWorker(t, Config{Factory: testFactory})
			fw.set(tc.inject)
			healthy, healthyTS := newWorker(t, Config{Factory: testFactory})
			// The faulty node is listed first so default placement
			// offers it every member before the healthy node.
			srv, ts := newCoordinator(t, Config{
				Factory: testFactory,
				Workers: []string{fw.ts.URL, healthyTS.URL},
			})

			assertFederatedCampaign(t, ts, seeds, wantAgg, wantMembers)

			fs := srv.mgr.fed.Snapshot()
			if fs.RemoteDone != int64(len(seeds)) {
				t.Errorf("remoteDone = %d, want %d", fs.RemoteDone, len(seeds))
			}
			if tc.wantRetried && fs.Retried == 0 {
				t.Errorf("federation metrics = %+v, want at least one retry after the injected fault", fs)
			}
			if !tc.wantRetried && fs.Retried != 0 {
				t.Errorf("federation metrics = %+v, want no retries (fault mode %q is not a worker fault)", fs, tc.name)
			}
			if tc.name == "delay" {
				return // the slow node still executes; split is timing-dependent
			}
			// Hard-faulted members must all have landed on the healthy
			// node, exactly once each.
			if n := healthy.mgr.metrics.executed.Load(); n != int64(len(seeds)) {
				t.Errorf("healthy worker executed %d members, want %d", n, len(seeds))
			}
		})
	}
}

// TestFederatedOneWaitPerMember: the coordinator learns a member
// finished from one long poll, not a polling loop. Members park on the
// worker until every member's wait is in flight and then some, and
// each still costs exactly one GET /runs/{id}, besides its report and
// trace fetches; the campaign keeps its single-process bytes.
func TestFederatedOneWaitPerMember(t *testing.T) {
	t.Parallel()
	released := make(chan struct{})
	close(released)
	release := make(chan struct{})
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	fw := newFaultyWorker(t, Config{Factory: blockingFactory(nil, release)})
	t.Cleanup(unpark)
	srv, ts := newCoordinator(t, Config{
		Factory: blockingFactory(nil, released),
		Workers: []string{fw.ts.URL},
	})
	statusGets := func() int {
		fw.mu.Lock()
		defer fw.mu.Unlock()
		return fw.statusGets
	}

	seeds := []uint64{71, 72}
	wantAgg, wantMembers := localCampaign(t, blockingFactory(nil, released), seeds)
	cs, resp := postCampaign(t, ts, seedSpecsBody(seeds))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /campaigns status = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for statusGets() < len(seeds) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d member waits reached the worker", statusGets(), len(seeds))
		}
		time.Sleep(time.Millisecond)
	}
	// Longer than any polling interval the dispatcher ever used.
	time.Sleep(250 * time.Millisecond)
	unpark()

	events := campaignStreamEvents(t, ts, cs.ID)
	assertCampaignStream(t, events, len(seeds))
	final := getCampaignStatus(t, ts, cs.ID)
	if final.State != StateDone {
		t.Fatalf("campaign state = %s (err %q), want done", final.State, final.Error)
	}
	if got := fedCampaignReport(t, ts, cs.ID); !bytes.Equal(got, wantAgg) {
		t.Fatalf("federated aggregate differs from the single-process run:\ngot:  %s\nwant: %s", got, wantAgg)
	}
	for i, ri := range final.Runs {
		if got, _ := getReport(t, ts, ri.RunID); !bytes.Equal(got, wantMembers[i]) {
			t.Fatalf("member %d report differs from its solo run", i)
		}
	}
	if n := statusGets(); n != len(seeds) {
		t.Errorf("worker saw %d GET /runs/{id} requests, want one per member (%d)", n, len(seeds))
	}
	if fs := srv.mgr.fed.Snapshot(); fs.RemoteDone != int64(len(seeds)) || fs.Retried != 0 || fs.FallbackLocal != 0 {
		t.Errorf("federation metrics = %+v, want %d remoteDone and no retries or fallbacks", fs, len(seeds))
	}
}

// TestFederatedKillMidMember kills a member on its worker while the
// suite is executing. The coordinator must treat the worker-side
// cancellation as a fault, re-dispatch the member to the other node,
// and still produce solo-run bytes.
func TestFederatedKillMidMember(t *testing.T) {
	t.Parallel()
	released := make(chan struct{})
	close(released)
	started := make(chan struct{})
	park := make(chan struct{})

	w1, w1ts := newWorker(t, Config{Factory: blockingFactory(started, park)})
	t.Cleanup(func() { close(park) }) // unpark w1's abandoned suite goroutine
	w2, w2ts := newWorker(t, Config{Factory: blockingFactory(nil, released)})
	srv, ts := newCoordinator(t, Config{
		Factory: blockingFactory(nil, released),
		Workers: []string{w1ts.URL, w2ts.URL},
	})

	st, resp := postRun(t, ts, `{"seed":11}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /runs status = %d", resp.StatusCode)
	}
	<-started // the member is executing on worker 1, parked

	runs := w1.mgr.Runs()
	if len(runs) != 1 {
		t.Fatalf("worker 1 holds %d runs, want 1", len(runs))
	}
	if _, ok := w1.mgr.Cancel(runs[0].id); !ok {
		t.Fatal("worker-side kill failed")
	}

	final := waitDone(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("run state after kill+retry = %s (err %q), want done", final.State, final.Error)
	}
	got, _ := getReport(t, ts, st.ID)
	suite, err := blockingFactory(nil, released)(expt.DefaultFigProfile, 11)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := suite.Run(expt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("re-dispatched member differs from a solo run")
	}

	fs := srv.mgr.fed.Snapshot()
	if fs.Dispatched != 2 || fs.Retried != 1 || fs.RemoteDone != 1 {
		t.Errorf("federation metrics = %+v, want dispatched=2 retried=1 remoteDone=1", fs)
	}
	if n := w2.mgr.metrics.executed.Load(); n != 1 {
		t.Errorf("worker 2 executed %d runs, want 1 (the retry)", n)
	}
}

// TestFederatedPromotedFollower: canceling the leader of a coalesced
// flight on a coordinator promotes its follower, and the follower's
// re-execution federates like every fresh execution — it is dispatched
// to the fleet, never run on the coordinator.
func TestFederatedPromotedFollower(t *testing.T) {
	t.Parallel()
	var workerExecs, coordExecs atomic.Int64
	starts := make(chan struct{}, 16)
	release := make(chan struct{})
	// Budget 2 with jobs:1 runs: the canceled leader's parked suite
	// keeps one worker token until release, and the promoted
	// follower's suite needs the other.
	_, wts := newWorker(t, Config{
		Factory: countingBlockingFactory(&workerExecs, starts, release),
		Budget:  2, CacheSize: -1,
	})
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	t.Cleanup(unpark) // runs before the worker drains
	srv, ts := newCoordinator(t, Config{
		Factory: countingBlockingFactory(&coordExecs, make(chan struct{}, 16), release),
		Workers: []string{wts.URL}, CacheSize: -1,
	})
	awaitStart := func(what string) {
		t.Helper()
		select {
		case <-starts:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never started executing on the worker", what)
		}
	}

	leader, resp := postRun(t, ts, `{"seed":9,"jobs":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("leader POST status = %d", resp.StatusCode)
	}
	awaitStart("the leader")
	follower, _ := postRun(t, ts, `{"seed":9,"jobs":1}`)
	if !follower.Coalesced {
		t.Fatalf("second identical POST not coalesced: %+v", follower)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+leader.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	awaitStart("the promoted follower")
	unpark()

	final := waitDone(t, ts, follower.ID)
	if final.State != StateDone {
		t.Fatalf("promoted follower state = %s (err %q), want done", final.State, final.Error)
	}
	got, _ := getReport(t, ts, follower.ID)
	if want := soloReport(t, &coordExecs, 9); !bytes.Equal(got, want) {
		t.Fatalf("promoted follower's report differs from a solo run:\ngot:  %s\nwant: %s", got, want)
	}
	if fs := srv.mgr.fed.Snapshot(); fs.Dispatched != 2 || fs.FallbackLocal != 0 {
		t.Errorf("federation metrics = %+v, want dispatched=2 (leader + promoted follower) and no fallback", fs)
	}
	if n := coordExecs.Load(); n != 0 {
		t.Errorf("coordinator ran %d suites, want 0: the promoted follower must federate", n)
	}
	if n := srv.mgr.metrics.executed.Load(); n != 0 {
		t.Errorf("coordinator metrics executed = %d, want 0", n)
	}
}

// TestFederatedDigestMismatch: a worker whose resolved suite diverges
// from the coordinator's (different experiments, hence a different
// canonical digest) is a fault, not a different answer — the member is
// re-dispatched to a node running the same code.
func TestFederatedDigestMismatch(t *testing.T) {
	t.Parallel()
	released := make(chan struct{})
	close(released)
	// Worker 1 runs a different suite: same profiles, different
	// experiment set, so its canonical digest can never match.
	_, w1ts := newWorker(t, Config{Factory: blockingFactory(nil, released)})
	w2, w2ts := newWorker(t, Config{Factory: testFactory})
	srv, ts := newCoordinator(t, Config{
		Factory: testFactory,
		Workers: []string{w1ts.URL, w2ts.URL},
	})

	st, resp := postRun(t, ts, `{"seed":13}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /runs status = %d", resp.StatusCode)
	}
	if final := waitDone(t, ts, st.ID); final.State != StateDone {
		t.Fatalf("run state = %s (err %q), want done", final.State, final.Error)
	}
	got, _ := getReport(t, ts, st.ID)
	suite, err := testFactory(expt.DefaultFigProfile, 13)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := suite.Run(expt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("report accepted from the wrong worker: digest gate failed")
	}
	fs := srv.mgr.fed.Snapshot()
	if fs.Retried != 1 {
		t.Errorf("federation metrics = %+v, want retried=1 for the digest mismatch", fs)
	}
	if n := w2.mgr.metrics.executed.Load(); n != 1 {
		t.Errorf("matching worker executed %d runs, want 1", n)
	}
}

// TestFederatedLocalFallback: a coordinator whose entire fleet is
// unreachable degrades to a plain dramscoped — every member executes
// locally, byte-identically, and the fallback is visible in /metrics.
func TestFederatedLocalFallback(t *testing.T) {
	t.Parallel()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from here on

	seeds := []uint64{51, 52}
	wantAgg, wantMembers := localCampaign(t, testFactory, seeds)
	srv, ts := newCoordinator(t, Config{
		Factory: testFactory,
		Workers: []string{deadURL},
	})

	assertFederatedCampaign(t, ts, seeds, wantAgg, wantMembers)

	fs := srv.mgr.fed.Snapshot()
	if fs.FallbackLocal != int64(len(seeds)) || fs.RemoteDone != 0 {
		t.Errorf("federation metrics = %+v, want every member falling back locally", fs)
	}
	if n := srv.mgr.metrics.executed.Load(); n != int64(len(seeds)) {
		t.Errorf("coordinator executed %d runs, want %d", n, len(seeds))
	}
}

// seededPick is a deterministic random placement for byte-identity
// sweeps: the same seed reproduces the same member-to-node schedule.
// Federator.pick is called with the federator's lock held, so the rand
// source needs no extra guarding.
func seededPick(seed int64) func([]*fedWorker) *fedWorker {
	rng := rand.New(rand.NewSource(seed))
	return func(eligible []*fedWorker) *fedWorker {
		return eligible[rng.Intn(len(eligible))]
	}
}

// TestFederatedPlacementInvariance: the same campaign federated over
// 1, 2, and 4 worker nodes under seeded-random placement produces the
// same bytes every time — placement can shift wall time, never a byte.
func TestFederatedPlacementInvariance(t *testing.T) {
	t.Parallel()
	seeds := []uint64{61, 62, 63, 64, 65, 66}
	wantAgg, wantMembers := localCampaign(t, testFactory, seeds)

	for _, nodes := range []int{1, 2, 4} {
		nodes := nodes
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			t.Parallel()
			urls := make([]string, nodes)
			for i := range urls {
				_, wts := newWorker(t, Config{Factory: testFactory})
				urls[i] = wts.URL
			}
			srv, ts := newCoordinator(t, Config{
				Factory: testFactory,
				Workers: urls,
			})
			srv.mgr.fed.pick = seededPick(int64(nodes)*7919 + 17)

			assertFederatedCampaign(t, ts, seeds, wantAgg, wantMembers)
			if n := srv.mgr.metrics.executed.Load(); n != 0 {
				t.Errorf("coordinator executed %d members locally, want 0", n)
			}
		})
	}
}

// fedGoldenCampaign mirrors the expt package's golden campaign
// population (internal/expt/golden_test.go): three catalog devices
// crossed with two seeds, recovery only. The expansion order of
// fedGoldenBody matches the nested loops here.
func fedGoldenCampaign() *expt.Campaign {
	profiles := []string{"MfrA-DDR4-x4-2016", "MfrB-DDR4-x4-2019", "MfrC-DDR4-x8-2016"}
	seeds := []uint64{5, 7}
	c := &expt.Campaign{}
	for _, prof := range profiles {
		for _, seed := range seeds {
			c.Specs = append(c.Specs, expt.RunSpec{Profile: prof, Seed: seed, Only: []string{"recover"}})
		}
	}
	return c
}

const fedGoldenBody = `{"profiles":"MfrA-DDR4-x4-2016,MfrB-DDR4-x4-2019,MfrC-DDR4-x8-2016","seeds":[5,7],"only":["recover"]}`

// TestFederatedCampaignBytes is the golden federation proof: the
// committed campaign fixture, reproduced byte-for-byte through 1, 2,
// and 4 worker nodes under seeded-random placement, with every member
// report matching the single-process run. All nodes share one store
// that the local reference run populates, so the whole test costs one
// cold golden campaign no matter the node count.
func TestFederatedCampaignBytes(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("federates six catalog-device recoveries (~1 min)")
	}
	if raceEnabled {
		t.Skip("golden bytes are covered without -race; the race lane runs the synthetic federation tests")
	}
	want, err := os.ReadFile("../expt/testdata/campaign_report.json")
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	// The single-process reference run, populating the shared store
	// every worker node mounts.
	memberWant := make([][]byte, 6)
	rep, err := fedGoldenCampaign().Run(expt.CampaignOptions{Store: st, OnRun: func(i, total int, res *expt.CampaignRunResult) {
		memberWant[i] = res.Report
	}})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(agg, want) {
		t.Fatal("local golden campaign diverges from testdata/campaign_report.json; regenerate with `make golden` if intentional")
	}

	for _, nodes := range []int{1, 2, 4} {
		nodes := nodes
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			urls := make([]string, nodes)
			workers := make([]*Server, nodes)
			for i := range urls {
				w, wts := newWorker(t, Config{Store: st})
				workers[i], urls[i] = w, wts.URL
			}
			// The coordinator itself has no store: every member must go
			// through the dispatcher.
			srv, ts := newCoordinator(t, Config{Workers: urls})
			srv.mgr.fed.pick = seededPick(int64(nodes)*7919 + 17)

			cs, resp := postCampaign(t, ts, fedGoldenBody)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("POST /campaigns status = %d", resp.StatusCode)
			}
			if cs.Total != 6 {
				t.Fatalf("campaign total = %d, want 6", cs.Total)
			}
			events := campaignStreamEvents(t, ts, cs.ID)
			assertCampaignStream(t, events, 6)
			final := getCampaignStatus(t, ts, cs.ID)
			if final.State != StateDone {
				t.Fatalf("campaign state = %s (err %q)", final.State, final.Error)
			}
			if got := fedCampaignReport(t, ts, cs.ID); !bytes.Equal(got, want) {
				t.Fatalf("federated aggregate over %d nodes diverges from the fixture", nodes)
			}
			for i, ri := range final.Runs {
				got, code := getReport(t, ts, ri.RunID)
				if code != http.StatusOK {
					t.Fatalf("member %d report status = %d", i, code)
				}
				if !bytes.Equal(got, memberWant[i]) {
					t.Fatalf("member %d report over %d nodes differs from the single-process run", i, nodes)
				}
			}
			if n := srv.mgr.metrics.executed.Load(); n != 0 {
				t.Errorf("coordinator executed %d members locally, want 0", n)
			}
			var storeHits int64
			for _, w := range workers {
				storeHits += w.mgr.metrics.storeHits.Load()
			}
			if storeHits != 6 {
				t.Errorf("workers answered %d members from the shared store, want 6", storeHits)
			}
			fs := srv.mgr.fed.Snapshot()
			if fs.RemoteDone != 6 || fs.FallbackLocal != 0 {
				t.Errorf("federation metrics = %+v, want 6 remoteDone, no fallback", fs)
			}
		})
	}
}

// TestFederatedShutdownReattach mirrors TestShutdownDrains for the
// coordinator: a drain mid-campaign abandons (not cancels) dispatched
// members, the worker finishes them into the shared store with no
// partial write visible before completion, and a restarted coordinator
// re-attaches to the finished work through the store without
// re-dispatching or re-executing anything.
func TestFederatedShutdownReattach(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	close(released)
	openFactory := blockingFactory(nil, released)

	started := make(chan struct{})
	release := make(chan struct{})
	_, wts := newWorker(t, Config{Factory: blockingFactory(started, release), Store: st})

	srv1, ts1 := newCoordinator(t, Config{Factory: openFactory, Store: st, Workers: []string{wts.URL}})
	cs, resp := postCampaign(t, ts1, `{"specs":[{"seed":9}]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /campaigns status = %d", resp.StatusCode)
	}
	<-started // the member is executing on the worker, parked

	// Drain the coordinator mid-campaign (what SIGTERM does in
	// cmd/dramscoped). The dispatched member is abandoned: the drain
	// returns while the worker still executes.
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv1.Shutdown(shutCtx); err != nil {
		t.Fatalf("coordinator drain: %v", err)
	}
	if final := getCampaignStatus(t, ts1, cs.ID); final.State != StateCanceled {
		t.Fatalf("drained campaign state = %s, want canceled", final.State)
	}

	// No partial store writes: the member has not completed anywhere,
	// so the shared store must not hold its report yet.
	seed := uint64(9)
	rs, _, err := resolveRequest(RunRequest{Seed: &seed}, openFactory)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.LoadReport(storeKey(rs)); ok {
		t.Fatal("store holds a report for a member that never completed")
	}

	// The abandoned worker-side run finishes on its own and persists
	// into the shared store.
	close(release)
	deadline := time.After(10 * time.Second)
	for {
		if _, ok := st.LoadReport(storeKey(rs)); ok {
			break
		}
		select {
		case <-deadline:
			t.Fatal("abandoned worker run never persisted its report")
		case <-time.After(5 * time.Millisecond):
		}
	}

	// A restarted coordinator on the same store re-attaches: the
	// re-posted campaign is answered from the store — nothing
	// dispatched, nothing executed, bytes identical to a local run.
	srv2, ts2 := newCoordinator(t, Config{Factory: openFactory, Store: st, Workers: []string{wts.URL}})
	cs2, resp := postCampaign(t, ts2, `{"specs":[{"seed":9}]}`)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("re-posted campaign status = %d", resp.StatusCode)
	}
	final := waitCampaignDone(t, ts2, cs2.ID)
	if final.State != StateDone {
		t.Fatalf("re-attached campaign state = %s (err %q)", final.State, final.Error)
	}
	if len(final.Runs) != 1 || !final.Runs[0].Cached {
		t.Fatalf("re-attached member = %+v, want a store hit", final.Runs)
	}
	got, _ := getReport(t, ts2, final.Runs[0].RunID)
	suite, err := openFactory(expt.DefaultFigProfile, 9)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := suite.Run(expt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("re-attached member report differs from a solo run")
	}
	wantAgg, _ := localCampaign(t, openFactory, []uint64{9})
	if agg := fedCampaignReport(t, ts2, cs2.ID); !bytes.Equal(agg, wantAgg) {
		t.Fatal("re-attached aggregate differs from the single-process run")
	}
	fs := srv2.mgr.fed.Snapshot()
	if fs.Dispatched != 0 {
		t.Errorf("re-attached coordinator dispatched %d members, want 0 (store hit)", fs.Dispatched)
	}
	if n := srv2.mgr.metrics.executed.Load(); n != 0 {
		t.Errorf("re-attached coordinator executed %d runs, want 0", n)
	}
}

// TestRetryAfterDerived pins the 429 Retry-After derivation: queue
// depth × recent p50 run latency ÷ worker-pool size, clamped to
// [1s, 300s], with an empty histogram defaulting to 1s.
func TestRetryAfterDerived(t *testing.T) {
	t.Parallel()
	m := NewManager(testFactory, 2, 0)

	if got := m.retryAfterSeconds(); got != 1 {
		t.Errorf("empty histogram: Retry-After = %d, want the 1s floor", got)
	}

	// Three 4s runs land in the 5000ms histogram bucket: p50 = 5000ms.
	for i := 0; i < 3; i++ {
		m.metrics.observeExecution(StateDone, 4*time.Second)
	}
	m.mu.Lock()
	m.outstanding = 6
	m.mu.Unlock()
	// ceil(6 members × 5000ms / 2 workers / 1000) = 15s.
	if got := m.retryAfterSeconds(); got != 15 {
		t.Errorf("Retry-After = %d, want 15 (6 outstanding × p50 5s / 2 workers)", got)
	}

	m.mu.Lock()
	m.outstanding = 1 << 20
	m.mu.Unlock()
	if got := m.retryAfterSeconds(); got != 300 {
		t.Errorf("Retry-After = %d, want the 300s ceiling", got)
	}
}
