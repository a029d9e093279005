package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dramscope/internal/expt"
)

// testFactory builds a tiny synthetic suite: two printf experiments
// plus a dependency pair, so handler tests run in microseconds. The
// suite's output depends on the seed so cache-key tests can tell
// reports apart.
func testFactory(profile string, seed uint64) (*expt.Suite, error) {
	s := expt.NewSuite(seed)
	reg := func(e expt.Experiment) {
		if err := s.Register(e); err != nil {
			panic(err)
		}
	}
	reg(expt.Experiment{
		Name:  "alpha",
		Title: "Alpha",
		Run: func(j *expt.Job) error {
			j.Printf("alpha seed=%d profile=%s\n", j.Seed(), profile)
			return nil
		},
	})
	reg(expt.Experiment{
		Name:  "beta",
		Title: "Beta",
		Needs: expt.Needs{After: []string{"alpha"}},
		Run: func(j *expt.Job) error {
			j.Printf("beta seed=%d\n", j.Seed())
			return nil
		},
	})
	reg(expt.Experiment{
		Name:  "gamma",
		Title: "Gamma",
		Run: func(j *expt.Job) error {
			j.Printf("gamma seed=%d\n", j.Seed())
			return nil
		},
	})
	return s, nil
}

// blockingFactory returns a factory whose first experiment parks on
// release until the test closes it — the lever for cancellation,
// ordering, and budget tests. started is closed when the blocking
// experiment begins executing.
func blockingFactory(started chan struct{}, release chan struct{}) SuiteFactory {
	return func(profile string, seed uint64) (*expt.Suite, error) {
		s := expt.NewSuite(seed)
		err := s.Register(expt.Experiment{
			Name:  "slow",
			Title: "Slow",
			Run: func(j *expt.Job) error {
				if started != nil {
					close(started)
					started = nil
				}
				<-release
				j.Printf("slow done\n")
				return nil
			},
		})
		if err != nil {
			return nil, err
		}
		err = s.Register(expt.Experiment{
			Name:  "quick",
			Title: "Quick",
			Run: func(j *expt.Job) error {
				j.Printf("quick done\n")
				return nil
			},
		})
		if err != nil {
			return nil, err
		}
		return s, nil
	}
}

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { drain(t, srv, ts) })
	return ts
}

// drain shuts a test server down the way cmd/dramscoped exits: the
// manager first — canceling whatever still runs and waiting for every
// execution goroutine, so none writes into a temp store the test is
// about to remove — then the HTTP listener.
func drain(t *testing.T, srv *Server, ts *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("drain test server: %v", err)
	}
	ts.Close()
}

func postRun(t *testing.T, ts *httptest.Server, body string) (RunStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode POST /runs response: %v", err)
	}
	return st, resp
}

func getStatus(t *testing.T, ts *httptest.Server, id string) RunStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode GET /runs/%s: %v", id, err)
	}
	return st
}

// streamEvents reads the NDJSON stream to completion and returns
// every event, terminal line included.
func streamEvents(t *testing.T, ts *httptest.Server, id string) []StreamEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/runs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q, want application/x-ndjson", ct)
	}
	var events []StreamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	return events
}

// waitDone blocks (via the stream) until the run leaves "running" and
// returns its final status.
func waitDone(t *testing.T, ts *httptest.Server, id string) RunStatus {
	t.Helper()
	streamEvents(t, ts, id)
	return getStatus(t, ts, id)
}

func getReport(t *testing.T, ts *httptest.Server, id string) ([]byte, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/runs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data, resp.StatusCode
}

func TestDiscoveryEndpoints(t *testing.T) {
	t.Parallel()
	ts := newTestServer(t, Config{}) // real DefaultSuite factory

	resp, err := http.Get(ts.URL + "/profiles")
	if err != nil {
		t.Fatal(err)
	}
	var profiles []ProfileInfo
	if err := json.NewDecoder(resp.Body).Decode(&profiles); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(profiles) == 0 {
		t.Fatal("GET /profiles returned no profiles")
	}
	foundDefault := false
	for _, p := range profiles {
		if p.Name == expt.DefaultFigProfile {
			foundDefault = true
			if !p.Default {
				t.Errorf("profile %s not marked default", p.Name)
			}
		}
	}
	if !foundDefault {
		t.Fatalf("GET /profiles missing default profile %s", expt.DefaultFigProfile)
	}

	resp, err = http.Get(ts.URL + "/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var exps []expt.ExperimentInfo
	if err := json.NewDecoder(resp.Body).Decode(&exps); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	suite, err := expt.DefaultSuite(expt.DefaultFigProfile, expt.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	want := suite.Names()
	if len(exps) != len(want) {
		t.Fatalf("GET /experiments returned %d entries, want %d", len(exps), len(want))
	}
	for i, e := range exps {
		if e.Name != want[i] {
			t.Fatalf("experiment %d = %q, want %q (registration order)", i, e.Name, want[i])
		}
	}
}

func TestRunLifecycleAndReportBytes(t *testing.T) {
	t.Parallel()
	ts := newTestServer(t, Config{Factory: testFactory})

	st, resp := postRun(t, ts, `{"only":["alpha","beta"],"seed":11}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /runs status = %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/runs/"+st.ID {
		t.Errorf("Location = %q, want /runs/%s", loc, st.ID)
	}
	if got, want := st.Experiments, []string{"alpha", "beta"}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("resolved selection = %v, want %v", got, want)
	}

	final := waitDone(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("final state = %s (err %q), want done", final.State, final.Error)
	}
	if final.Completed != 2 || final.Total != 2 {
		t.Errorf("completed/total = %d/%d, want 2/2", final.Completed, final.Total)
	}
	if len(final.Report) == 0 {
		t.Fatal("GET /runs/{id} has no embedded report after completion")
	}

	// The served report must be byte-identical to what a local run of
	// the same suite produces (the cmd/experiments -json contract).
	served, code := getReport(t, ts, st.ID)
	if code != http.StatusOK {
		t.Fatalf("GET /report status = %d, want 200", code)
	}
	local, err := testFactory(expt.DefaultFigProfile, 11)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := local.Run(expt.Options{Spec: expt.RunSpec{Only: []string{"alpha", "beta"}}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want) {
		t.Fatalf("served report differs from local run:\nserved: %s\nlocal:  %s", served, want)
	}
	// The copy embedded in GET /runs/{id} is re-indented by the status
	// envelope's encoder, so compare it structurally; /report above is
	// the byte-exact artifact.
	var a, b bytes.Buffer
	if err := json.Compact(&a, final.Report); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&b, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("embedded report differs from local run")
	}
}

func TestStreamOrderedByRegistration(t *testing.T) {
	t.Parallel()
	started := make(chan struct{})
	release := make(chan struct{})
	ts := newTestServer(t, Config{Factory: blockingFactory(started, release), Budget: 2})

	st, _ := postRun(t, ts, `{}`)
	<-started // "slow" (index 0) is executing; "quick" (index 1) free to finish

	// Wait until quick's result has landed out of order.
	deadline := time.After(5 * time.Second)
	for getStatus(t, ts, st.ID).Completed < 1 {
		select {
		case <-deadline:
			t.Fatal("quick never completed")
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(release)

	events := streamEvents(t, ts, st.ID)
	if len(events) != 3 {
		t.Fatalf("got %d stream events, want 3 (2 results + terminal): %+v", len(events), events)
	}
	for i := 0; i < 2; i++ {
		if events[i].Index != i {
			t.Errorf("event %d has index %d; stream must be in registration order", i, events[i].Index)
		}
		if events[i].Experiment == nil {
			t.Errorf("event %d missing experiment payload", i)
		}
	}
	if events[0].Experiment.Name != "slow" || events[1].Experiment.Name != "quick" {
		t.Errorf("stream order = %s, %s; want slow, quick", events[0].Experiment.Name, events[1].Experiment.Name)
	}
	if !events[2].Done || events[2].State != StateDone {
		t.Errorf("terminal event = %+v, want done/state=done", events[2])
	}
}

func TestResultCache(t *testing.T) {
	t.Parallel()
	ts := newTestServer(t, Config{Factory: testFactory})

	st1, resp1 := postRun(t, ts, `{"only":["gamma"],"seed":5}`)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first POST status = %d, want 202", resp1.StatusCode)
	}
	waitDone(t, ts, st1.ID)
	rep1, _ := getReport(t, ts, st1.ID)

	// Same canonical request (different jobs — excluded from the key).
	st2, resp2 := postRun(t, ts, `{"only":["gamma"],"seed":5,"jobs":3}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached POST status = %d, want 200", resp2.StatusCode)
	}
	if !st2.Cached {
		t.Fatal("second identical request not served from cache")
	}
	if st2.State != StateDone {
		t.Fatalf("cached run state = %s, want done", st2.State)
	}
	rep2, _ := getReport(t, ts, st2.ID)
	if !bytes.Equal(rep1, rep2) {
		t.Fatal("cached report differs from original")
	}
	// Cached runs stream too: replayed results plus terminal.
	events := streamEvents(t, ts, st2.ID)
	if len(events) != 2 || events[0].Experiment == nil || !events[1].Done {
		t.Fatalf("cached stream events = %+v, want 1 result + terminal", events)
	}

	// A different seed is a different key.
	st3, resp3 := postRun(t, ts, `{"only":["gamma"],"seed":6}`)
	if resp3.StatusCode != http.StatusAccepted || st3.Cached {
		t.Fatalf("different seed served from cache (status %d, cached %v)", resp3.StatusCode, st3.Cached)
	}
	waitDone(t, ts, st3.ID)
	rep3, _ := getReport(t, ts, st3.ID)
	if bytes.Equal(rep1, rep3) {
		t.Fatal("different seeds produced identical reports; suite seeding broken")
	}
}

func TestCacheKeyUsesSelectionClosure(t *testing.T) {
	t.Parallel()
	ts := newTestServer(t, Config{Factory: testFactory})

	// beta pulls in alpha transitively, so ["beta"] and
	// ["alpha","beta"] are the same canonical run.
	st1, _ := postRun(t, ts, `{"only":["beta"]}`)
	waitDone(t, ts, st1.ID)
	st2, resp := postRun(t, ts, `{"only":["alpha","beta"]}`)
	if resp.StatusCode != http.StatusOK || !st2.Cached {
		t.Fatalf("closure-equal selection missed the cache (status %d, cached %v)", resp.StatusCode, st2.Cached)
	}
}

func TestValidation(t *testing.T) {
	t.Parallel()
	ts := newTestServer(t, Config{}) // real factory: validates profiles

	cases := []struct {
		name string
		body string
	}{
		{"unknown profile", `{"profile":"NoSuchChip"}`},
		{"unknown experiment", `{"only":["fig99"]}`},
		{"malformed JSON", `{"only":`},
		{"unknown field", `{"experiments":["table1"]}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e apiError
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: error body not JSON: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
		if e.Error == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}

	resp, err := http.Get(ts.URL + "/runs/r999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown run: status = %d, want 404", resp.StatusCode)
	}
}

func TestCancelRun(t *testing.T) {
	t.Parallel()
	started := make(chan struct{})
	release := make(chan struct{})
	// Budget 1 forces "quick" to queue behind the parked "slow", so
	// cancellation must cut it off before it ever starts.
	ts := newTestServer(t, Config{Factory: blockingFactory(started, release), Budget: 1})

	st, _ := postRun(t, ts, `{}`)
	<-started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var canceled RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&canceled); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if canceled.State != StateCanceled {
		t.Fatalf("state after DELETE = %s, want canceled", canceled.State)
	}

	close(release) // let the parked experiment drain

	events := streamEvents(t, ts, st.ID)
	last := events[len(events)-1]
	if !last.Done || last.State != StateCanceled {
		t.Fatalf("stream terminal = %+v, want done/state=canceled", last)
	}

	if _, code := getReport(t, ts, st.ID); code != http.StatusConflict {
		t.Errorf("GET /report of canceled run: status = %d, want 409", code)
	}

	// DELETE is idempotent and terminal states stick.
	resp2, err := http.DefaultClient.Do(req.Clone(req.Context()))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := getStatus(t, ts, st.ID); got.State != StateCanceled {
		t.Errorf("state after second DELETE = %s, want canceled", got.State)
	}
}

func TestSharedWorkerBudget(t *testing.T) {
	t.Parallel()
	started := make(chan struct{})
	release := make(chan struct{})
	ts := newTestServer(t, Config{Factory: blockingFactory(started, release), Budget: 1})

	st1, _ := postRun(t, ts, `{"only":["slow"]}`)
	<-started

	// The second run needs a worker token the first one holds: it must
	// stay queued (running, zero progress) until the first finishes.
	st2, _ := postRun(t, ts, `{"only":["quick"]}`)
	time.Sleep(50 * time.Millisecond)
	if got := getStatus(t, ts, st2.ID); got.State != StateRunning || got.Completed != 0 {
		t.Fatalf("queued run state = %s completed=%d, want running/0 while budget is held", got.State, got.Completed)
	}

	close(release)
	if got := waitDone(t, ts, st1.ID); got.State != StateDone {
		t.Fatalf("first run state = %s, want done", got.State)
	}
	if got := waitDone(t, ts, st2.ID); got.State != StateDone {
		t.Fatalf("second run state = %s, want done", got.State)
	}
}

func TestReportConflictWhileRunning(t *testing.T) {
	t.Parallel()
	started := make(chan struct{})
	release := make(chan struct{})
	ts := newTestServer(t, Config{Factory: blockingFactory(started, release), Budget: 1})

	st, _ := postRun(t, ts, `{"only":["slow"]}`)
	<-started
	if _, code := getReport(t, ts, st.ID); code != http.StatusConflict {
		t.Errorf("GET /report while running: status = %d, want 409", code)
	}
	close(release)
	waitDone(t, ts, st.ID)
	if _, code := getReport(t, ts, st.ID); code != http.StatusOK {
		t.Errorf("GET /report after completion: status = %d, want 200", code)
	}
}

func TestFailedRunKeepsReport(t *testing.T) {
	t.Parallel()
	factory := func(profile string, seed uint64) (*expt.Suite, error) {
		s := expt.NewSuite(seed)
		if err := s.Register(expt.Experiment{
			Name: "boom",
			Run:  func(j *expt.Job) error { return fmt.Errorf("kaboom") },
		}); err != nil {
			return nil, err
		}
		return s, nil
	}
	ts := newTestServer(t, Config{Factory: factory})
	st, _ := postRun(t, ts, `{}`)
	final := waitDone(t, ts, st.ID)
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if final.Error == "" || !strings.Contains(final.Error, "kaboom") {
		t.Errorf("error = %q, want it to mention kaboom", final.Error)
	}
	// Like cmd/experiments -json, the report (with embedded errors) is
	// still served.
	data, code := getReport(t, ts, st.ID)
	if code != http.StatusOK {
		t.Fatalf("GET /report of failed run: status = %d, want 200", code)
	}
	if !strings.Contains(string(data), "kaboom") {
		t.Errorf("failed report does not embed the experiment error: %s", data)
	}
	// Failed runs are not cached.
	st2, resp := postRun(t, ts, `{}`)
	if resp.StatusCode != http.StatusAccepted || st2.Cached {
		t.Errorf("failed run was cached (status %d, cached %v)", resp.StatusCode, st2.Cached)
	}
}

func TestFinishedRunRetention(t *testing.T) {
	t.Parallel()
	// Retain 2 and disable the result cache so every request actually
	// runs (cache hits would mask the eviction path).
	ts := newTestServer(t, Config{Factory: testFactory, Retain: 2, CacheSize: -1})

	var ids []string
	for seed := 1; seed <= 3; seed++ {
		st, _ := postRun(t, ts, fmt.Sprintf(`{"only":["gamma"],"seed":%d}`, seed))
		waitDone(t, ts, st.ID)
		ids = append(ids, st.ID)
	}
	// Admitting a fourth run prunes the oldest finished one.
	st4, _ := postRun(t, ts, `{"only":["gamma"],"seed":4}`)
	waitDone(t, ts, st4.ID)

	resp, err := http.Get(ts.URL + "/runs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest finished run survived retention: status = %d, want 404", resp.StatusCode)
	}
	if got := getStatus(t, ts, ids[2]); got.State != StateDone {
		t.Errorf("recent run evicted early: %+v", got)
	}
}

func TestLRUCacheEviction(t *testing.T) {
	t.Parallel()
	c := newResultCache(2)
	for _, k := range []string{"a", "b", "c"} {
		c.add(&cacheEntry{key: k})
	}
	if c.len() != 2 {
		t.Fatalf("cache len = %d, want 2", c.len())
	}
	if _, ok := c.get("a"); ok {
		t.Error("oldest entry survived eviction")
	}
	if _, ok := c.get("b"); !ok {
		t.Error("entry b evicted early")
	}
	// b is now most recent; adding d evicts c.
	c.add(&cacheEntry{key: "d"})
	if _, ok := c.get("c"); ok {
		t.Error("LRU order ignored: c should have been evicted after b was touched")
	}
}
