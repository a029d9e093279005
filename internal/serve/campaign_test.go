package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dramscope/internal/expt"
	"dramscope/internal/store"
	"dramscope/internal/topo"
)

func postCampaign(t *testing.T, ts *httptest.Server, body string) (CampaignStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode POST /campaigns response: %v", err)
	}
	return st, resp
}

// campaignStreamEvents reads the campaign NDJSON stream to completion.
func campaignStreamEvents(t *testing.T, ts *httptest.Server, id string) []CampaignStreamEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/campaigns/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("campaign stream Content-Type = %q", ct)
	}
	var events []CampaignStreamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev CampaignStreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad campaign NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

func getCampaignStatus(t *testing.T, ts *httptest.Server, id string) CampaignStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st CampaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

const testCampaignBody = `{"specs":[{"seed":21},{"seed":22},{"seed":21,"only":["gamma"]}]}`

// TestCampaignLifecycle is the campaign surface end to end: admission,
// in-order streaming, per-run reports byte-identical to solo runs, and
// an aggregate byte-identical to the CLI path
// (expt.Campaign.Run with the same specs).
func TestCampaignLifecycle(t *testing.T) {
	t.Parallel()
	ts := newTestServer(t, Config{Factory: testFactory})

	st, resp := postCampaign(t, ts, testCampaignBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /campaigns status = %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/campaigns/"+st.ID {
		t.Errorf("Location = %q, want /campaigns/%s", loc, st.ID)
	}
	if st.Total != 3 {
		t.Fatalf("campaign total = %d, want 3", st.Total)
	}

	events := campaignStreamEvents(t, ts, st.ID)
	if len(events) != 4 {
		t.Fatalf("campaign stream produced %d events, want 3 runs + terminal: %+v", len(events), events)
	}
	for i := 0; i < 3; i++ {
		ev := events[i]
		if ev.Index != i || ev.Run == nil || ev.Run.State != StateDone {
			t.Fatalf("stream event %d = %+v, want done run at index %d", i, ev, i)
		}
	}
	if term := events[3]; !term.Done || term.State != StateDone {
		t.Fatalf("terminal event = %+v", term)
	}

	// Per-run reports: each member is an ordinary run whose report is
	// byte-identical to a solo POST /runs of the same spec.
	soloBodies := []string{`{"seed":21}`, `{"seed":22}`, `{"seed":21,"only":["gamma"]}`}
	for i, ev := range events[:3] {
		member, code := getReport(t, ts, ev.Run.RunID)
		if code != http.StatusOK {
			t.Fatalf("member %d report status = %d", i, code)
		}
		solo, _ := postRun(t, ts, soloBodies[i])
		waitDone(t, ts, solo.ID)
		soloReport, code := getReport(t, ts, solo.ID)
		if code != http.StatusOK {
			t.Fatalf("solo %d report status = %d", i, code)
		}
		if !bytes.Equal(member, soloReport) {
			t.Fatalf("member %d report differs from its solo run", i)
		}
	}

	// The served aggregate must byte-match the CLI path.
	resp2, err := http.Get(ts.URL + "/campaigns/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	servedAgg, err := readAll(resp2)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET /campaigns/{id}/report status = %d: %s", resp2.StatusCode, servedAgg)
	}
	c := &expt.Campaign{Specs: []expt.RunSpec{
		{Profile: expt.DefaultFigProfile, Seed: 21},
		{Profile: expt.DefaultFigProfile, Seed: 22},
		{Profile: expt.DefaultFigProfile, Seed: 21, Only: []string{"gamma"}},
	}}
	localRep, err := c.Run(expt.CampaignOptions{Factory: testFactory})
	if err != nil {
		t.Fatal(err)
	}
	localAgg, err := localRep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(servedAgg, localAgg) {
		t.Fatalf("served aggregate differs from the CLI path:\nserved: %s\nlocal:  %s", servedAgg, localAgg)
	}

	// The status embeds the aggregate once done.
	full := getCampaignStatus(t, ts, st.ID)
	if full.State != StateDone || len(full.Report) == 0 {
		t.Fatalf("campaign status after completion = %+v", full)
	}
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// TestCampaignWarmFromCacheAndStore: the second identical campaign is
// answered member-by-member from the result cache (and, across a
// server restart, from the persistent store) with a byte-identical
// aggregate — warm campaigns skip straight to aggregation.
func TestCampaignWarmFromCacheAndStore(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := newTestServer(t, Config{Factory: testFactory, Store: st1})

	cold, _ := postCampaign(t, ts1, testCampaignBody)
	campaignStreamEvents(t, ts1, cold.ID)
	resp, err := http.Get(ts1.URL + "/campaigns/" + cold.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	coldAgg, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}

	// Same server: LRU hits.
	warm, _ := postCampaign(t, ts1, testCampaignBody)
	campaignStreamEvents(t, ts1, warm.ID)
	warmSt := getCampaignStatus(t, ts1, warm.ID)
	for _, run := range warmSt.Runs {
		if !run.Cached {
			t.Fatalf("warm campaign member %d not served from cache: %+v", run.Index, run)
		}
	}
	resp, err = http.Get(ts1.URL + "/campaigns/" + warm.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	warmAgg, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldAgg, warmAgg) {
		t.Fatal("warm aggregate differs from cold")
	}

	// Restarted server, same store directory: store hits.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := newTestServer(t, Config{Factory: testFactory, Store: st2})
	restarted, _ := postCampaign(t, ts2, testCampaignBody)
	campaignStreamEvents(t, ts2, restarted.ID)
	restartedSt := getCampaignStatus(t, ts2, restarted.ID)
	for _, run := range restartedSt.Runs {
		if !run.Cached {
			t.Fatalf("restarted campaign member %d not served from the store: %+v", run.Index, run)
		}
	}
	resp, err = http.Get(ts2.URL + "/campaigns/" + restarted.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	restartedAgg, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldAgg, restartedAgg) {
		t.Fatal("restarted aggregate differs from cold")
	}
}

// TestCampaignMembersPinnedFromRetention: a tiny retention cap must
// not evict a live campaign's member runs — a warm campaign's members
// are terminal the instant they are admitted, and docs/api.md promises
// their reports stay fetchable while the campaign streams. After the
// campaign finishes, members return to normal retention.
func TestCampaignMembersPinnedFromRetention(t *testing.T) {
	t.Parallel()
	ts := newTestServer(t, Config{Factory: testFactory, Retain: 2, CacheSize: 64})

	// Warm the cache so every campaign member is admitted terminal.
	for _, body := range []string{`{"seed":21}`, `{"seed":22}`, `{"seed":21,"only":["gamma"]}`} {
		st, _ := postRun(t, ts, body)
		waitDone(t, ts, st.ID)
	}

	st, _ := postCampaign(t, ts, testCampaignBody)
	events := campaignStreamEvents(t, ts, st.ID)
	for _, ev := range events {
		if ev.Done {
			continue
		}
		if _, code := getReport(t, ts, ev.Run.RunID); code != http.StatusOK {
			t.Fatalf("member %s report status = %d; pinned members must survive retention", ev.Run.RunID, code)
		}
	}

	// A finished campaign keeps its members pinned while it is itself
	// queryable — even with more work churning retention.
	for seed := 30; seed < 34; seed++ {
		solo, _ := postRun(t, ts, fmt.Sprintf(`{"seed":%d}`, seed))
		waitDone(t, ts, solo.ID)
	}
	firstMember := getCampaignStatus(t, ts, st.ID).Runs[0].RunID
	if _, code := getReport(t, ts, firstMember); code != http.StatusOK {
		t.Fatalf("queryable campaign lost member %s: report status = %d", firstMember, code)
	}

	// Evicting the campaign itself (three newer terminal campaigns vs
	// retain=2) releases the pins: the member becomes an ordinary
	// evictable run.
	for seed := 40; seed < 43; seed++ {
		c, _ := postCampaign(t, ts, fmt.Sprintf(`{"specs":[{"seed":%d}]}`, seed))
		campaignStreamEvents(t, ts, c.ID)
	}
	resp, err := http.Get(ts.URL + "/campaigns/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("old campaign survived retention: status = %d", resp.StatusCode)
	}
	if _, code := getReport(t, ts, firstMember); code != http.StatusNotFound {
		t.Fatalf("evicted campaign's member still pinned: report status = %d, want 404", code)
	}
}

// TestCancelCampaign: DELETE /campaigns/{id} while a member blocks. The
// campaign turns canceled at once, its running member is canceled
// while a finished one keeps its state, the stream ends with one
// canceled terminal line after its filled prefix, /report and /trace
// answer 409 while running and /report after the cancel, a second
// DELETE keeps canceled, and releasing the block brings nothing back.
func TestCancelCampaign(t *testing.T) {
	t.Parallel()
	started := make(chan struct{})
	release := make(chan struct{})
	// Budget 2 with jobs:1 members: member 1 runs beside the blocked
	// member 0 instead of queuing behind it.
	ts := newTestServer(t, Config{Factory: blockingFactory(started, release), Budget: 2})

	st, _ := postCampaign(t, ts, `{"jobs":1,"specs":[{"only":["slow"]},{"only":["quick"]}]}`)
	<-started // member 0 blocks
	waitFor(t, "member 1 to finish", func() bool {
		return getCampaignStatus(t, ts, st.ID).Runs[1].State == StateDone
	})
	for _, path := range []string{"/report", "/trace"} {
		if code := getCode(t, ts, "/campaigns/"+st.ID+path); code != http.StatusConflict {
			t.Errorf("GET %s of a running campaign: status = %d, want 409", path, code)
		}
	}

	del := func() CampaignStatus {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/campaigns/"+st.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var got CampaignStatus
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := del(); got.State != StateCanceled {
		t.Fatalf("state after DELETE = %s, want canceled", got.State)
	}

	events := campaignStreamEvents(t, ts, st.ID)
	last := events[len(events)-1]
	if !last.Done || last.State != StateCanceled || last.Index != 2 {
		t.Fatalf("stream terminal = %+v, want done/state=canceled at index 2", last)
	}
	for i, ev := range events[:len(events)-1] {
		if ev.Done || ev.Index != i || ev.Run == nil {
			t.Fatalf("stream event %d = %+v, want member line %d (filled prefix, in order)", i, ev, i)
		}
	}
	members := getCampaignStatus(t, ts, st.ID).Runs
	if members[0].State != StateCanceled || members[1].State != StateDone {
		t.Fatalf("member states = %s, %s; want the running member canceled and the finished one done",
			members[0].State, members[1].State)
	}
	if code := getCode(t, ts, "/campaigns/"+st.ID+"/report"); code != http.StatusConflict {
		t.Errorf("GET /report of a canceled campaign: status = %d, want 409", code)
	}
	if got := del(); got.State != StateCanceled {
		t.Errorf("state after second DELETE = %s, want canceled", got.State)
	}

	// Let the blocked member's execution drain; its late finish must not
	// move the member or the campaign out of canceled.
	close(release)
	waitFor(t, "the canceled execution to drain", func() bool {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var m Metrics
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		return err == nil && m.Runs.Canceled == 1
	})
	final := getCampaignStatus(t, ts, st.ID)
	if final.State != StateCanceled || final.Runs[0].State != StateCanceled {
		t.Fatalf("after release: campaign %s, member 0 %s; want both canceled", final.State, final.Runs[0].State)
	}
	if code := getCode(t, ts, "/campaigns/"+st.ID+"/report"); code != http.StatusConflict {
		t.Errorf("GET /report after release: status = %d, want 409", code)
	}
}

// getCode GETs path and returns the status code.
func getCode(t *testing.T, ts *httptest.Server, path string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestCampaignValidation: bad member specs, bad globs, unknown fields,
// and unknown ids are rejected with the uniform error body.
func TestCampaignValidation(t *testing.T) {
	t.Parallel()
	ts := newTestServer(t, Config{Factory: testFactory})
	for _, tc := range []struct{ name, body string }{
		{"unknown experiment", `{"specs":[{"only":["fig99"]}]}`},
		{"bad glob", `{"profiles":"NoSuchChip-*"}`},
		{"malformed JSON", `{"specs":`},
		{"unknown field", `{"spec":[{}]}`},
	} {
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e apiError
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: error body not JSON: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e.Error == "" {
			t.Errorf("%s: status = %d error = %q, want 400 with message", tc.name, resp.StatusCode, e.Error)
		}
	}
	resp, err := http.Get(ts.URL + "/campaigns/c999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown campaign: status = %d, want 404", resp.StatusCode)
	}
}

// TestCampaignGlobExpansion: a profiles glob × seeds request expands
// against the catalog in order.
func TestCampaignGlobExpansion(t *testing.T) {
	t.Parallel()
	ts := newTestServer(t, Config{Factory: testFactory})
	st, resp := postCampaign(t, ts, `{"profiles":"MfrB-DDR4-x8-201?","seeds":[5,6],"only":["gamma"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /campaigns status = %d", resp.StatusCode)
	}
	names, err := expt.MatchProfiles("MfrB-DDR4-x8-201?")
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(names); st.Total != want {
		t.Fatalf("expanded %d runs, want %d", st.Total, want)
	}
	if st.Runs[0].Profile != names[0] || st.Runs[0].Seed != 5 || st.Runs[1].Seed != 6 {
		t.Fatalf("expansion order wrong: %+v", st.Runs[:2])
	}
	campaignStreamEvents(t, ts, st.ID)
}

// TestCampaignSharedFieldsFillSpecs: the request-level
// only/jobs/shards/maxActivations fill in whatever an explicit member
// spec left unset; a member's own value wins.
func TestCampaignSharedFieldsFillSpecs(t *testing.T) {
	t.Parallel()
	ts := newTestServer(t, Config{Factory: testFactory})
	st, resp := postCampaign(t, ts,
		`{"specs":[{"seed":31},{"seed":32,"only":["alpha"]}],"only":["gamma"],"maxActivations":500}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /campaigns status = %d", resp.StatusCode)
	}
	campaignStreamEvents(t, ts, st.ID)
	// Member 0 inherited only=["gamma"]; member 1 kept its own.
	m0 := getStatus(t, ts, st.Runs[0].RunID)
	if len(m0.Experiments) != 1 || m0.Experiments[0] != "gamma" || m0.MaxActivations != 500 {
		t.Fatalf("member 0 did not inherit shared fields: %+v", m0)
	}
	m1 := getStatus(t, ts, st.Runs[1].RunID)
	if len(m1.Experiments) != 1 || m1.Experiments[0] != "alpha" {
		t.Fatalf("member 1's own selection did not win: %+v", m1)
	}
}

// TestBudgetErrorKindServed: a run stopped by its activation budget is
// classified distinctly (errorKind "budget_exceeded"), unlike an
// ordinary experiment failure.
func TestBudgetErrorKindServed(t *testing.T) {
	t.Parallel()
	// A factory with a real (small) device chain, so the budget meter
	// has something to charge.
	factory := func(profile string, seed uint64) (*expt.Suite, error) {
		s := expt.NewSuite(seed)
		s.RegisterProfile(topo.Small())
		err := s.Register(expt.Experiment{
			Name: "probe", Title: "probe the small device",
			Needs: expt.Needs{Device: topo.Small().Name, Probe: expt.ProbeOrder},
			Run: func(j *expt.Job) error {
				_, err := j.Env().Order()
				return err
			},
		})
		if err != nil {
			return nil, err
		}
		return s, nil
	}
	ts := newTestServer(t, Config{Factory: factory})

	st, _ := postRun(t, ts, `{"maxActivations":1}`)
	final := waitDone(t, ts, st.ID)
	if final.State != StateFailed {
		t.Fatalf("budget-capped run state = %s, want failed", final.State)
	}
	if final.ErrorKind != ErrorKindBudget {
		t.Fatalf("errorKind = %q, want %q (error: %s)", final.ErrorKind, ErrorKindBudget, final.Error)
	}
	if !strings.Contains(final.Error, "activation budget exceeded") {
		t.Fatalf("error = %q, want a budget message", final.Error)
	}

	// An ordinary failure is not classified.
	ordinary := newTestServer(t, Config{Factory: func(profile string, seed uint64) (*expt.Suite, error) {
		s := expt.NewSuite(seed)
		if err := s.Register(expt.Experiment{
			Name: "boom",
			Run:  func(*expt.Job) error { return errBoom },
		}); err != nil {
			return nil, err
		}
		return s, nil
	}})
	st2, _ := postRun(t, ordinary, `{}`)
	final2 := waitDone(t, ordinary, st2.ID)
	if final2.State != StateFailed || final2.ErrorKind != "" {
		t.Fatalf("ordinary failure classified: %+v", final2)
	}

	// Budget-stopped runs are never cached: repeating the request runs
	// again.
	st3, resp := postRun(t, ts, `{"maxActivations":1}`)
	if resp.StatusCode != http.StatusAccepted || st3.Cached {
		t.Fatalf("budget-failed run was cached (status %d, cached %v)", resp.StatusCode, st3.Cached)
	}
	// And the cap is part of the identity: same request without the cap
	// is a different digest.
	if st.Digest == "" || st3.Digest != st.Digest {
		t.Fatalf("same capped request changed digest: %q vs %q", st.Digest, st3.Digest)
	}
	uncapped, _ := postRun(t, ts, `{}`)
	if uncapped.Digest == st.Digest {
		t.Fatal("maxActivations did not change the spec digest")
	}
}

var errBoom = errString("kaboom")

type errString string

func (e errString) Error() string { return string(e) }
