package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"dramscope/internal/expt"
	"dramscope/internal/rng"
	"dramscope/internal/serve"
	"dramscope/internal/trace"
)

// spec is the wire form of one run request.
type spec struct {
	Profile string   `json:"profile"`
	Seed    uint64   `json:"seed"`
	Only    []string `json:"only"`
}

// recoverSpec is the i-th recovery request of a kind: the Table III
// recovery of a catalog device, rotating through the whole catalog, on a
// seed no earlier request used — so it always executes, never hits a
// cache. The federated campaigns are made of these.
func recoverSpec(b *bench, profiles []string, kind string, i int) spec {
	return spec{Profile: profiles[i%len(profiles)], Seed: b.opSeed(kind, i), Only: []string{"recover"}}
}

// client is a minimal dramscoped API client.
type client struct {
	base string
	http *http.Client
}

// do sends one request and returns the body of a response with the
// wanted status code; want 0 accepts any 2xx status.
func (c *client) do(method, path string, body interface{}, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if want == 0 && resp.StatusCode/100 != 2 || want != 0 && resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(data))
	}
	return data, nil
}

// await follows an NDJSON stream to its terminal line and returns the
// terminal state.
func (c *client) await(path string) (string, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var ev struct {
			Done  bool   `json:"done"`
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", fmt.Errorf("GET %s: %w", path, err)
		}
		if ev.Done {
			if ev.State != "done" {
				return ev.State, fmt.Errorf("%s ended %s: %s", path, ev.State, ev.Error)
			}
			return ev.State, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("GET %s: %w", path, err)
	}
	return "", fmt.Errorf("GET %s: stream ended without a terminal line", path)
}

// traceOf fetches a finished run's or campaign's span tree.
func (c *client) traceOf(path string) ([]trace.Record, error) {
	data, err := c.do("GET", path+"/trace", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	return trace.ParseNDJSON(bytes.NewReader(data))
}

func (c *client) metrics() (*serve.Metrics, error) {
	data, err := c.do("GET", "/metrics", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var m serve.Metrics
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return &m, nil
}

// node is one in-process dramscoped instance on a loopback listener.
type node struct {
	ts *httptest.Server
	c  *client
}

func startNode(cfg serve.Config) (*node, error) {
	ts := httptest.NewServer(serve.New(cfg))
	n := &node{ts: ts, c: &client{base: ts.URL, http: &http.Client{Timeout: 120 * time.Second}}}
	if _, err := n.c.do("GET", "/healthz", nil, http.StatusOK); err != nil {
		ts.Close()
		return nil, err
	}
	return n, nil
}

// solo runs a spec in-process, the reference a served report must match
// byte for byte.
func solo(sp spec) ([]byte, error) {
	rs, suite, err := expt.ResolveSpec(expt.RunSpec{Profile: sp.Profile, Seed: sp.Seed, Only: sp.Only}, expt.DefaultSuite)
	if err != nil {
		return nil, err
	}
	rep, err := suite.Run(expt.Options{Spec: rs.RunSpec})
	if err != nil {
		return nil, err
	}
	if err := rep.Err(); err != nil {
		return nil, err
	}
	return rep.JSON()
}

// campaign posts one campaign, follows its stream to the end and
// fetches the aggregate report.
func (c *client) campaign(specs []spec) (string, []byte, error) {
	data, err := c.do("POST", "/campaigns", map[string]interface{}{"specs": specs}, http.StatusAccepted)
	if err != nil {
		return "", nil, err
	}
	var st serve.CampaignStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return "", nil, fmt.Errorf("decode campaign status: %w", err)
	}
	if _, err := c.await("/campaigns/" + st.ID + "/stream"); err != nil {
		return "", nil, err
	}
	report, err := c.do("GET", "/campaigns/"+st.ID+"/report", nil, http.StatusOK)
	if err != nil {
		return "", nil, err
	}
	return st.ID, report, nil
}

// The serve-loadgen traffic is examples/loadgen's, the model behind the
// committed BENCH_serve.json: 16 closed-loop clients against a default
// in-process dramscoped. It opens with a coalesce burst — every client
// posts one identical never-seen spec at a barrier, so single-flight
// admission collapses the wave onto one execution — and then each
// request flips a coin between the shared hot spec and one of 32 cold
// seeds, all selecting Table I. After each digest's first execution the
// traffic is served from the result cache.
const (
	lgClients   = 16
	lgHot       = 0.7
	lgColdSeeds = 32
	lgSelection = "table1"
	lgBurstRun  = "defense"
)

// lgSpec is a loadgen request: a selection and a seed on the server's
// default profile, named explicitly so the in-process reference runs the
// same spec.
func lgSpec(seed uint64, selection string) spec {
	return spec{Profile: expt.DefaultFigProfile, Seed: seed, Only: []string{selection}}
}

// serveLoadgen is one dramscoped with the default configuration, as
// loadgen -selfhost boots it.
type serveLoadgen struct {
	b     *bench
	n     *node
	burst spec
	hot   spec
	cold  []spec

	gate      sync.WaitGroup // the burst barrier
	coalesced atomic.Int64
}

func setupLoadgen(b *bench) (deployment, error) {
	n, err := startNode(serve.Config{})
	if err != nil {
		return nil, err
	}
	d := &serveLoadgen{
		b:     b,
		n:     n,
		burst: lgSpec(b.opSeed("burst", 0), lgBurstRun),
		hot:   lgSpec(b.opSeed("hot", 0), lgSelection),
	}
	for k := 0; k < lgColdSeeds; k++ {
		d.cold = append(d.cold, lgSpec(b.opSeed("cold", k), lgSelection))
	}
	d.gate.Add(lgClients)
	// One untimed request finishes the server's lazy set-up.
	if _, _, err := d.request(lgSpec(setupSeed(0), lgSelection)); err != nil {
		n.ts.Close()
		return nil, err
	}
	return d, nil
}

// pick is the i-th request's spec. Every client's first request is part
// of the burst; the rest follow the hot/cold coin of index i.
func (d *serveLoadgen) pick(i int) spec {
	if i < lgClients {
		return d.burst
	}
	mix := rng.Split(d.b.seed, "serve-loadgen/mix")
	if rng.Uniform(mix, uint64(i)) < lgHot {
		return d.hot
	}
	return d.cold[rng.SplitN(mix, "cold", i)%lgColdSeeds]
}

// request posts one run and, like loadgen, polls an admitted run down to
// its terminal state; a cache hit is terminal at once. It returns the
// run ID and the POST's answer, which tells a cache hit, a coalesced
// follower and an execution apart.
func (d *serveLoadgen) request(sp spec) (string, *serve.RunStatus, error) {
	data, err := d.n.c.do("POST", "/runs", sp, 0)
	if err != nil {
		return "", nil, err
	}
	var admitted serve.RunStatus
	if err := json.Unmarshal(data, &admitted); err != nil {
		return "", nil, fmt.Errorf("decode run status: %w", err)
	}
	st := admitted
	for st.State == serve.StateRunning {
		time.Sleep(2 * time.Millisecond)
		if data, err = d.n.c.do("GET", "/runs/"+st.ID, nil, http.StatusOK); err != nil {
			return "", nil, err
		}
		if err := json.Unmarshal(data, &st); err != nil {
			return "", nil, fmt.Errorf("decode run status: %w", err)
		}
	}
	if st.State != serve.StateDone {
		return "", nil, fmt.Errorf("run %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return st.ID, &admitted, nil
}

func (d *serveLoadgen) op(i int) (*opRecord, error) {
	sp := d.pick(i)
	if i < lgClients {
		d.gate.Done()
		d.gate.Wait()
	}
	start := time.Now()
	id, admitted, err := d.request(sp)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	if admitted.Coalesced {
		d.coalesced.Add(1)
	}
	op := &opRecord{start: start, end: end}
	if d.b.traced && !admitted.Cached && !admitted.Coalesced {
		if op.recs, err = d.n.c.traceOf("/runs/" + id); err != nil {
			return nil, err
		}
	}
	return op, nil
}

// report posts a spec (a cache hit once it has run) and fetches the
// served report bytes.
func (d *serveLoadgen) report(sp spec) ([]byte, error) {
	id, _, err := d.request(sp)
	if err != nil {
		return nil, err
	}
	return d.n.c.do("GET", "/runs/"+id+"/report", nil, http.StatusOK)
}

// verify checks the burst coalesced, that the hot spec and a cold spec
// are served with the bytes of an in-process run, that the server
// reproduces the golden campaign, and that no run failed or was turned
// away.
func (d *serveLoadgen) verify() error {
	if d.coalesced.Load() == 0 {
		return fmt.Errorf("no request of the burst coalesced")
	}
	for _, sp := range []spec{d.hot, d.cold[0]} {
		got, err := d.report(sp)
		if err != nil {
			return err
		}
		want, err := solo(sp)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("served report for seed %d differs from the in-process run", sp.Seed)
		}
	}
	if err := checkGoldenCampaign(d.b, d.n.c); err != nil {
		return err
	}
	m, err := d.n.c.metrics()
	if err != nil {
		return err
	}
	if m.Runs.Failed != 0 || m.Runs.RejectedQueue != 0 || m.Runs.RejectedQuota != 0 {
		return fmt.Errorf("server runs not clean: %+v", m.Runs)
	}
	return nil
}

func (d *serveLoadgen) close() { d.n.ts.Close() }

// fedWorkers is the fleet size behind the campaign coordinator.
const fedWorkers = 2

// campaignFed is a coordinator dramscoped federating over two worker
// nodes that share its store. Each operation is one campaign that
// recovers every catalog device on fresh seeds.
type campaignFed struct {
	b        *bench
	coord    *node
	workers  []*node
	profiles []string

	mu         sync.Mutex
	firstSpecs []spec
	firstData  []byte
}

func setupFederated(b *bench) (deployment, error) {
	profiles, err := expt.MatchProfiles("all")
	if err != nil {
		return nil, err
	}
	st, err := b.openStore("fleet")
	if err != nil {
		return nil, err
	}
	d := &campaignFed{b: b, profiles: profiles}
	var urls []string
	for w := 0; w < fedWorkers; w++ {
		n, err := startNode(serve.Config{Budget: 1, Store: st})
		if err != nil {
			d.close()
			return nil, err
		}
		d.workers = append(d.workers, n)
		urls = append(urls, n.ts.URL)
	}
	if d.coord, err = startNode(serve.Config{Budget: fedWorkers, Store: st, Workers: urls}); err != nil {
		d.close()
		return nil, err
	}
	// One untimed campaign, one member per worker, finishes the fleet's
	// lazy set-up: the coordinator's first-contact capacity probes.
	setup := make([]spec, fedWorkers)
	for k := range setup {
		setup[k] = spec{Profile: profiles[k], Seed: setupSeed(k), Only: []string{"recover"}}
	}
	if _, _, err := d.coord.c.campaign(setup); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *campaignFed) op(i int) (*opRecord, error) {
	specs := make([]spec, len(d.profiles))
	seeds := make(map[string]uint64, len(specs))
	for k := range specs {
		specs[k] = recoverSpec(d.b, d.profiles, "op", i*len(specs)+k)
		seeds[specs[k].Profile] = specs[k].Seed
	}
	start := time.Now()
	id, report, err := d.coord.c.campaign(specs)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	if i == 0 {
		d.mu.Lock()
		d.firstSpecs, d.firstData = specs, report
		d.mu.Unlock()
	}
	op := &opRecord{start: start, end: end}
	if d.b.traced {
		if op.recs, err = d.coord.c.traceOf("/campaigns/" + id); err != nil {
			return nil, err
		}
		op.devices = warmedDevices(op.recs, func(profile string) uint64 { return seeds[profile] })
	}
	return op, nil
}

// verify checks the fleet reproduces the golden campaign, compares the
// first federated aggregate with the same campaign run locally
// in-process, and checks every member ran on a worker without retries
// or local fallback.
func (d *campaignFed) verify() error {
	if err := checkGoldenCampaign(d.b, d.coord.c); err != nil {
		return err
	}
	d.mu.Lock()
	specs, data := d.firstSpecs, d.firstData
	d.mu.Unlock()
	if specs == nil {
		return fmt.Errorf("first campaign did not complete")
	}
	c := &expt.Campaign{}
	for _, sp := range specs {
		c.Specs = append(c.Specs, expt.RunSpec{Profile: sp.Profile, Seed: sp.Seed, Only: sp.Only})
	}
	rep, err := c.Run(expt.CampaignOptions{Jobs: 1})
	if err != nil {
		return err
	}
	if err := rep.Err(); err != nil {
		return err
	}
	want, err := rep.JSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(data, want) {
		return fmt.Errorf("federated campaign aggregate differs from the local run")
	}
	m, err := d.coord.c.metrics()
	if err != nil {
		return err
	}
	f := m.Federation
	if f == nil {
		return fmt.Errorf("coordinator reports no federation metrics")
	}
	if f.Retried != 0 || f.Stolen != 0 || f.FallbackLocal != 0 || f.RemoteFailed != 0 || f.RemoteDone != f.Dispatched {
		return fmt.Errorf("federation was not clean: %+v", *f)
	}
	return nil
}

func (d *campaignFed) close() {
	if d.coord != nil {
		d.coord.ts.Close()
	}
	for _, w := range d.workers {
		w.ts.Close()
	}
}
