// Package serve wraps the experiment Suite in a long-running HTTP
// service — the artifact pipeline as infrastructure instead of a
// one-shot CLI. Clients POST a run request (canonicalized into
// expt.RunSpec: profile, seed, selection, jobs/shards, activation
// budget), poll, long-poll or stream its progress, and fetch the
// finished report; POST /campaigns lifts the same request to a
// population (a profiles glob × seed list, or explicit specs) whose
// member runs share the worker pool and caches and roll up into a
// deterministic cross-device aggregate. cmd/dramscoped is the binary
// front-end.
//
// The service leans entirely on the suite's determinism contract: a
// report is a pure function of the spec, so the served bytes are
// exactly what `cmd/experiments -json` prints for the same inputs
// (asserted against the golden fixture by the package's tests),
// repeated requests are served from an LRU cache keyed by the spec's
// canonical digest — the same digest the persistent store keys
// reports by — and cache entries never expire. Concurrent runs share
// one bounded worker budget; DELETE /runs/{id} cancels through the
// suite's context plumbing. The HTTP surface is documented in
// docs/api.md.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"dramscope/internal/expt"
	"dramscope/internal/store"
	"dramscope/internal/topo"
	"dramscope/internal/trace"
)

// Config configures a Server.
type Config struct {
	// Budget is the worker-token pool shared by every concurrent run;
	// <= 0 means GOMAXPROCS.
	Budget int
	// CacheSize is the result-cache capacity in entries; 0 means the
	// default (64), negative disables caching.
	CacheSize int
	// Retain caps how many finished runs stay queryable before the
	// oldest are evicted (404); 0 means the default (256). Running
	// runs are never evicted.
	Retain int
	// Store, when non-nil, is the persistent probe-artifact store
	// backing the LRU: finished reports are written through to it and
	// served from it after a restart (or by a different server process
	// sharing the directory), and every run's probe chains are warmed
	// through it. A store hit can never change a byte of a served
	// report — the same contract the LRU already relies on.
	Store *store.Store
	// Factory builds suites; nil means expt.DefaultSuite.
	Factory SuiteFactory
	// QueueSize caps how many admitted executions may wait for worker
	// tokens before new work is rejected with 429; 0 means the default
	// (64), negative means no waiting room (admissions past the worker
	// pool reject immediately). Cache hits and coalesced followers
	// never occupy the queue.
	QueueSize int
	// ClientQuota, when > 0, caps each client's in-flight declared
	// activation budget (sum of MaxActivations over its executing
	// runs; an unlimited run charges the full quota). Clients are
	// keyed by Authorization/X-API-Key header, falling back to remote
	// address. 0 disables quotas.
	ClientQuota int64
	// Workers, when non-empty, runs the server as a federation
	// coordinator: admitted executions (campaign members and solo
	// runs alike) are dispatched to these worker dramscoped base URLs
	// over the HTTP API, with faulted members retried on other nodes
	// and a local execution as the fallback of last resort. Workers
	// should share the coordinator's store directory so a
	// re-dispatched member is a store hit instead of a recomputation.
	// See docs/api.md, "Federated campaigns".
	Workers []string
	// MemberTimeout bounds one dispatched member's remote execution;
	// on expiry the member is canceled on its worker and re-dispatched
	// to another node. 0 disables the timeout.
	MemberTimeout time.Duration
	// TraceWriter, when non-nil, receives every executed run's span
	// tree as NDJSON when the run reaches a terminal state (-trace FILE
	// on dramscoped). Writes are serialized by the manager.
	TraceWriter io.Writer
	// SlowThreshold, when > 0, emits one structured NDJSON line to
	// SlowLog for every executed run whose admission-to-terminal wall
	// time crosses it (-slow-threshold). See SlowRunEvent.
	SlowThreshold time.Duration
	// SlowLog is the slow-run log sink; nil disables slow-run logging
	// even when SlowThreshold is set.
	SlowLog io.Writer
}

// Server is the HTTP front-end. It implements http.Handler.
type Server struct {
	mgr     *Manager
	factory SuiteFactory
	mux     *http.ServeMux
}

// New builds a Server.
func New(cfg Config) *Server {
	factory := cfg.Factory
	if factory == nil {
		factory = expt.DefaultSuite
	}
	mgr := NewManager(factory, cfg.Budget, cfg.CacheSize)
	if cfg.Retain != 0 {
		mgr.retain = cfg.Retain
	}
	if cfg.QueueSize > 0 {
		mgr.maxQueue = cfg.QueueSize
	} else if cfg.QueueSize < 0 {
		mgr.maxQueue = 0
	}
	mgr.quota = newClientQuota(cfg.ClientQuota)
	mgr.artifacts = cfg.Store
	mgr.traceW = cfg.TraceWriter
	mgr.slowThreshold = cfg.SlowThreshold
	mgr.slowLog = cfg.SlowLog
	local := &expt.Local{Pool: mgr.pool, Store: cfg.Store}
	mgr.exec = local
	if len(cfg.Workers) > 0 {
		mgr.fed = NewFederator(FederationOptions{
			Workers:       cfg.Workers,
			MemberTimeout: cfg.MemberTimeout,
		}, local)
		// On shutdown drain, abandon remote runs instead of canceling
		// them: the workers finish into the shared store, and the
		// restarted coordinator re-attaches via store hits.
		mgr.fed.leaveOnCancel = mgr.isDraining
		mgr.exec = mgr.fed
	}
	s := &Server{
		mgr:     mgr,
		factory: factory,
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /profiles", s.handleProfiles)
	s.mux.HandleFunc("GET /experiments", s.handleExperiments)
	s.mux.HandleFunc("POST /runs", s.handleCreateRun)
	s.mux.HandleFunc("GET /runs", s.handleListRuns)
	s.mux.HandleFunc("GET /runs/{id}", s.handleGetRun)
	s.mux.HandleFunc("DELETE /runs/{id}", s.handleCancelRun)
	s.mux.HandleFunc("GET /runs/{id}/report", handleReport(s.findRun))
	s.mux.HandleFunc("GET /runs/{id}/stream", handleStream(s.findRun))
	s.mux.HandleFunc("GET /runs/{id}/trace", handleTrace(s.findRun))
	s.mux.HandleFunc("POST /campaigns", s.handleCreateCampaign)
	s.mux.HandleFunc("GET /campaigns", s.handleListCampaigns)
	s.mux.HandleFunc("GET /campaigns/{id}", s.handleGetCampaign)
	s.mux.HandleFunc("DELETE /campaigns/{id}", s.handleCancelCampaign)
	s.mux.HandleFunc("GET /campaigns/{id}/report", handleReport(s.findCampaign))
	s.mux.HandleFunc("GET /campaigns/{id}/stream", handleStream(s.findCampaign))
	s.mux.HandleFunc("GET /campaigns/{id}/trace", handleTrace(s.findCampaign))
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Shutdown drains the server's manager for process exit: new
// admissions answer 503, running runs and campaigns are canceled, and
// the call blocks until every background goroutine has returned or ctx
// expires. Call it before http.Server.Shutdown so in-flight streams
// observe their runs' terminal events and close.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.mgr.Shutdown(ctx)
}

// maxRequestBody caps POST bodies. The largest legitimate request — a
// campaign with hundreds of explicit specs — is a few hundred KiB;
// 1 MiB leaves headroom while keeping one hostile POST from growing
// the decoder's buffer without bound.
const maxRequestBody = 1 << 20

// decodeBody strictly decodes a JSON request body into v, bounded by
// maxRequestBody. It writes the error response itself (413 for an
// oversized body, 400 otherwise) and reports whether decoding
// succeeded. An absent/empty body decodes as the zero request.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if r.Body == nil || r.ContentLength == 0 {
		return true
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// clientKey identifies the requester for quota accounting: an
// Authorization or X-API-Key header when present (so a fleet of
// workers behind one NAT are distinct clients), else the remote host.
func clientKey(r *http.Request) string {
	if v := r.Header.Get("Authorization"); v != "" {
		return v
	}
	if v := r.Header.Get("X-API-Key"); v != "" {
		return v
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// writeAdmissionError maps a typed admission failure onto the HTTP
// surface: backpressure (queue full, quota exhausted) is 429 with
// Retry-After, draining is 503, anything else is a 400 validation
// error. The Retry-After hint is derived from live load — outstanding
// executions times the recent p50 run latency, spread over the worker
// pool — so a client backing off exactly as told re-arrives roughly
// when a slot has freed, instead of hammering a loaded server every
// second.
func (s *Server) writeAdmissionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrQuotaExceeded):
		w.Header().Set("Retry-After", strconv.Itoa(s.mgr.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
}

// handleMetrics serves the server's operational counters as plain JSON
// (see Metrics for the schema and docs/api.md for the field
// reference), or as Prometheus text exposition format when the client
// asks for it with ?format=prometheus or an Accept: text/plain header.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" ||
		strings.HasPrefix(r.Header.Get("Accept"), "text/plain") {
		w.Header().Set("Content-Type", prometheusContentType)
		w.WriteHeader(http.StatusOK)
		w.Write(s.mgr.PrometheusMetrics())
		return
	}
	writeJSON(w, http.StatusOK, s.mgr.Metrics())
}

// writeTrace renders records in the negotiated trace format.
func writeTrace(w http.ResponseWriter, r *http.Request, recs []trace.Record) {
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		trace.WriteChrome(w, recs)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	trace.WriteNDJSON(w, recs)
}

// writeJSON writes v as an indented JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, a ...interface{}) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, a...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleProfiles serves the device catalog (paper Table I).
func (s *Server) handleProfiles(w http.ResponseWriter, r *http.Request) {
	repr := make(map[string]bool)
	for _, p := range topo.Representative() {
		repr[p.Name] = true
	}
	var out []ProfileInfo
	for _, p := range topo.Catalog() {
		out = append(out, ProfileInfo{
			Name:           p.Name,
			Kind:           p.Kind,
			Vendor:         p.Vendor,
			ChipWidth:      p.ChipWidth,
			Density:        p.Density,
			Year:           p.Year,
			Banks:          p.Banks,
			Representative: repr[p.Name],
			Default:        p.Name == expt.DefaultFigProfile,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleExperiments serves discovery metadata for every experiment the
// suite registers, in registration order. ?profile= selects the
// figure-experiment device (default expt.DefaultFigProfile) — it only
// affects the reported device bindings, not the experiment set.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	profile := r.URL.Query().Get("profile")
	if profile == "" {
		profile = expt.DefaultFigProfile
	}
	suite, err := s.factory(profile, expt.DefaultSeed)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, suite.Experiments())
}

// handleCreateRun admits a run: 202 Accepted for a freshly started
// (or coalesced) one, 200 OK when served from the result cache, 429
// with Retry-After under backpressure, 503 while draining.
func (s *Server) handleCreateRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// A coordinator's dispatch carries X-Dramscope-Trace so this run's
	// span subtree roots under the coordinator's dispatch span. The
	// link travels as a header, never a body field — the body feeds the
	// canonical spec digest, which tracing must not perturb. A
	// malformed value is ignored: the run records an unlinked trace.
	var link *trace.Link
	if l, ok := trace.ParseHeader(r.Header.Get(trace.Header)); ok {
		link = &l
	}
	run, err := s.mgr.StartTraced(req, clientKey(r), link)
	if err != nil {
		s.writeAdmissionError(w, err)
		return
	}
	w.Header().Set("Location", "/runs/"+run.id)
	status := http.StatusAccepted
	if run.cached {
		status = http.StatusOK
	}
	writeJSON(w, status, run.status(false))
}

func (s *Server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	out := []RunStatus{}
	for _, run := range s.mgr.Runs() {
		out = append(out, run.status(false))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) run(w http.ResponseWriter, r *http.Request) (*run, bool) {
	id := r.PathValue("id")
	run, ok := s.mgr.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no run %q", id)
		return nil, false
	}
	return run, true
}

func (s *Server) findRun(w http.ResponseWriter, r *http.Request) (tracked, bool) {
	return s.run(w, r)
}

// maxStatusWait caps the wait of GET /runs/{id}?wait=: a long poll
// holds its connection no longer than this, whatever it asks for.
const maxStatusWait = 30 * time.Second

// parseWait reads GET /runs/{id}'s wait parameter: 0 when absent, else
// the duration asked for, capped at maxStatusWait. A malformed or
// negative value is an error.
func parseWait(q url.Values) (time.Duration, error) {
	if !q.Has("wait") {
		return 0, nil
	}
	d, err := time.ParseDuration(q.Get("wait"))
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad wait %q: want a non-negative duration such as 20s", q.Get("wait"))
	}
	return min(d, maxStatusWait), nil
}

// handleGetRun serves a run's status. With ?wait=<duration> it is a
// long poll: the answer is held until the run leaves running, the wait
// elapses, or the client goes away. A bad wait is a 400.
func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	wait, err := parseWait(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	run, ok := s.run(w, r)
	if !ok {
		return
	}
	if wait > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		run.settle(ctx)
		cancel()
	}
	writeJSON(w, http.StatusOK, run.status(true))
}

func (s *Server) handleCancelRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	run, ok := s.mgr.Cancel(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no run %q", id)
		return
	}
	writeJSON(w, http.StatusOK, run.status(false))
}

// handleCreateCampaign admits a campaign: every member spec becomes an
// ordinary run on the shared pool (store/LRU hits included, so a warm
// campaign completes almost immediately), and the campaign aggregates
// once all members finish. Always 202: even an all-cached campaign
// aggregates asynchronously.
func (s *Server) handleCreateCampaign(w http.ResponseWriter, r *http.Request) {
	var req CampaignRequest
	if !decodeBody(w, r, &req) {
		return
	}
	c, err := s.mgr.StartCampaign(req, clientKey(r))
	if err != nil {
		s.writeAdmissionError(w, err)
		return
	}
	w.Header().Set("Location", "/campaigns/"+c.id)
	writeJSON(w, http.StatusAccepted, c.status(false))
}

func (s *Server) handleListCampaigns(w http.ResponseWriter, r *http.Request) {
	out := []CampaignStatus{}
	for _, c := range s.mgr.Campaigns() {
		out = append(out, c.status(false))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) campaign(w http.ResponseWriter, r *http.Request) (*campaign, bool) {
	id := r.PathValue("id")
	c, ok := s.mgr.GetCampaign(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", id)
		return nil, false
	}
	return c, true
}

func (s *Server) findCampaign(w http.ResponseWriter, r *http.Request) (tracked, bool) {
	return s.campaign(w, r)
}

func (s *Server) handleGetCampaign(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaign(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, c.status(true))
}

func (s *Server) handleCancelCampaign(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c, ok := s.mgr.CancelCampaign(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no campaign %q", id)
		return
	}
	writeJSON(w, http.StatusOK, c.status(false))
}
