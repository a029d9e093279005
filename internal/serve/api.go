package serve

import (
	"encoding/json"

	"dramscope/internal/expt"
)

// This file defines the service's wire types — the request/response
// schemas of the HTTP API documented in docs/api.md. They are
// deliberately thin adapters over package expt: requests canonicalize
// into expt.RunSpec (the repo's single run-request type, whose digest
// keys the result cache and the persistent store alike), and the
// report payload itself is produced by expt.Report.JSON and served
// verbatim, so the service never re-encodes (and can never perturb)
// the byte-stable report contract.

// SuiteFactory builds a fresh, unrun Suite for one (profile, seed)
// pair — re-exported from expt so server wiring reads naturally.
// Production uses expt.DefaultSuite; tests inject synthetic suites.
type SuiteFactory = expt.SuiteFactory

// RunRequest is the body of POST /runs. Every field is optional; the
// zero request runs the full default suite.
type RunRequest struct {
	// Profile selects the device profile the figure experiments
	// measure on. Empty means expt.DefaultFigProfile.
	Profile string `json:"profile,omitempty"`
	// Seed is the suite base seed. Absent means expt.DefaultSeed.
	// (A pointer so that an explicit {"seed": 0} is distinguishable
	// from an absent field.)
	Seed *uint64 `json:"seed,omitempty"`
	// Only selects experiments by name (see GET /experiments); empty
	// means all. After dependencies are selected transitively, exactly
	// like cmd/experiments -run.
	Only []string `json:"only,omitempty"`
	// Jobs is the requested worker count for this run. It is clamped
	// to the server's shared worker budget and has no effect on the
	// report bytes — only on wall time.
	Jobs int `json:"jobs,omitempty"`
	// Shards caps scheduler nodes per partitioned experiment; like
	// Jobs it can never change a byte of the report.
	Shards int `json:"shards,omitempty"`
	// MaxActivations caps the run's metered ACT commands; 0 means
	// unlimited. A run that crosses the cap fails with errorKind
	// "budget_exceeded". Unlike Jobs/Shards it changes what the report
	// contains, so it is part of the cache key.
	MaxActivations int64 `json:"maxActivations,omitempty"`
}

// spec converts the wire request into the canonical expt.RunSpec with
// the server defaults applied.
func (req RunRequest) spec() expt.RunSpec {
	sp := expt.RunSpec{
		Profile:        req.Profile,
		Seed:           expt.DefaultSeed,
		Only:           req.Only,
		Jobs:           req.Jobs,
		Shards:         req.Shards,
		MaxActivations: req.MaxActivations,
	}
	if sp.Profile == "" {
		sp.Profile = expt.DefaultFigProfile
	}
	if req.Seed != nil {
		sp.Seed = *req.Seed
	}
	return sp.Normalized()
}

// resolveRequest validates a request against a freshly built suite
// (unknown profiles and experiment names are rejected here, before a
// run is created) and returns the resolved spec plus the suite that
// will execute it.
func resolveRequest(req RunRequest, factory SuiteFactory) (*expt.ResolvedSpec, *expt.Suite, error) {
	return expt.ResolveSpec(req.spec(), factory)
}

// Run states reported by RunStatus.State.
const (
	// StateRunning: the run is queued for workers or executing.
	StateRunning = "running"
	// StateDone: every experiment succeeded; the report is available.
	StateDone = "done"
	// StateFailed: at least one experiment errored. The report is
	// still available — failed experiments carry their error in it,
	// exactly like cmd/experiments.
	StateFailed = "failed"
	// StateCanceled: the run was canceled via DELETE (or the server
	// shut down). No report is served.
	StateCanceled = "canceled"
)

// ErrorKindBudget marks a failed run that was stopped by its
// activation budget (RunRequest.MaxActivations) rather than an
// experiment bug.
const ErrorKindBudget = "budget_exceeded"

// RunStatus is the body of GET /runs/{id} (and of the POST /runs and
// DELETE /runs/{id} responses).
type RunStatus struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Profile string `json:"profile"`
	Seed    uint64 `json:"seed"`
	// Digest is the run's canonical-spec digest — the cache identity
	// shared with the persistent store and campaign summaries.
	Digest         string `json:"digest"`
	Jobs           int    `json:"jobs,omitempty"`
	Shards         int    `json:"shards,omitempty"`
	MaxActivations int64  `json:"maxActivations,omitempty"`
	// Experiments is the resolved selection, in registration order —
	// the order report entries and stream events appear in.
	Experiments []string `json:"experiments"`
	// Total and Completed count selected experiments; Completed grows
	// as results land, so polling GET /runs/{id} shows progress.
	Total     int `json:"total"`
	Completed int `json:"completed"`
	// Cached reports that the run was served from the result cache
	// without executing.
	Cached bool `json:"cached,omitempty"`
	// Coalesced reports that the run joined an identical in-flight
	// execution (single-flight admission) instead of executing its own
	// suite. Its report is byte-identical to a solo run's.
	Coalesced bool   `json:"coalesced,omitempty"`
	Error     string `json:"error,omitempty"`
	// ErrorKind classifies machine-actionable failures (currently only
	// ErrorKindBudget).
	ErrorKind string `json:"errorKind,omitempty"`
	// Report is the deterministic JSON report, embedded verbatim once
	// the run reaches "done" or "failed". For the raw bytes (exactly
	// `cmd/experiments -json`), use GET /runs/{id}/report.
	Report json.RawMessage `json:"report,omitempty"`
}

// StreamEvent is one line of the GET /runs/{id}/stream NDJSON body.
// Result lines carry Experiment and arrive strictly in registration
// order (index 0, 1, 2, ...); the final line has Done set and reports
// the run's terminal state instead.
type StreamEvent struct {
	Index int `json:"index"`
	Total int `json:"total"`
	// Experiment is one completed experiment's result, in exactly the
	// shape of the corresponding entry of the report's "experiments"
	// array.
	Experiment *expt.ExptResult `json:"experiment,omitempty"`
	// ElapsedMS is the experiment's wall time in milliseconds,
	// as measured on the run that actually executed it. It is
	// out-of-band metadata: replayed cache hits carry the producing
	// run's timing, entries rehydrated from the persistent store carry
	// none, and the report itself never contains it.
	ElapsedMS float64 `json:"elapsedMs,omitempty"`
	Done      bool    `json:"done,omitempty"`
	State     string  `json:"state,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// CampaignRequest is the body of POST /campaigns. Specs lists the
// member runs explicitly; when empty, the campaign is the cross
// product of the Profiles glob (over the Table I catalog) and Seeds,
// each run selecting Only with the shared Jobs/Shards/MaxActivations.
type CampaignRequest struct {
	// Specs are explicit member runs, in campaign order.
	Specs []RunRequest `json:"specs,omitempty"`
	// Profiles is a comma-separated list of catalog-name globs
	// ("MfrA-*", "all"); empty means the full catalog. Ignored when
	// Specs is set.
	Profiles string `json:"profiles,omitempty"`
	// Seeds are the suite seeds crossed with the matched profiles;
	// empty means [expt.DefaultSeed]. Ignored when Specs is set.
	Seeds []uint64 `json:"seeds,omitempty"`
	// Only is the per-run experiment selection for glob expansion.
	Only []string `json:"only,omitempty"`
	// Jobs/Shards/MaxActivations apply to every expanded run.
	Jobs           int   `json:"jobs,omitempty"`
	Shards         int   `json:"shards,omitempty"`
	MaxActivations int64 `json:"maxActivations,omitempty"`
}

// expand resolves the request into its member run requests, in
// campaign order. With explicit Specs, the shared
// Only/Jobs/Shards/MaxActivations fields fill in whatever a member
// left unset (a member's own non-zero field wins), so the documented
// "applied to every run" semantics hold on both request shapes. admit
// gets the member count before any member is built; its error aborts
// the expansion.
func (req CampaignRequest) expand(admit func(members int) error) ([]RunRequest, error) {
	if len(req.Specs) > 0 {
		if err := admit(len(req.Specs)); err != nil {
			return nil, err
		}
		out := make([]RunRequest, len(req.Specs))
		for i, rr := range req.Specs {
			if len(rr.Only) == 0 {
				rr.Only = req.Only
			}
			if rr.Jobs == 0 {
				rr.Jobs = req.Jobs
			}
			if rr.Shards == 0 {
				rr.Shards = req.Shards
			}
			if rr.MaxActivations == 0 {
				rr.MaxActivations = req.MaxActivations
			}
			out[i] = rr
		}
		return out, nil
	}
	globs := req.Profiles
	if globs == "" {
		globs = "all"
	}
	profiles, err := expt.MatchProfiles(globs)
	if err != nil {
		return nil, err
	}
	seeds := req.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{expt.DefaultSeed}
	}
	if err := admit(len(profiles) * len(seeds)); err != nil {
		return nil, err
	}
	var out []RunRequest
	for _, prof := range profiles {
		for _, seed := range seeds {
			s := seed
			out = append(out, RunRequest{
				Profile:        prof,
				Seed:           &s,
				Only:           req.Only,
				Jobs:           req.Jobs,
				Shards:         req.Shards,
				MaxActivations: req.MaxActivations,
			})
		}
	}
	return out, nil
}

// CampaignRunInfo is one member run's status inside a campaign: the
// linkage (index, run id) plus the member's own identity and state.
// Per-run reports are served by GET /runs/{runId}/report.
type CampaignRunInfo struct {
	Index   int    `json:"index"`
	RunID   string `json:"runId"`
	Profile string `json:"profile"`
	Seed    uint64 `json:"seed"`
	Digest  string `json:"digest"`
	State   string `json:"state"`
	Cached  bool   `json:"cached,omitempty"`
	Error   string `json:"error,omitempty"`
}

// CampaignStatus is the body of GET /campaigns/{id} (and of the POST
// /campaigns and DELETE /campaigns/{id} responses).
type CampaignStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Total     int    `json:"total"`
	Completed int    `json:"completed"`
	// Runs lists every member run in campaign order.
	Runs  []CampaignRunInfo `json:"runs"`
	Error string            `json:"error,omitempty"`
	// Report is the deterministic aggregate report
	// (expt.CampaignReport.JSON), embedded once the campaign reaches
	// "done" or "failed". For the raw bytes use
	// GET /campaigns/{id}/report.
	Report json.RawMessage `json:"report,omitempty"`
}

// CampaignStreamEvent is one line of GET /campaigns/{id}/stream: one
// line per member run, strictly in campaign order as runs complete,
// then a terminal line with Done set.
type CampaignStreamEvent struct {
	Index int `json:"index"`
	Total int `json:"total"`
	// Run is the completed member run.
	Run   *CampaignRunInfo `json:"run,omitempty"`
	Done  bool             `json:"done,omitempty"`
	State string           `json:"state,omitempty"`
	Error string           `json:"error,omitempty"`
}

// ProfileInfo is one entry of GET /profiles: the Table I metadata of a
// device profile plus what a run request needs to know (the name).
type ProfileInfo struct {
	Name           string `json:"name"`
	Kind           string `json:"kind"`
	Vendor         string `json:"vendor"`
	ChipWidth      int    `json:"chipWidth"`
	Density        string `json:"density"`
	Year           int    `json:"year,omitempty"`
	Banks          int    `json:"banks"`
	Representative bool   `json:"representative,omitempty"`
	Default        bool   `json:"default,omitempty"`
}

// apiError is the uniform error body: every non-2xx response is
// {"error": "..."}.
type apiError struct {
	Error string `json:"error"`
}
