// Package dispatch is the coordinator's view of one worker dramscoped
// node: a thin HTTP client for the run half of the API documented in
// docs/api.md. The serve.Federator uses it to place campaign members
// (and solo runs) on worker nodes — start a run, long-poll it to a
// terminal state, fetch the report bytes verbatim, cancel, and read the
// worker's admission capacity from /metrics. It deliberately owns its
// own copies of the few wire fields it reads instead of importing
// package serve, so the client stays import-cycle-free and the
// coordinator can only ever depend on the documented wire contract,
// never on server internals.
package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Request mirrors the POST /runs body (serve.RunRequest). The zero
// request runs the worker's full default suite.
type Request struct {
	Profile        string   `json:"profile,omitempty"`
	Seed           *uint64  `json:"seed,omitempty"`
	Only           []string `json:"only,omitempty"`
	Jobs           int      `json:"jobs,omitempty"`
	Shards         int      `json:"shards,omitempty"`
	MaxActivations int64    `json:"maxActivations,omitempty"`

	// Trace, when non-empty, is sent as the X-Dramscope-Trace header so
	// the worker roots its span subtree under the coordinator's dispatch
	// span. It is a header, never a body field: the body feeds the
	// canonical spec digest, which tracing must not perturb.
	Trace string `json:"-"`
}

// TraceHeader is the propagation header name, mirrored from
// internal/trace to keep this package free of server-side imports.
const TraceHeader = "X-Dramscope-Trace"

// Status is the subset of the run-status schema the dispatcher reads:
// identity, terminal state, and the canonical-spec digest the
// coordinator verifies before trusting a single report byte.
type Status struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Digest    string `json:"digest"`
	Cached    bool   `json:"cached"`
	Error     string `json:"error"`
	ErrorKind string `json:"errorKind"`
}

// Run states, in the wire protocol's vocabulary (serve.State*).
const (
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// HTTPError is a non-2xx worker response. RetryAfter carries the
// parsed Retry-After hint on 429s (zero when absent).
type HTTPError struct {
	Code       int
	RetryAfter time.Duration
	Msg        string
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("dispatch: worker answered %d: %s", e.Code, e.Msg)
}

// maxErrorBody bounds how much of an error response body is read for
// the message: a broken worker must not make the coordinator buffer an
// arbitrarily large body.
const maxErrorBody = 4 << 10

// maxReportBody bounds a fetched report. The full golden suite report
// is well under 1 MiB; 64 MiB is far past any legitimate report while
// still refusing to stream a runaway response into memory forever.
const maxReportBody = 64 << 20

// Client talks to one worker node.
type Client struct {
	// Base is the worker's base URL, e.g. "http://node1:8077".
	Base string
}

// httpClient is shared by every Client. Its per-request timeout is
// bounded, and every request stays below it: streams are never used
// here, and a long poll asks for statusWait, so a hung worker surfaces
// as an error instead of a stuck wait.
var httpClient = &http.Client{Timeout: 60 * time.Second}

// statusWait is how long one Wait request asks the worker to hold its
// answer (GET /runs/{id}?wait=). It stays well under httpClient's
// timeout and the server's 30 s cap.
const statusWait = 20 * time.Second

// do round-trips one JSON request. Non-2xx responses come back as
// *HTTPError with the body's error message; 2xx bodies decode into out
// when non-nil, bounded by maxReportBody (a finished run's status
// embeds its report) so a broken worker cannot make the coordinator
// buffer without limit. hdr entries (may be nil) are set on the
// request.
func (c *Client) do(ctx context.Context, method, path string, hdr map[string]string, body, out interface{}) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return newHTTPError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxErrorBody))
		return nil
	}
	return json.NewDecoder(io.LimitReader(resp.Body, maxReportBody)).Decode(out)
}

func newHTTPError(resp *http.Response) *HTTPError {
	he := &HTTPError{Code: resp.StatusCode}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		he.RetryAfter = time.Duration(secs) * time.Second
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
	var body struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &body) == nil && body.Error != "" {
		he.Msg = body.Error
	} else {
		he.Msg = http.StatusText(resp.StatusCode)
	}
	return he
}

// Start admits one run on the worker. A 200 response is a cache or
// store hit and the returned status is already terminal; 202 means the
// run executes and must be awaited with Wait.
func (c *Client) Start(ctx context.Context, req Request) (Status, error) {
	var hdr map[string]string
	if req.Trace != "" {
		hdr = map[string]string{TraceHeader: req.Trace}
	}
	var st Status
	err := c.do(ctx, http.MethodPost, "/runs", hdr, req, &st)
	return st, err
}

// Wait long-polls a run (GET /runs/{id}?wait=) until it reaches a
// terminal state or ctx ends; the worker answers as soon as the run
// finishes. Any transport or HTTP error fails the wait immediately:
// the coordinator treats it as a worker fault and re-dispatches, and
// the shared store keeps the retry from recomputing whatever the
// faulted worker still finishes.
func (c *Client) Wait(ctx context.Context, id string) (Status, error) {
	for {
		var st Status
		if err := c.do(ctx, http.MethodGet, "/runs/"+id+"?wait="+statusWait.String(), nil, nil, &st); err != nil {
			return st, err
		}
		if st.State != StateRunning {
			return st, nil
		}
	}
}

// Report fetches a finished run's report bytes verbatim — the payload
// the byte-identity contract is about, so it is never re-encoded here.
func (c *Client) Report(ctx context.Context, id string) ([]byte, error) {
	return c.getVerbatim(ctx, "/runs/"+id+"/report")
}

// Trace fetches a finished run's span subtree as NDJSON bytes verbatim
// (GET /runs/{id}/trace) — the records the coordinator grafts under its
// dispatch span to stitch one federated tree.
func (c *Client) Trace(ctx context.Context, id string) ([]byte, error) {
	return c.getVerbatim(ctx, "/runs/"+id+"/trace")
}

// getVerbatim GETs path and returns a 200 body's bytes untouched,
// bounded by maxReportBody; any other status is an *HTTPError.
func (c *Client) getVerbatim(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, newHTTPError(resp)
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxReportBody))
}

// Cancel cancels a run on the worker (DELETE /runs/{id}), best effort.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/runs/"+id, nil, nil, nil)
}

// Capacity reads the worker's admission capacity — worker-pool size
// plus queue slots — from /metrics. That is exactly how many admitted
// executions the worker holds before answering 429, so the dispatcher
// uses it as the node's placement weight.
func (c *Client) Capacity(ctx context.Context) (int, error) {
	var m struct {
		Queue struct {
			Capacity int `json:"capacity"`
			Workers  int `json:"workers"`
		} `json:"queue"`
	}
	if err := c.do(ctx, http.MethodGet, "/metrics", nil, nil, &m); err != nil {
		return 0, err
	}
	return m.Queue.Capacity + m.Queue.Workers, nil
}
