package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// stubWorker is a canned-response worker: just enough of the wire
// protocol for the client to exercise every method without importing
// package serve (which would defeat the cycle-free design this package
// exists for).
func stubWorker(t *testing.T, handler http.HandlerFunc) *Client {
	t.Helper()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	return &Client{Base: ts.URL}
}

func TestStartAndReport(t *testing.T) {
	t.Parallel()
	// Deliberately odd formatting: Report must return these bytes
	// verbatim, never re-encoded.
	report := []byte("{\n  \"experiments\": [ ]\n}\n")
	c := stubWorker(t, func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/runs":
			var req Request
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				t.Errorf("worker got undecodable request: %v", err)
			}
			if req.Profile != "p" || req.Seed == nil || *req.Seed != 3 {
				t.Errorf("worker got request %+v", req)
			}
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(Status{ID: "r1", State: StateRunning, Digest: "d"})
		case r.Method == http.MethodGet && r.URL.Path == "/runs/r1/report":
			w.Write(report)
		default:
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
			http.NotFound(w, r)
		}
	})

	seed := uint64(3)
	st, err := c.Start(context.Background(), Request{Profile: "p", Seed: &seed})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "r1" || st.State != StateRunning || st.Digest != "d" {
		t.Fatalf("Start status = %+v", st)
	}
	got, err := c.Report(context.Background(), "r1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, report) {
		t.Fatalf("Report returned %q, want the exact bytes %q", got, report)
	}
}

// TestStartBoundsBody: a broken worker that answers POST /runs with
// 200 and a JSON string that never ends must not make the coordinator
// buffer it without limit. Start fails once maxReportBody bytes are
// read, and the worker gets to write little more than that before the
// closed connection stops it.
func TestStartBoundsBody(t *testing.T) {
	t.Parallel()
	// The stub stops on its own at twice the bound, so an unbounded
	// client fails this test instead of buffering until its timeout.
	const stop = 2 * maxReportBody
	const slack = maxReportBody / 4 // socket and bufio buffering between the two
	written := make(chan int64, 1)
	c := stubWorker(t, func(w http.ResponseWriter, r *http.Request) {
		var n int64
		defer func() { written <- n }()
		m, err := io.WriteString(w, `{"id":"`)
		n += int64(m)
		chunk := bytes.Repeat([]byte("a"), 64<<10)
		for err == nil && n < stop {
			m, err = w.Write(chunk)
			n += int64(m)
		}
	})
	if _, err := c.Start(context.Background(), Request{}); err == nil {
		t.Fatal("Start decoded an endless body without error")
	}
	select {
	case n := <-written:
		if n > maxReportBody+slack {
			t.Fatalf("worker wrote %d bytes, want at most maxReportBody (%d) plus buffering", n, maxReportBody)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker still writing 30s after Start failed")
	}
}

func TestWaitPollsToTerminal(t *testing.T) {
	t.Parallel()
	var polls atomic.Int64
	c := stubWorker(t, func(w http.ResponseWriter, r *http.Request) {
		st := Status{ID: "r1", State: StateRunning}
		if polls.Add(1) >= 3 {
			st.State = StateDone
		}
		json.NewEncoder(w).Encode(st)
	})

	st, err := c.Wait(context.Background(), "r1", time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("Wait returned state %q, want done", st.State)
	}
	if n := polls.Load(); n < 3 {
		t.Fatalf("Wait polled %d times, want >= 3", n)
	}
}

func TestWaitCancel(t *testing.T) {
	t.Parallel()
	c := stubWorker(t, func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(Status{ID: "r1", State: StateRunning})
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.Wait(ctx, "r1", time.Millisecond); err == nil {
		t.Fatal("Wait on a never-terminal run returned without error")
	}
}

func TestHTTPError(t *testing.T) {
	t.Parallel()
	c := stubWorker(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	})
	_, err := c.Start(context.Background(), Request{})
	he, ok := err.(*HTTPError)
	if !ok {
		t.Fatalf("Start error = %T %v, want *HTTPError", err, err)
	}
	if he.Code != http.StatusTooManyRequests || he.RetryAfter != 7*time.Second || he.Msg != "queue full" {
		t.Fatalf("HTTPError = %+v, want code 429, retryAfter 7s, msg from the body", he)
	}
}

func TestCapacity(t *testing.T) {
	t.Parallel()
	c := stubWorker(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			t.Errorf("capacity probe hit %s, want /metrics", r.URL.Path)
		}
		w.Write([]byte(`{"queue":{"capacity":64,"workers":4},"runs":{}}`))
	})
	n, err := c.Capacity(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 68 {
		t.Fatalf("Capacity = %d, want queue capacity 64 + workers 4", n)
	}
}
