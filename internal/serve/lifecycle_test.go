package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"dramscope/internal/trace"
)

// bareLife serves a lone lifecycle through the shared endpoints.
type bareLife struct{ *lifecycle }

func (bareLife) traceRecords() []trace.Record { return nil }

// streamLife runs the shared stream handler over l to completion and
// returns its NDJSON lines.
func streamLife(t *testing.T, l *lifecycle) []string {
	t.Helper()
	w := httptest.NewRecorder()
	find := func(http.ResponseWriter, *http.Request) (tracked, bool) { return bareLife{l}, true }
	handleStream(find)(w, httptest.NewRequest(http.MethodGet, "/runs/x/stream", nil))
	var out []string
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	return out
}

// filledPrefix counts l's leading landed slots.
func filledPrefix(l *lifecycle) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for n < len(l.lines) && l.lines[n] != nil {
		n++
	}
	return n
}

// TestLifecycleConcurrentLandFinishWait: many goroutines land distinct
// slots in any order while a few race to finish with different states
// and several stream readers and a settled waiter read at the same
// time. Every reader emits the filled prefix in slot order — at least
// the prefix filled before the winning finish, and for a reader that
// starts afterwards every landed slot — then exactly one terminal line
// carrying the first terminal state; the root span is marked with that
// state once; completed counts every landed slot.
func TestLifecycleConcurrentLandFinishWait(t *testing.T) {
	t.Parallel()
	const slots, landers, readers = 48, 8, 6
	states := []string{StateDone, StateFailed, StateCanceled}
	for round := 0; round < 10; round++ {
		rec := trace.New("lifecycle")
		var l lifecycle
		l.begin("run", rec.Root("run", "run").Begin(), slots)
		line := func(i int) []byte { return []byte(fmt.Sprintf(`{"index":%d,"total":%d}`, i, slots)) }

		var wg sync.WaitGroup
		streams := make([][]string, readers)
		for k := range streams {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				streams[k] = streamLife(t, &l)
			}(k)
		}
		var settled outcome
		wg.Add(1)
		go func() {
			defer wg.Done()
			settled = l.settled()
		}()
		for g := 0; g < landers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Lander g owns slots g, g+landers, ... and lands them
				// back to front, so slots fill out of order.
				for i := slots - landers + g; i >= 0; i -= landers {
					l.land(i, line(i))
				}
			}(g)
		}
		won := make([]bool, len(states))
		before := make([]int, len(states))
		for k, st := range states {
			wg.Add(1)
			go func(k int, st string) {
				defer wg.Done()
				before[k] = filledPrefix(&l)
				won[k] = l.finish(outcome{state: st, errMsg: "by " + st})
			}(k, st)
		}
		wg.Wait()
		streams = append(streams, streamLife(t, &l)) // a late reader

		first, minPrefix := "", 0
		for k, ok := range won {
			if ok {
				if first != "" {
					t.Fatalf("round %d: both %s and %s left running", round, first, states[k])
				}
				first, minPrefix = states[k], before[k]
			}
		}
		if first == "" {
			t.Fatalf("round %d: no finish left running", round)
		}
		if l.state != first || settled.state != first {
			t.Fatalf("round %d: state %s, settled %s; want the first terminal state %s", round, l.state, settled.state, first)
		}
		if l.completed != slots {
			t.Fatalf("round %d: completed = %d, want %d landed slots", round, l.completed, slots)
		}
		wantTerminal := fmt.Sprintf(`{"index":%d,"total":%d,"done":true,"state":%q,"error":"by %s"}`, slots, slots, first, first)
		for k, lines := range streams {
			if len(lines) == 0 || lines[len(lines)-1] != wantTerminal {
				t.Fatalf("round %d reader %d: stream %q does not end with %s", round, k, lines, wantTerminal)
			}
			if n := len(lines) - 1; n < minPrefix || (k == readers && n != slots) {
				t.Fatalf("round %d reader %d: %d lines before the terminal; the prefix filled before finish was %d",
					round, k, n, minPrefix)
			}
			for i, got := range lines[:len(lines)-1] {
				if got != string(line(i)) {
					t.Fatalf("round %d reader %d: line %d = %s, want slot %d's line (filled prefix, in order)", round, k, i, got, i)
				}
			}
		}
		root := rec.Records()[0]
		if want := fmt.Sprintf(`{"state":%q}`, first); string(root.Attrs) != want || root.DurUs <= 0 {
			t.Fatalf("round %d: root span attrs %s durUs %d, want %s and ended", round, root.Attrs, root.DurUs, want)
		}
	}
}

// TestLifecycleTerminalSticks: once a lifecycle leaves running, finish
// and fill change nothing, and the stream is its filled prefix plus one
// terminal line. A cache-hit outcome marks the span cached instead of
// with its state.
func TestLifecycleTerminalSticks(t *testing.T) {
	t.Parallel()
	rec := trace.New("sticks")
	var l lifecycle
	l.begin("campaign", rec.Root("campaign", "c").Begin(), 3)
	_, changed := l.wait()
	l.land(2, []byte(`{"index":2}`))
	select {
	case <-changed:
	default:
		t.Fatal("land did not wake waiters")
	}
	_, changed = l.wait()
	l.fill([][]byte{[]byte(`{"index":0}`)})
	select {
	case <-changed:
	default:
		t.Fatal("fill did not wake waiters")
	}
	if !l.finish(outcome{state: StateCanceled, errMsg: "stop"}) {
		t.Fatal("first finish did not leave running")
	}
	if l.finish(outcome{state: StateDone, report: []byte("{}")}) {
		t.Fatal("second finish moved a terminal state")
	}
	l.fill([][]byte{nil, []byte(`{"index":1}`)})
	if l.state != StateCanceled || l.report != nil || l.errMsg != "stop" || l.completed != 2 {
		t.Fatalf("after late finish and fill: state %s report %q err %q completed %d",
			l.state, l.report, l.errMsg, l.completed)
	}
	got := streamLife(t, &l)
	want := []string{`{"index":0}`, `{"index":3,"total":3,"done":true,"state":"canceled","error":"stop"}`}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("stream = %q, want %q", got, want)
	}
	if attrs := rec.Records()[0].Attrs; string(attrs) != `{"state":"canceled"}` {
		t.Fatalf("root attrs = %s, want the first terminal state only", attrs)
	}

	rec = trace.New("cached")
	var hit lifecycle
	hit.begin("run", rec.Root("run", "r").Begin(), 1)
	hit.finish(outcome{state: StateDone, report: []byte("{}"), lines: [][]byte{[]byte(`{}`)}, cached: true})
	var attrs map[string]any
	if err := json.Unmarshal(rec.Records()[0].Attrs, &attrs); err != nil || attrs["cached"] != true || attrs["state"] != nil {
		t.Fatalf("cache-hit root attrs = %s, want cached:true and no state", rec.Records()[0].Attrs)
	}
	if hit.completed != 1 {
		t.Fatalf("cache-hit completed = %d, want 1", hit.completed)
	}
}
