package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dramscope/internal/host"
)

func TestNilSafety(t *testing.T) {
	var r *Recorder
	r.SetTraceID("x")
	if got := r.TraceID(); got != "" {
		t.Fatalf("nil recorder trace id = %q", got)
	}
	s := r.Root("run", "run")
	if s != nil {
		t.Fatalf("nil recorder Root = %v", s)
	}
	s.Begin().SetAttr("k", 1)
	s.AddCounters(host.Counters{ACT: 1})
	s.AddBatches(3)
	s.End()
	if c := s.Child("a", "a"); c != nil {
		t.Fatalf("nil span Child = %v", c)
	}
	if got := s.ID(); got != "" {
		t.Fatalf("nil span ID = %q", got)
	}
	if recs := r.Records(); recs != nil {
		t.Fatalf("nil recorder Records = %v", recs)
	}
	r.Graft([]Record{{Span: "x"}})
}

func TestDeterministicIDs(t *testing.T) {
	build := func() []Record {
		r := New("")
		root := r.Root("run", "run").Begin()
		e := root.Child("expt:fig16", "fig16").Begin()
		u := e.Child("unit:000017", "unit 17").SetAttr("unit", 17).Begin()
		k := u.Child("kernel", "kernel")
		k.AddCounters(host.Counters{ACT: 10, RD: 4})
		k.AddBatches(2)
		u.End()
		e.End()
		root.End()
		r.SetTraceID("deadbeef")
		return r.Records()
	}
	a, b := build(), build()
	if !bytes.Equal(ShapeNDJSON(a), ShapeNDJSON(b)) {
		t.Fatalf("shape differs across identical builds:\n%s\nvs\n%s",
			ShapeNDJSON(a), ShapeNDJSON(b))
	}
	// IDs are a pure function of (trace, path).
	for _, rec := range a {
		if want := SpanID("deadbeef", rec.Path); rec.Span != want {
			t.Fatalf("span %q id = %q, want %q", rec.Path, rec.Span, want)
		}
	}
	// Parentage: each non-root parent ID is the parent path's ID.
	for _, rec := range a {
		if rec.Path == "run" {
			if rec.Parent != "" {
				t.Fatalf("root has parent %q", rec.Parent)
			}
			continue
		}
		i := strings.LastIndex(rec.Path, "/")
		if want := SpanID("deadbeef", rec.Path[:i]); rec.Parent != want {
			t.Fatalf("span %q parent = %q, want %q", rec.Path, rec.Parent, want)
		}
	}
}

func TestShapeExcludesTiming(t *testing.T) {
	r := New("t")
	r.Root("run", "run").Begin().End()
	recs := r.Records()
	if recs[0].StartUs == 0 || recs[0].DurUs == 0 {
		t.Fatalf("expected timing on ended span, got %+v", recs[0])
	}
	if s := string(ShapeNDJSON(recs)); strings.Contains(s, "startUs") || strings.Contains(s, "durUs") {
		t.Fatalf("shape contains timing: %s", s)
	}
	if s := string(NDJSON(recs)); !strings.Contains(s, "startUs") {
		t.Fatalf("full export missing timing: %s", s)
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	r := New("abc")
	root := r.Root("run", "run").Begin()
	root.SetAttr("cached", true).SetAttr("n", 3)
	c := root.Child("expt:x", "x")
	c.AddCounters(host.Counters{ACT: 7, PRE: 7})
	root.End()
	recs := r.Records()
	out := NDJSON(recs)
	back, err := ParseNDJSON(bytes.NewReader(out))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !bytes.Equal(NDJSON(back), out) {
		t.Fatalf("round trip drifted:\n%s\nvs\n%s", out, NDJSON(back))
	}
}

func TestGraftSortsIntoPlace(t *testing.T) {
	// Worker side: linked recorder under a dispatch span.
	link := Link{Trace: "T", Parent: SpanID("T", "run/dispatch:000000"), Path: "run/dispatch:000000"}
	wr := NewLinked(link)
	wroot := wr.Root("run", "run").Begin()
	wroot.Child("expt:a", "a")
	wroot.End()

	// Coordinator side.
	r := New("T")
	root := r.Root("run", "run").Begin()
	d := root.Child("dispatch:000000", "dispatch")
	d.Begin().End()
	root.End()
	r.Graft(wr.Records())

	recs := r.Records()
	var paths []string
	for _, rec := range recs {
		paths = append(paths, rec.Path)
	}
	want := []string{
		"run",
		"run/dispatch:000000",
		"run/dispatch:000000/run",
		"run/dispatch:000000/run/expt:a",
	}
	if len(paths) != len(want) {
		t.Fatalf("paths = %v, want %v", paths, want)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("paths = %v, want %v", paths, want)
		}
	}
	// The grafted root's parent is the coordinator's dispatch span.
	if recs[2].Parent != recs[1].Span {
		t.Fatalf("grafted root parent = %q, dispatch span = %q", recs[2].Parent, recs[1].Span)
	}
	// Grafted records carry the shared trace ID without rewriting.
	if recs[2].Trace != "T" {
		t.Fatalf("grafted trace = %q", recs[2].Trace)
	}
}

func TestLazyTraceID(t *testing.T) {
	r := New("")
	root := r.Root("campaign", "campaign")
	m := root.Child("member:000000", "member 0")
	r.SetTraceID("late")
	if want := SpanID("late", "campaign/member:000000"); m.ID() != want {
		t.Fatalf("member id = %q, want %q", m.ID(), want)
	}
}

func TestChromeExport(t *testing.T) {
	r := New("t")
	root := r.Root("run", "run").Begin()
	e := root.Child("expt:a", "a").Begin()
	e.AddCounters(host.Counters{ACT: 1})
	e.End()
	root.End()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, r.Records()); err != nil {
		t.Fatalf("chrome: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output not JSON: %v\n%s", err, buf.Bytes())
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("events = %d, want 2", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Dur < 1 || ev.Ts < 0 || ev.Tid < 1 {
			t.Fatalf("bad event %+v", ev)
		}
	}
}

func TestHeaderCodec(t *testing.T) {
	l := Link{Trace: "T", Parent: "abcd", Path: "campaign/member:000001/run/dispatch:000002"}
	got, ok := ParseHeader(FormatHeader(l))
	if !ok || got != l {
		t.Fatalf("round trip = %+v ok=%v, want %+v", got, ok, l)
	}
	if _, ok := ParseHeader(""); ok {
		t.Fatal("empty header parsed")
	}
	if _, ok := ParseHeader("just two"); ok {
		t.Fatal("two-field header parsed")
	}
}
