// Command tracecheck validates exported dramscope traces — the CI
// schema gate for the NDJSON and Chrome trace-event files every binary
// can emit (see docs/observability.md).
//
// Usage:
//
//	tracecheck FILE...          # validate NDJSON trace files
//	tracecheck -chrome FILE     # validate a Chrome trace-event file
//
// For NDJSON it checks, per line and per trace:
//
//   - every line parses as a trace.Record with trace, span, name and
//     path present;
//   - the span ID is exactly the one derived from (trace ID, path) —
//     the determinism contract that makes tree shapes byte-comparable;
//   - the parent ID of every nested span is the derived ID of one of
//     its proper path prefixes ending at a "/", so the tree
//     reassembles from paths alone. A path component may itself
//     contain "/" (the experiment "table3/MfrA-DDR4-x4-2016" hangs
//     under "run", not under "run/expt:table3"), so the parent need not
//     be the prefix before the last "/". A parent record may
//     legitimately live in another export, e.g. a worker subtree
//     checked on its own;
//   - no (trace, path) appears twice — no span is exported twice;
//   - counters, batches and durations are non-negative.
//
// Exit status 0 means every file passed; any violation prints its file
// and line and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"dramscope/internal/trace"
)

func main() {
	chrome := flag.String("chrome", "", "validate this Chrome trace-event JSON file instead of NDJSON inputs")
	flag.Parse()

	fail := false
	report := func(file string, err error) {
		fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", file, err)
		fail = true
	}

	if *chrome != "" {
		if n, err := checkChrome(*chrome); err != nil {
			report(*chrome, err)
		} else {
			fmt.Printf("%s: %d trace events ok\n", *chrome, n)
		}
	}
	for _, file := range flag.Args() {
		if n, traces, err := checkNDJSON(file); err != nil {
			report(file, err)
		} else {
			fmt.Printf("%s: %d spans in %d trace(s) ok\n", file, n, traces)
		}
	}
	if *chrome == "" && flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "tracecheck: no input files (usage: tracecheck [-chrome FILE] FILE...)")
		fail = true
	}
	if fail {
		os.Exit(1)
	}
}

// checkNDJSON validates one NDJSON trace file and returns the span and
// trace counts.
func checkNDJSON(file string) (spans, traces int, err error) {
	f, err := os.Open(file)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	recs, err := trace.ParseNDJSON(f)
	if err != nil {
		return 0, 0, err
	}
	if len(recs) == 0 {
		return 0, 0, fmt.Errorf("no trace records")
	}

	seen := make(map[string]bool, len(recs)) // trace NUL path
	ids := make(map[string]bool)
	for i, r := range recs {
		at := func(format string, args ...interface{}) error {
			return fmt.Errorf("record %d (path %q): %s", i+1, r.Path, fmt.Sprintf(format, args...))
		}
		switch {
		case r.Trace == "":
			return 0, 0, at("empty trace ID")
		case r.Span == "":
			return 0, 0, at("empty span ID")
		case r.Path == "":
			return 0, 0, at("empty path")
		case r.Name == "":
			return 0, 0, at("empty name")
		}
		if want := trace.SpanID(r.Trace, r.Path); r.Span != want {
			return 0, 0, at("span ID %s is not the derived %s — IDs must be a pure function of (trace, path)", r.Span, want)
		}
		if strings.Contains(r.Path, "/") && !parentIsPrefix(r) {
			return 0, 0, at("parent ID %s is not the derived ID of any path prefix ending at a \"/\"", r.Parent)
		}
		key := r.Trace + "\x00" + r.Path
		if seen[key] {
			return 0, 0, at("duplicate span: exported twice in trace %s", r.Trace)
		}
		seen[key] = true
		if !ids[r.Trace] {
			ids[r.Trace] = true
			traces++
		}
		if c := r.Counters; c != nil && (c.ACT < 0 || c.PRE < 0 || c.RD < 0 || c.WR < 0 || c.REF < 0) {
			return 0, 0, at("negative command counters %+v", *c)
		}
		if r.Batches < 0 || r.DurUs < 0 || r.StartUs < 0 {
			return 0, 0, at("negative batches/timing (batches %d, startUs %d, durUs %d)", r.Batches, r.StartUs, r.DurUs)
		}
	}
	return len(recs), traces, nil
}

// parentIsPrefix reports whether r's parent ID is the derived ID of a
// proper prefix of its path that ends at a "/".
func parentIsPrefix(r trace.Record) bool {
	for j := 0; j < len(r.Path); j++ {
		if r.Path[j] == '/' && r.Parent == trace.SpanID(r.Trace, r.Path[:j]) {
			return true
		}
	}
	return false
}

// checkChrome validates a Chrome trace-event envelope: well-formed
// JSON, a non-empty traceEvents array, and every event a complete
// ("X") event with a name.
func checkChrome(file string) (int, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return 0, err
	}
	var env struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return 0, fmt.Errorf("not valid trace-event JSON: %w", err)
	}
	if len(env.TraceEvents) == 0 {
		return 0, fmt.Errorf("no trace events")
	}
	for i, ev := range env.TraceEvents {
		if ev.Name == "" || ev.Ph != "X" {
			return 0, fmt.Errorf("event %d: want a named complete event, got name %q ph %q", i+1, ev.Name, ev.Ph)
		}
		if ev.Dur < 0 {
			return 0, fmt.Errorf("event %d (%s): negative duration %d", i+1, ev.Name, ev.Dur)
		}
	}
	return len(env.TraceEvents), nil
}
