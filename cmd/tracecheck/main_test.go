package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dramscope/internal/host"
	"dramscope/internal/trace"
)

// table3Tree records the shape the suite exports for a Table III run:
// an experiment whose name contains "/" hangs under the run span, not
// under the span whose path is its prefix before the last "/".
func table3Tree() []trace.Record {
	rec := trace.New("tracecheck-test")
	root := rec.Root("run", "run").Begin()
	root.Child("expt:table3", "table3").Begin().End()
	x := root.Child("expt:table3/X", "table3/X").Begin()
	k := x.Child("kernel", "kernel")
	k.AddCounters(host.Counters{ACT: 3, PRE: 3})
	x.End()
	root.End()
	return rec.Records()
}

func writeTrace(t *testing.T, recs []trace.Record) string {
	t.Helper()
	file := filepath.Join(t.TempDir(), "trace.ndjson")
	if err := os.WriteFile(file, trace.NDJSON(recs), 0o644); err != nil {
		t.Fatal(err)
	}
	return file
}

// TestSlashInComponentAccepted: a parent that is the derived ID of an
// earlier "/"-terminated prefix is valid — the suite's table3 devices.
func TestSlashInComponentAccepted(t *testing.T) {
	n, traces, err := checkNDJSON(writeTrace(t, table3Tree()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || traces != 1 {
		t.Fatalf("checked %d spans in %d traces, want 4 in 1", n, traces)
	}
}

// TestForgedParentRejected: a parent ID that derives from no prefix of
// the span's path still fails.
func TestForgedParentRejected(t *testing.T) {
	recs := table3Tree()
	forged := false
	for i := range recs {
		if recs[i].Path == "run/expt:table3/X/kernel" {
			recs[i].Parent = trace.SpanID(recs[i].Trace, "run/elsewhere")
			forged = true
		}
	}
	if !forged {
		t.Fatal("kernel span missing from the recorded tree")
	}
	_, _, err := checkNDJSON(writeTrace(t, recs))
	if err == nil || !strings.Contains(err.Error(), "parent ID") {
		t.Fatalf("forged parent: err = %v, want a parent ID violation", err)
	}
}
