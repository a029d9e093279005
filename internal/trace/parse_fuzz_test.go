package trace

import (
	"bytes"
	"strings"
	"testing"

	"dramscope/internal/host"
)

// FuzzParseNDJSON covers the bytes a coordinator grafts from a worker's
// trace response. ParseNDJSON must never panic, and the records it
// accepts must re-export to a fixed point: writing them, parsing that
// stream and writing again gives the same bytes, so a grafted subtree
// survives any number of export round trips unchanged.
func FuzzParseNDJSON(f *testing.F) {
	r := NewLinked(Link{Trace: "cafe", Parent: "0123456789abcdef", Path: "campaign/member:0/run/dispatch:1"})
	root := r.Root("run", "run").Begin()
	e := root.Child("expt:fig16", "fig16").SetAttr("unit", 3).SetAttr("note", "<a & b>").Begin()
	k := e.Child("kernel", "kernel")
	k.AddCounters(host.Counters{ACT: 10, RD: 4})
	k.AddBatches(2)
	e.End()
	root.End()
	f.Add(NDJSON(r.Records()))
	f.Add([]byte(""))
	f.Add([]byte("\n\n  \n"))
	f.Add([]byte("null\n"))
	f.Add([]byte(`{"trace":"t","span":"s","name":"n","path":"p","attrs":{"k" : [1, 2.50]}}` + "\n"))
	f.Add([]byte(`{"trace":"t","attrs":null,"counters":{},"batches":-1,"startUs":1}`))
	f.Add([]byte("{\"name\":\"\xff\"}\n{\"trace\":"))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ParseNDJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		first := NDJSON(recs)
		again, err := ParseNDJSON(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-parsing an export failed: %v\n%s", err, first)
		}
		if second := NDJSON(again); !bytes.Equal(first, second) {
			t.Fatalf("export is not a fixed point:\n%s\nvs\n%s", first, second)
		}
	})
}

// FuzzParseHeader covers the X-Dramscope-Trace value a worker reads
// from a coordinator's POST /runs. ParseHeader must never panic, and a
// header it accepts must round-trip through FormatHeader.
func FuzzParseHeader(f *testing.F) {
	f.Add(FormatHeader(Link{Trace: "cafe", Parent: "0123456789abcdef", Path: "campaign/member:0/run/dispatch:1"}))
	f.Add("")
	f.Add("a b")
	f.Add("a b c d")
	f.Add("  a\tb c \n")
	f.Add("a b c")

	f.Fuzz(func(t *testing.T, v string) {
		l, ok := ParseHeader(v)
		if !ok {
			return
		}
		for _, field := range []string{l.Trace, l.Parent, l.Path} {
			if field == "" || strings.ContainsAny(field, " \t\n") {
				t.Fatalf("ParseHeader(%q) accepted an empty or spaced field: %+v", v, l)
			}
		}
		back, ok := ParseHeader(FormatHeader(l))
		if !ok || back != l {
			t.Fatalf("ParseHeader(%q) = %+v, but its FormatHeader %q parses to %+v (ok=%v)",
				v, l, FormatHeader(l), back, ok)
		}
	})
}
