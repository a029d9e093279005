package serve

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"dramscope/internal/expt"
)

// FuzzSplitReport fuzzes expt.SplitReport, the one check every report
// from outside the process passes — store entries and worker responses
// alike — together with the stream lines serve rebuilds from an
// accepted report. The selection is the golden suite's. Properties:
// SplitReport never panics; it accepts exactly when the report's
// "experiments" names equal the selection, in order; and every replayed
// stream line decodes back to its experiment object, at its index.
func FuzzSplitReport(f *testing.F) {
	golden, err := os.ReadFile("../expt/testdata/suite_report.json")
	if err != nil {
		f.Fatal(err)
	}
	rs, _, err := expt.ResolveSpec(expt.RunSpec{Profile: expt.DefaultFigProfile, Seed: expt.DefaultSeed}, expt.DefaultSuite)
	if err != nil {
		f.Fatal(err)
	}
	names := rs.Names
	if got, ok := reportNames(golden); !ok || !reflect.DeepEqual(got, names) {
		f.Fatalf("golden report names %v do not match the default selection %v", got, names)
	}

	var doc map[string]any
	if err := json.Unmarshal(golden, &doc); err != nil {
		f.Fatal(err)
	}
	exps := doc["experiments"].([]any)
	exps[0], exps[1] = exps[1], exps[0]
	reordered, err := json.Marshal(doc)
	if err != nil {
		f.Fatal(err)
	}
	exps[0], exps[1] = exps[1], exps[0]
	doc["extra"] = map[string]any{"experiments": []any{}}
	exps[0].(map[string]any)["extra"] = true
	extraKeys, err := json.Marshal(doc)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(reordered)
	f.Add(extraKeys)

	f.Fuzz(func(t *testing.T, report []byte) {
		split, err := expt.SplitReport(report, names)
		got, ok := reportNames(report)
		if want := ok && reflect.DeepEqual(got, names); (err == nil) != want {
			t.Fatalf("SplitReport accepted=%v (err %v), want %v: names %v", err == nil, err, want, got)
		}
		if err != nil {
			return
		}
		lines, err := replayLines(report, names)
		if err != nil {
			t.Fatalf("accepted report replays no lines: %v", err)
		}
		if len(lines) != len(split) {
			t.Fatalf("%d lines for %d experiments", len(lines), len(split))
		}
		for i, line := range lines {
			var ev struct {
				Index      int             `json:"index"`
				Total      int             `json:"total"`
				Experiment json.RawMessage `json:"experiment"`
			}
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatalf("line %d does not decode: %v\n%s", i, err, line)
			}
			if ev.Index != i || ev.Total != len(names) {
				t.Fatalf("line %d carries index %d of %d", i, ev.Index, ev.Total)
			}
			if !sameJSON(t, ev.Experiment, split[i]) {
				t.Fatalf("line %d experiment differs from the report's:\nline:   %s\nreport: %s", i, ev.Experiment, split[i])
			}
		}
	})
}

// reportNames is the validator's reference: the experiment names a
// report lists, decoded in one typed pass; ok is false when the report
// does not decode.
func reportNames(report []byte) ([]string, bool) {
	var doc struct {
		Experiments []struct {
			Name string `json:"name"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(report, &doc); err != nil {
		return nil, false
	}
	names := make([]string, len(doc.Experiments))
	for i, e := range doc.Experiments {
		names[i] = e.Name
	}
	return names, true
}

// sameJSON reports whether two JSON documents decode to equal values.
func sameJSON(t *testing.T, a, b []byte) bool {
	t.Helper()
	var va, vb any
	if err := json.Unmarshal(a, &va); err != nil {
		t.Fatalf("decode %s: %v", a, err)
	}
	if err := json.Unmarshal(b, &vb); err != nil {
		t.Fatalf("decode %s: %v", b, err)
	}
	return reflect.DeepEqual(va, vb)
}
