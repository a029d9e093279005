package expt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"dramscope/internal/topo"
	"dramscope/internal/trace"
)

// tracedRun executes partSuite with tracing and returns (report JSON,
// shape bytes).
func tracedRun(t *testing.T, jobs, shards int) ([]byte, []byte) {
	t.Helper()
	rec := trace.New("fixed-trace-id")
	root := rec.Root("run", "run").Begin()
	rep, err := partSuite(t, 7).Run(Options{
		Spec:  RunSpec{Jobs: jobs, Shards: shards},
		Trace: root,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	root.End()
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data, trace.ShapeNDJSON(rec.Records())
}

// TestTraceReportBytesUnmoved is the acceptance criterion's first
// half: enabling tracing changes no report byte.
func TestTraceReportBytesUnmoved(t *testing.T) {
	t.Parallel()
	plain, err := partSuite(t, 7).Run(Options{Spec: RunSpec{Jobs: 2, Shards: 3}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := tracedRun(t, 2, 3)
	if !bytes.Equal(got, want) {
		t.Fatalf("traced report differs from untraced:\n--- untraced ---\n%s\n--- traced ---\n%s", want, got)
	}
}

// TestTraceShapeDeterministic asserts the span-tree shape — IDs,
// parentage, names, attrs, counter deltas — is byte-identical for any
// (jobs, shards) combination on the synthetic partitioned suite.
func TestTraceShapeDeterministic(t *testing.T) {
	t.Parallel()
	_, ref := tracedRun(t, 1, 1)
	for _, jobs := range []int{1, 4} {
		for _, shards := range []int{1, 2, 6, 64} {
			_, shape := tracedRun(t, jobs, shards)
			if !bytes.Equal(shape, ref) {
				t.Errorf("jobs=%d shards=%d trace shape differs:\n--- ref ---\n%s--- got ---\n%s",
					jobs, shards, ref, shape)
			}
		}
	}

	// Structure spot checks on the reference shape.
	recs, err := trace.ParseNDJSON(bytes.NewReader(ref))
	if err != nil {
		t.Fatal(err)
	}
	paths := make(map[string]trace.Record, len(recs))
	for _, rec := range recs {
		paths[rec.Path] = rec
	}
	for _, want := range []string{
		"run",
		"run/expt:head", "run/expt:head/kernel",
		"run/expt:part", "run/expt:part/merge",
		"run/expt:tail",
		"run/warm:Small-test",
	} {
		if _, ok := paths[want]; !ok {
			t.Errorf("missing span %q; have %v", want, pathList(recs))
		}
	}
	for i := 0; i < 6; i++ {
		up := fmt.Sprintf("run/expt:part/unit:%06d", i)
		if _, ok := paths[up]; !ok {
			t.Fatalf("missing unit span %q", up)
		}
		// partSuite units only read probe results through caches primed
		// from the warmed parent, so their kernels are legitimately
		// zero-cost — presence is the invariant here; nonzero counters
		// are asserted by TestTraceKernelCostAttribution.
		if _, ok := paths[up+"/kernel"]; !ok {
			t.Fatalf("missing kernel span under %q", up)
		}
	}
	// Cold run: the warm span carries the probe-chain bill.
	if w := paths["run/warm:Small-test"]; w.Counters == nil || w.Counters.ACT == 0 {
		t.Errorf("warm span carries no probe cost: %+v", paths["run/warm:Small-test"])
	}
	// Parentage is the path prefix relation.
	for _, rec := range recs {
		if rec.Path == "run" {
			continue
		}
		i := strings.LastIndex(rec.Path, "/")
		parent, ok := paths[rec.Path[:i]]
		if !ok || rec.Parent != parent.Span {
			t.Errorf("span %q parent %q does not match %q", rec.Path, rec.Parent, rec.Path[:i])
		}
	}
}

// TestTraceKernelCostAttribution asserts that a unit that actually
// drives its measurement clone's device shows that cost — command
// counters and batched-burst dispatches — on its kernel span, and that
// the cold warm-up bill lands on the warm span, not the kernels.
func TestTraceKernelCostAttribution(t *testing.T) {
	t.Parallel()
	s := NewSuite(7)
	s.RegisterProfile(topo.Small())
	dev := topo.Small().Name
	if err := s.Register(Experiment{
		Name: "measure", Title: "measuring partition",
		Needs: Needs{Device: dev, Probe: ProbeOrder},
		Part: &Partition{
			Units: 2,
			Unit: func(sj *ShardJob) (interface{}, error) {
				if err := sj.Env().Host.FillRow(0, sj.Unit(), 0xA5); err != nil {
					return nil, err
				}
				return sj.Unit(), nil
			},
			Merge: func(j *Job, units []interface{}) error {
				j.Printf("%d units\n", len(units))
				return nil
			},
		},
	}); err != nil {
		t.Fatal(err)
	}
	rec := trace.New("cost")
	root := rec.Root("run", "run").Begin()
	rep, err := s.Run(Options{Spec: RunSpec{Jobs: 2, Shards: 2}, Trace: root})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	root.End()
	paths := make(map[string]trace.Record)
	for _, r := range rec.Records() {
		paths[r.Path] = r
	}
	for i := 0; i < 2; i++ {
		k, ok := paths[fmt.Sprintf("run/expt:measure/unit:%06d/kernel", i)]
		if !ok {
			t.Fatalf("missing kernel span for unit %d; have %v", i, pathList(rec.Records()))
		}
		if k.Counters == nil || k.Counters.ACT == 0 || k.Counters.WR == 0 || k.Batches == 0 {
			t.Errorf("unit %d kernel carries no device cost: %+v", i, k)
		}
	}
	w, ok := paths["run/warm:"+dev]
	if !ok {
		t.Fatalf("missing warm span; have %v", pathList(rec.Records()))
	}
	if w.Counters == nil || w.Counters.ACT == 0 {
		t.Errorf("warm span carries no probe cost: %+v", w)
	}
}

// TestTraceWarmSpan asserts that a device's warm node times its span
// and that a failed warm-up records its error there, beside the
// experiments that report it.
func TestTraceWarmSpan(t *testing.T) {
	t.Parallel()
	s := NewSuite(7)
	s.RegisterProfile(topo.Small())
	for _, dev := range []string{topo.Small().Name, "ghost-device"} {
		if err := s.Register(Experiment{
			Name:  "on:" + dev,
			Needs: Needs{Device: dev, Probe: ProbeOrder},
			Run:   func(*Job) error { return nil },
		}); err != nil {
			t.Fatal(err)
		}
	}
	rec := trace.New("warm")
	root := rec.Root("run", "run").Begin()
	if _, err := s.Run(Options{Spec: RunSpec{Jobs: 2}, Trace: root}); err != nil {
		t.Fatal(err)
	}
	root.End()
	paths := make(map[string]trace.Record)
	for _, r := range rec.Records() {
		paths[r.Path] = r
	}
	attrs := func(r trace.Record) (a struct {
		Device string `json:"device"`
		Level  int    `json:"level"`
		Error  string `json:"error"`
	}) {
		if err := json.Unmarshal(r.Attrs, &a); err != nil {
			t.Fatalf("%s attrs %s: %v", r.Path, r.Attrs, err)
		}
		return a
	}

	cold, ok := paths["run/warm:"+topo.Small().Name]
	if !ok {
		t.Fatalf("missing warm span; have %v", pathList(rec.Records()))
	}
	if cold.DurUs <= 0 || cold.Counters == nil || cold.Counters.ACT == 0 {
		t.Errorf("cold warm span is untimed or carries no probe cost: %+v", cold)
	}
	if a := attrs(cold); a.Device != topo.Small().Name || a.Level != int(ProbeOrder) || a.Error != "" {
		t.Errorf("cold warm span attrs %s", cold.Attrs)
	}

	ghost, ok := paths["run/warm:ghost-device"]
	if !ok {
		t.Fatalf("missing failed warm span; have %v", pathList(rec.Records()))
	}
	if want := `suite: unknown device profile "ghost-device"`; attrs(ghost).Error != want {
		t.Errorf("failed warm span attrs %s, want error %q", ghost.Attrs, want)
	}
	if ghost.DurUs <= 0 || ghost.Counters != nil {
		t.Errorf("failed warm span: %+v", ghost)
	}
}

func pathList(recs []trace.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Path
	}
	return out
}

// TestTraceShapeGoldenSuite locks the full default suite's trace
// shape across the jobs/shards matrix the issue names: (1,1) vs
// (4,16). Skipped in -short — it runs the whole suite twice.
func TestTraceShapeGoldenSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full default suite; skipped in -short")
	}
	t.Parallel()
	run := func(jobs, shards int) []byte {
		t.Helper()
		suite, err := DefaultSuite(DefaultFigProfile, DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.New("golden")
		root := rec.Root("run", "run").Begin()
		rep, err := suite.Run(Options{Spec: RunSpec{Jobs: jobs, Shards: shards}, Trace: root})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		root.End()
		return trace.ShapeNDJSON(rec.Records())
	}
	ref := run(1, 1)
	got := run(4, 16)
	if !bytes.Equal(ref, got) {
		t.Fatalf("golden suite trace shape differs between (1,1) and (4,16):\n--- (1,1) ---\n%s--- (4,16) ---\n%s", ref, got)
	}
}

// TestCampaignTrace asserts the campaign layer's span tree: a derived
// trace ID, one member span per spec in order, and each member's suite
// spans nested below it.
func TestCampaignTrace(t *testing.T) {
	t.Parallel()
	factory := func(profile string, seed uint64) (*Suite, error) {
		return partSuite(t, seed), nil
	}
	c := &Campaign{Specs: []RunSpec{{Seed: 7}, {Seed: 9}}}
	rec := trace.New("")
	root := rec.Root("campaign", "campaign").Begin()
	rep, err := c.Run(CampaignOptions{Jobs: 2, Factory: factory, Trace: root})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	root.End()
	if rec.TraceID() == "" {
		t.Fatal("campaign did not derive a trace id")
	}
	recs := rec.Records()
	paths := make(map[string]bool, len(recs))
	for _, r := range recs {
		paths[r.Path] = true
	}
	for _, want := range []string{
		"campaign",
		"campaign/member:000000",
		"campaign/member:000000/queue",
		"campaign/member:000000/execute/expt:part/unit:000003/kernel",
		"campaign/member:000001",
		"campaign/member:000001/queue",
		"campaign/member:000001/execute/expt:head",
	} {
		if !paths[want] {
			t.Errorf("missing campaign span %q; have %v", want, pathList(recs))
		}
	}
}
