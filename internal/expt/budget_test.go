package expt

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dramscope/internal/topo"
	"dramscope/internal/trace"
)

// budgetSuite is a pure device-chain suite (no free-floating
// experiments), so with -jobs 1 a budget stop is fully deterministic:
// the chain head pays the warm-up, crosses a tiny cap, and everything
// after it fails fast in registration order.
func budgetSuite(t *testing.T, seed uint64) *Suite {
	t.Helper()
	s := NewSuite(seed)
	s.RegisterProfile(topo.Small())
	dev := topo.Small().Name
	reg := func(e Experiment) {
		t.Helper()
		if err := s.Register(e); err != nil {
			t.Fatal(err)
		}
	}
	reg(Experiment{
		Name: "head", Title: "chain head",
		Needs: Needs{Device: dev, Probe: ProbeOrder},
		Run: func(j *Job) error {
			ro, err := j.Env().Order()
			if err != nil {
				return err
			}
			j.Printf("remapped: %v\n", ro.Remapped())
			return nil
		},
	})
	reg(Experiment{
		Name: "tail", Title: "chain tail",
		Needs: Needs{Device: dev, Probe: ProbeOrder},
		Run: func(j *Job) error {
			j.Printf("seed: %#x\n", j.Seed())
			return nil
		},
	})
	return s
}

// TestBudgetEnforcedTinyCap: with a cap of one activation the chain
// head's probe warm-up is the offending step — it fails with the typed
// *BudgetError, the rest of the chain fails fast without running, the
// run fails as a whole, and the metered usage is reported.
func TestBudgetEnforcedTinyCap(t *testing.T) {
	t.Parallel()
	s := budgetSuite(t, 7)
	rep, err := s.Run(Options{Spec: RunSpec{Jobs: 1, MaxActivations: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err() == nil {
		t.Fatal("budget-capped run reported no error")
	}
	be := rep.BudgetExceeded()
	if be == nil {
		t.Fatal("Report.BudgetExceeded found no budget error")
	}
	if be.Cap != 1 || be.Used <= 1 {
		t.Fatalf("budget error = %+v, want cap 1 and used > 1", be)
	}
	// The chain head is the offending experiment and carries the typed
	// error; its chain successor is skipped with the usual dependency
	// blame (deterministic, and still rooted in the budget stop).
	byName := map[string]*ExptResult{}
	for _, res := range rep.Results {
		byName[res.Name] = res
	}
	var typed *BudgetError
	if err := byName["head"].Err; err == nil || !errors.As(err, &typed) {
		t.Fatalf("head: err = %v, want a *BudgetError", err)
	}
	if err := byName["tail"].Err; err == nil || err.Error() != "skipped: dependency head failed" {
		t.Fatalf("tail: err = %v, want the dependency skip", err)
	}
	if used := s.ActivationsUsed(); used != be.Used {
		t.Fatalf("ActivationsUsed = %d, budget error recorded %d", used, be.Used)
	}

	// Deterministic at -jobs 1: a second capped run renders the same
	// report bytes (the budget message embeds the same metered count).
	rep2, err := budgetSuite(t, 7).Run(Options{Spec: RunSpec{Jobs: 1, MaxActivations: 1}})
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := rep.JSON()
	j2, _ := rep2.JSON()
	if !bytes.Equal(j1, j2) {
		t.Fatalf("budget-stopped report not deterministic at jobs=1:\n%s\n%s", j1, j2)
	}
}

// TestBudgetGenerousCapUnchanged: a cap the run fits under changes
// nothing — the report is byte-identical to an unbudgeted run.
func TestBudgetGenerousCapUnchanged(t *testing.T) {
	t.Parallel()
	ref, err := budgetSuite(t, 7).Run(Options{Spec: RunSpec{Jobs: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Err(); err != nil {
		t.Fatal(err)
	}
	capped, err := budgetSuite(t, 7).Run(Options{Spec: RunSpec{Jobs: 1, MaxActivations: 1 << 40}})
	if err != nil {
		t.Fatal(err)
	}
	if err := capped.Err(); err != nil {
		t.Fatal(err)
	}
	if capped.BudgetExceeded() != nil {
		t.Fatal("generous cap reported a budget error")
	}
	refJSON, _ := ref.JSON()
	cappedJSON, _ := capped.JSON()
	if !bytes.Equal(refJSON, cappedJSON) {
		t.Fatal("a generous budget changed the report bytes")
	}
}

// TestBudgetStopsUnwarmedPartition: when the budget is blown before a
// partitioned experiment's device was ever warmed (all its shards fail
// their pre-flight), the merge node must not warm the device itself —
// the probe chain is exactly the work the budget bounds. The meter
// must not move after the crossing.
func TestBudgetStopsUnwarmedPartition(t *testing.T) {
	t.Parallel()
	s := NewSuite(7)
	s.RegisterProfile(topo.Small())
	dev := topo.Small().Name
	if err := s.Register(Experiment{
		Name: "first", Title: "blows the cap",
		Needs: Needs{Device: dev, Probe: ProbeOrder},
		Run:   func(j *Job) error { return nil },
	}); err != nil {
		t.Fatal(err)
	}
	// A second device: its chain is never reached within budget, so
	// its probe chain must never be issued.
	other := topo.Small()
	other.Name = "Small-test-2"
	s.RegisterProfile(other)
	if err := s.Register(Experiment{
		Name: "part", Title: "partitioned on a cold device",
		Needs: Needs{Device: other.Name, Probe: ProbeOrder},
		Part: &Partition{
			Units: 2,
			Unit: func(sj *ShardJob) (interface{}, error) {
				_, err := sj.Env().Order()
				return nil, err
			},
			Merge: func(j *Job, vals []interface{}) error { return nil },
		},
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(Options{Spec: RunSpec{Jobs: 1, MaxActivations: 1}})
	if err != nil {
		t.Fatal(err)
	}
	be := rep.BudgetExceeded()
	if be == nil {
		t.Fatalf("no budget error: %v", rep.Err())
	}
	if got := rep.Results[1].Err; got == nil || !strings.HasPrefix(got.Error(), "unit 0/2: activation budget exceeded") {
		t.Fatalf("partition error = %v, want the unit 0 budget failure", got)
	}
	// The meter froze at the first crossing: the merge did not warm
	// the second device's probe chain behind the budget's back.
	if used := s.ActivationsUsed(); used != be.Used {
		t.Fatalf("meter moved after the crossing: used %d, crossing recorded %d — the cold device was probed", used, be.Used)
	}
}

// TestBudgetPartitionUnits: a partitioned experiment under a tiny cap
// surfaces the typed budget error through its merge step (unit 0 is
// the deterministic blame at one worker).
func TestBudgetPartitionUnits(t *testing.T) {
	t.Parallel()
	s := NewSuite(7)
	s.RegisterProfile(topo.Small())
	err := s.Register(Experiment{
		Name: "part", Title: "partitioned",
		Needs: Needs{Device: topo.Small().Name, Probe: ProbeOrder},
		Part: &Partition{
			Units: 4,
			Unit: func(sj *ShardJob) (interface{}, error) {
				if _, err := sj.Env().Order(); err != nil {
					return nil, err
				}
				return sj.Unit(), nil
			},
			Merge: func(j *Job, vals []interface{}) error {
				j.Printf("units: %d\n", len(vals))
				return nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(Options{Spec: RunSpec{Jobs: 1, Shards: 2, MaxActivations: 1}})
	if err != nil {
		t.Fatal(err)
	}
	be := rep.BudgetExceeded()
	if be == nil {
		t.Fatalf("partition did not surface a typed budget error: %v", rep.Err())
	}
	if want := fmt.Sprintf("unit 0/4: %s", be.Error()); rep.Results[0].Err.Error() != want {
		t.Fatalf("merge error = %q, want %q", rep.Results[0].Err, want)
	}
}

// TestPartitionUnitsMetered: partition units measure on clones the
// scheduler makes and meters, exactly like a Run. Fig. 16's units
// therefore carry their sweep's cost on their kernel spans, the meter
// is the probe chain plus those kernels, and a cap one ACT past the
// probe chain stops the sweep at its first unit.
func TestPartitionUnitsMetered(t *testing.T) {
	t.Parallel()
	fig16Suite := func() *Suite {
		s := NewSuite(7)
		s.RegisterProfile(topo.Small())
		if err := s.Register(Experiment{
			Name:  "fig16",
			Title: "Figures 16-17 (Small device)",
			Needs: Needs{Device: topo.Small().Name, Probe: ProbeSwizzle},
			Part:  Fig16Part(4),
		}); err != nil {
			t.Fatal(err)
		}
		return s
	}

	s := fig16Suite()
	rec := trace.New("metered")
	root := rec.Root("run", "run").Begin()
	rep, err := s.Run(Options{Spec: RunSpec{Jobs: 1}, Trace: root})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	root.End()
	var kernels int64
	units := 0
	for _, r := range rec.Records() {
		if !strings.HasPrefix(r.Path, "run/expt:fig16/unit:") || !strings.HasSuffix(r.Path, "/kernel") {
			continue
		}
		units++
		if r.Counters == nil || r.Counters.ACT <= 0 {
			t.Fatalf("%s carries no ACTs: %+v", r.Path, r)
		}
		kernels += r.Counters.ACT
	}
	if units != fig16Combos {
		t.Fatalf("%d unit kernel spans, want %d", units, fig16Combos)
	}
	probe := s.ProbeCost().ACT
	if got := s.ActivationsUsed() - probe; got != kernels {
		t.Fatalf("meter charged %d ACTs beyond the probe chain, unit kernels sum to %d", got, kernels)
	}

	capped := fig16Suite()
	rep, err = capped.Run(Options{Spec: RunSpec{Jobs: 1, MaxActivations: probe + 1}})
	if err != nil {
		t.Fatal(err)
	}
	want := "unit 0/256: activation budget exceeded: 1107856146 ACTs used, cap 1105456131"
	if got := rep.Results[0].Err; got == nil || got.Error() != want {
		t.Fatalf("capped sweep: err = %v, want %q", got, want)
	}
}
