package expt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"dramscope/internal/core"
	"dramscope/internal/rng"
	"dramscope/internal/stats"
	"dramscope/internal/topo"
)

// partSuite builds a suite around one partitioned experiment on the
// Small device: each unit reads the recovered subarray layout through
// its clone's primed cache, and mixes in its own seed. It exercises
// every shard-layer feature except heavy measurement.
func partSuite(t *testing.T, seed uint64) *Suite {
	t.Helper()
	s := NewSuite(seed)
	s.RegisterProfile(topo.Small())
	dev := topo.Small().Name

	if err := s.Register(Experiment{
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
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(Experiment{
		Name: "part", Title: "partitioned",
		Needs: Needs{Device: dev, Probe: ProbeSubarrays},
		Part: &Partition{
			Units: 6,
			Unit: func(sj *ShardJob) (interface{}, error) {
				sub, err := sj.Env().Subarrays()
				if err != nil {
					return nil, err
				}
				// A unit result that depends on the probe view, the
				// unit index, and the unit seed — anything scheduling-
				// dependent would break the byte-identity assertions.
				return fmt.Sprintf("%d:%d:%#x", sj.Unit(), len(sub.Heights), sj.Seed()), nil
			},
			Merge: func(j *Job, units []interface{}) error {
				// The merge measures nothing, so it gets no device.
				if j.Env() != nil {
					return fmt.Errorf("merge got a device Env")
				}
				tbl := stats.NewTable("unit", "result")
				for i, u := range units {
					tbl.Row(i, u)
				}
				j.Emit("part", tbl)
				return nil
			},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(Experiment{
		Name: "tail", Title: "chain tail",
		Needs: Needs{Device: dev, Probe: ProbeOrder},
		Run: func(j *Job) error {
			j.Printf("after the partition\n")
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCrossShardSuiteDeterministic mirrors the cross-jobs determinism
// test at the shard level: for a fixed seed, the rendered text and the
// JSON report are byte-identical for every (jobs, shards) combination,
// including shard counts far above the unit count.
func TestCrossShardSuiteDeterministic(t *testing.T) {
	t.Parallel()
	run := func(jobs, shards int) (string, []byte) {
		t.Helper()
		rep, err := partSuite(t, 7).Run(Options{Spec: RunSpec{Jobs: jobs, Shards: shards}})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		data, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Text(), data
	}
	refText, refJSON := run(1, 1)
	if !strings.Contains(refText, "after the partition") {
		t.Fatalf("chain tail missing:\n%s", refText)
	}
	for _, jobs := range []int{1, 4} {
		for _, shards := range []int{1, 2, 6, 64} {
			text, data := run(jobs, shards)
			if text != refText {
				t.Errorf("jobs=%d shards=%d text differs:\n--- ref ---\n%s--- got ---\n%s",
					jobs, shards, refText, text)
			}
			if !bytes.Equal(data, refJSON) {
				t.Errorf("jobs=%d shards=%d JSON differs", jobs, shards)
			}
		}
	}
	// A different seed must change the seed-derived unit results.
	if text, _ := run2(t, 8); text == refText {
		t.Error("seed change did not change output")
	}
}

// run2 runs partSuite at another seed (split out so the main test body
// stays readable).
func run2(t *testing.T, seed uint64) (string, []byte) {
	t.Helper()
	rep, err := partSuite(t, seed).Run(Options{Spec: RunSpec{Jobs: 2, Shards: 3}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return rep.Text(), data
}

// TestCrossShardFig16 is the tentpole acceptance test: the Figure 16
// sweep (on the fast Small device) produces byte-identical SweepResult
// JSON for shards = 1, 4, 16, and 256, at different worker counts.
func TestCrossShardFig16(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("256-combination sweep")
	}
	// Under the race detector this test costs minutes; run it there
	// only in the dedicated cross-shard CI job (which sets the env
	// var), not in every blanket `go test -race ./...`.
	if raceEnabled && os.Getenv("DRAMSCOPE_CROSS_SHARD_RACE") == "" {
		t.Skip("race-instrumented sweep; covered by the cross-shard CI job")
	}
	run := func(jobs, shards int) []byte {
		t.Helper()
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
		rep, err := s.Run(Options{Spec: RunSpec{Jobs: jobs, Shards: shards}})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		res, ok := s.results["fig16"].(*core.SweepResult)
		if !ok {
			t.Fatalf("fig16 stored %T, want *core.SweepResult", s.results["fig16"])
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	ref := run(1, 1)
	var refRes core.SweepResult
	if err := json.Unmarshal(ref, &refRes); err != nil {
		t.Fatal(err)
	}
	if refRes.WorstRelative <= 1 {
		t.Fatalf("degenerate sweep: worst relative %v", refRes.WorstRelative)
	}
	for _, cfg := range []struct{ jobs, shards int }{
		{4, 4}, {2, 16}, {8, 256},
	} {
		if got := run(cfg.jobs, cfg.shards); !bytes.Equal(got, ref) {
			t.Errorf("jobs=%d shards=%d SweepResult differs from shards=1", cfg.jobs, cfg.shards)
		}
	}
}

// TestCrossShardUnitFailure checks that a failing unit surfaces as a
// deterministic experiment error — blaming the lowest failing unit
// index, not whichever shard finished first — and that dependents are
// skipped with the experiment's name.
func TestCrossShardUnitFailure(t *testing.T) {
	t.Parallel()
	run := func(jobs, shards int) (string, string) {
		s := NewSuite(1)
		if err := s.Register(Experiment{
			Name: "flaky",
			Part: &Partition{
				Units: 9,
				Unit: func(sj *ShardJob) (interface{}, error) {
					switch sj.Unit() {
					case 3:
						return nil, fmt.Errorf("unit three broke")
					case 7:
						panic("unit seven panicked")
					}
					return sj.Unit(), nil
				},
				Merge: func(*Job, []interface{}) error { return nil },
			},
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.Register(Experiment{
			Name:  "dependent",
			Needs: Needs{After: []string{"flaky"}},
			Run:   func(*Job) error { return nil },
		}); err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(Options{Spec: RunSpec{Jobs: jobs, Shards: shards}})
		if err != nil {
			t.Fatal(err)
		}
		byName := map[string]*ExptResult{}
		for _, res := range rep.Results {
			byName[res.Name] = res
		}
		if byName["flaky"].Err == nil || byName["dependent"].Err == nil {
			t.Fatalf("missing errors: %+v", rep.Results)
		}
		return byName["flaky"].Err.Error(), byName["dependent"].Err.Error()
	}
	wantFlaky := "unit 3/9: unit three broke"
	wantDep := "skipped: dependency flaky failed"
	for _, jobs := range []int{1, 4} {
		for _, shards := range []int{1, 3, 9} {
			flaky, dep := run(jobs, shards)
			if flaky != wantFlaky {
				t.Errorf("jobs=%d shards=%d: flaky error %q, want %q", jobs, shards, flaky, wantFlaky)
			}
			if dep != wantDep {
				t.Errorf("jobs=%d shards=%d: dependent error %q, want %q", jobs, shards, dep, wantDep)
			}
		}
	}
}

// TestCrossShardEnvFailureSurfacesRootCause checks that when the
// device of a partitioned or a monolithic experiment cannot be built
// (or warmed), the visible result carries the warm-up's real error —
// not a self-referential "skipped: dependency <self> failed" pointing
// at hidden shard nodes the report omits, nor a unit failure — for any
// worker and shard count.
func TestCrossShardEnvFailureSurfacesRootCause(t *testing.T) {
	t.Parallel()
	for _, jobs := range []int{1, 4} {
		for _, shards := range []int{1, 4} {
			s := NewSuite(1)
			if err := s.Register(Experiment{
				Name:  "ghostly",
				Needs: Needs{Device: "ghost-device"},
				Part: &Partition{
					Units: 4,
					Unit:  func(*ShardJob) (interface{}, error) { return nil, nil },
					Merge: func(*Job, []interface{}) error { return nil },
				},
			}); err != nil {
				t.Fatal(err)
			}
			if err := s.Register(Experiment{
				Name:  "haunted",
				Needs: Needs{Device: "ghost-device"},
				Run:   func(*Job) error { return nil },
			}); err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run(Options{Spec: RunSpec{Jobs: jobs, Shards: shards}})
			if err != nil {
				t.Fatal(err)
			}
			// The device failure is reported as is: neither a skip nor
			// wrapped as a unit failure.
			for _, res := range rep.Results {
				if want := `suite: unknown device profile "ghost-device"`; res.Err == nil || res.Err.Error() != want {
					t.Errorf("jobs=%d shards=%d: %s error %v, want %q", jobs, shards, res.Name, res.Err, want)
				}
			}
		}
	}
}

// TestShardSeedsAreUnitSeeds pins the shard seed derivation: unit i of
// experiment X draws SplitN(Split(suiteSeed, "expt:X"), "unit", i),
// regardless of shard or worker count.
func TestShardSeedsAreUnitSeeds(t *testing.T) {
	t.Parallel()
	const suiteSeed = 11
	run := func(jobs, shards int) []uint64 {
		s := NewSuite(suiteSeed)
		seeds := make([]uint64, 5)
		if err := s.Register(Experiment{
			Name: "seeded",
			Part: &Partition{
				Units: len(seeds),
				Unit: func(sj *ShardJob) (interface{}, error) {
					seeds[sj.Unit()] = sj.Seed() // disjoint slots
					return nil, nil
				},
				Merge: func(*Job, []interface{}) error { return nil },
			},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(Options{Spec: RunSpec{Jobs: jobs, Shards: shards}}); err != nil {
			t.Fatal(err)
		}
		return seeds
	}
	base := rng.Split(suiteSeed, "expt:seeded")
	want := make([]uint64, 5)
	for i := range want {
		want[i] = rng.SplitN(base, "unit", i)
	}
	for _, cfg := range []struct{ jobs, shards int }{{1, 1}, {4, 2}, {2, 5}} {
		got := run(cfg.jobs, cfg.shards)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("jobs=%d shards=%d: unit %d seed %#x, want %#x",
					cfg.jobs, cfg.shards, i, got[i], want[i])
			}
		}
	}
}

// TestRegisterPartitionValidation checks the Partition registration
// contract.
func TestRegisterPartitionValidation(t *testing.T) {
	t.Parallel()
	unit := func(*ShardJob) (interface{}, error) { return nil, nil }
	merge := func(*Job, []interface{}) error { return nil }
	cases := []struct {
		desc string
		e    Experiment
	}{
		{"both Run and Part", Experiment{
			Name: "x", Run: func(*Job) error { return nil },
			Part: &Partition{Units: 1, Unit: unit, Merge: merge}}},
		{"zero units", Experiment{Name: "x", Part: &Partition{Units: 0, Unit: unit, Merge: merge}}},
		{"nil Unit", Experiment{Name: "x", Part: &Partition{Units: 1, Merge: merge}}},
		{"nil Merge", Experiment{Name: "x", Part: &Partition{Units: 1, Unit: unit}}},
	}
	for _, c := range cases {
		if err := NewSuite(1).Register(c.e); err == nil {
			t.Errorf("%s not rejected", c.desc)
		}
	}
	ok := Experiment{Name: "ok", Part: &Partition{Units: 1, Unit: unit, Merge: merge}}
	if err := NewSuite(1).Register(ok); err != nil {
		t.Errorf("valid partition rejected: %v", err)
	}
}

// TestCloneEnvSharesProbesNotState checks the clone contract: the
// probe view is shared (same cached pointers, no re-probing), the
// device state is not (the clone starts pristine).
func TestCloneEnvSharesProbesNotState(t *testing.T) {
	t.Parallel()
	parent, err := NewEnv(topo.Small(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.Warm(ProbeSwizzle); err != nil {
		t.Fatal(err)
	}
	clone, err := parent.Clone()
	if err != nil {
		t.Fatal(err)
	}
	pro, _ := parent.Order()
	cro, err := clone.Order()
	if err != nil {
		t.Fatal(err)
	}
	if pro != cro {
		t.Error("clone re-ran the row-order probe instead of sharing the cached result")
	}
	psm, _ := parent.Swizzle()
	csm, _ := clone.Swizzle()
	if psm != csm {
		t.Error("clone re-ran the swizzle probe")
	}
	if clone.Chip == parent.Chip || clone.Host == parent.Host {
		t.Fatal("clone shares the parent device")
	}
	if touched := clone.Chip.TouchedRows(0); touched != 0 {
		t.Errorf("clone device not pristine: %d touched rows", touched)
	}
	if parent.Chip.TouchedRows(0) == 0 {
		t.Error("parent device unexpectedly pristine after warming")
	}
	// An unwarmed parent's clone probes for itself and — both devices
	// being bit-identical — recovers the same mapping.
	cold, err := NewEnv(topo.Small(), 3)
	if err != nil {
		t.Fatal(err)
	}
	coldClone, err := cold.Clone()
	if err != nil {
		t.Fatal(err)
	}
	sm, err := coldClone.Swizzle()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(sm.Orders), fmt.Sprint(psm.Orders); got != want {
		t.Errorf("cold clone recovered %s, want %s", got, want)
	}
}
