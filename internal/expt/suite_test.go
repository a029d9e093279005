package expt

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dramscope/internal/stats"
	"dramscope/internal/topo"
)

// smallSuite builds a suite of cheap experiments over the topo.Small
// device that exercises every scheduler feature: a shared-device chain
// (a, b), a free-floating experiment (c), and a fan-in render step (d)
// that depends on all three. order, when non-nil, records completion
// order.
func smallSuite(t *testing.T, seed uint64, order *[]string) *Suite {
	t.Helper()
	s := NewSuite(seed)
	s.RegisterProfile(topo.Small())
	dev := topo.Small().Name

	var mu sync.Mutex
	record := func(name string) {
		if order == nil {
			return
		}
		mu.Lock()
		*order = append(*order, name)
		mu.Unlock()
	}
	reg := func(e Experiment) {
		t.Helper()
		if err := s.Register(e); err != nil {
			t.Fatal(err)
		}
	}

	reg(Experiment{
		Name: "a", Title: "chain head",
		Needs: Needs{Device: dev, Probe: ProbeSubarrays},
		Run: func(j *Job) error {
			defer record("a")
			sub, err := j.Env().Subarrays()
			if err != nil {
				return err
			}
			j.SetResult(len(sub.Heights))
			j.Printf("subarrays scanned: %d\n", len(sub.Heights))
			return nil
		},
	})
	reg(Experiment{
		Name: "b", Title: "chain tail",
		Needs: Needs{Device: dev, Probe: ProbeOrder},
		Run: func(j *Job) error {
			defer record("b")
			ro, err := j.Env().Order()
			if err != nil {
				return err
			}
			j.SetResult(ro.Remapped())
			j.Printf("remapped: %v\n", ro.Remapped())
			return nil
		},
	})
	reg(Experiment{
		Name: "c", Title: "independent",
		Run: func(j *Job) error {
			defer record("c")
			j.SetResult(j.Seed())
			j.Printf("seed: %#x\n", j.Seed())
			return nil
		},
	})
	reg(Experiment{
		Name: "d", Title: "fan-in",
		Needs: Needs{After: []string{"a", "b", "c"}},
		Run: func(j *Job) error {
			defer record("d")
			tbl := stats.NewTable("dep", "result")
			for _, dep := range []string{"a", "b", "c"} {
				v, ok := j.Result(dep)
				if !ok {
					return fmt.Errorf("missing result from %s", dep)
				}
				tbl.Row(dep, fmt.Sprintf("%v", v))
			}
			j.Emit("fan-in", tbl)
			return nil
		},
	})
	return s
}

func runSmall(t *testing.T, seed uint64, jobs int, order *[]string) *Report {
	t.Helper()
	rep, err := smallSuite(t, seed, order).Run(Options{Spec: RunSpec{Jobs: jobs}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSuiteDeterministicAcrossJobs is the tentpole guarantee: for a
// fixed seed, the rendered text and the JSON report are byte-identical
// no matter how many workers execute the experiments.
func TestSuiteDeterministicAcrossJobs(t *testing.T) {
	t.Parallel()
	ref := runSmall(t, 7, 1, nil)
	refText := ref.Text()
	refJSON, err := ref.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if refText == "" {
		t.Fatal("empty reference output")
	}
	for _, jobs := range []int{2, 8} {
		rep := runSmall(t, 7, jobs, nil)
		if got := rep.Text(); got != refText {
			t.Errorf("jobs=%d text differs:\n--- jobs=1 ---\n%s--- jobs=%d ---\n%s",
				jobs, refText, jobs, got)
		}
		gotJSON, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, refJSON) {
			t.Errorf("jobs=%d JSON differs", jobs)
		}
	}
	// A different seed must change the seed-derived output.
	if rep := runSmall(t, 8, 1, nil); rep.Text() == refText {
		t.Error("seed change did not change output")
	}
}

// TestSuiteDeviceChainOrder checks that the fan-in step runs after all
// of its dependencies. Experiments sharing a device have no order
// between them (TestSuiteSameDeviceConcurrent).
func TestSuiteDeviceChainOrder(t *testing.T) {
	t.Parallel()
	var order []string
	runSmall(t, 7, 8, &order)
	pos := map[string]int{}
	for i, name := range order {
		pos[name] = i
	}
	if len(pos) != 4 {
		t.Fatalf("ran %v, want 4 distinct experiments", order)
	}
	if pos["d"] < pos["a"] || pos["d"] < pos["b"] || pos["d"] < pos["c"] {
		t.Errorf("fan-in ran before a dependency: %v", order)
	}
}

// TestSuiteSameDeviceConcurrent checks that experiments on one device
// run concurrently: each measures on its own clone of the warmed Env,
// so nothing orders them, and at -jobs 2 both are in flight at once.
// Each waits at a barrier for the other, which a serial chain through
// the device could never satisfy.
func TestSuiteSameDeviceConcurrent(t *testing.T) {
	t.Parallel()
	s := NewSuite(7)
	s.RegisterProfile(topo.Small())
	arrived := map[string]chan struct{}{"left": make(chan struct{}), "right": make(chan struct{})}
	other := map[string]string{"left": "right", "right": "left"}
	for _, name := range []string{"left", "right"} {
		if err := s.Register(Experiment{
			Name: name, Title: name,
			Needs: Needs{Device: topo.Small().Name, Probe: ProbeOrder},
			Run: func(j *Job) error {
				close(arrived[j.Name()])
				select {
				case <-arrived[other[j.Name()]]:
				case <-time.After(10 * time.Second):
					return fmt.Errorf("the other experiment on the device never started")
				}
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
	}
	rep, err := s.Run(Options{Spec: RunSpec{Jobs: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSuiteSameDeviceFailureIsolated checks that a failed experiment
// does not skip the other experiments on its device, which never read
// its state, at any worker count; its After dependents are still
// skipped.
func TestSuiteSameDeviceFailureIsolated(t *testing.T) {
	t.Parallel()
	dev := topo.Small().Name
	for _, jobs := range []int{1, 4} {
		s := NewSuite(7)
		s.RegisterProfile(topo.Small())
		for _, e := range []Experiment{
			{
				Name:  "broken",
				Needs: Needs{Device: dev, Probe: ProbeOrder},
				Run:   func(*Job) error { return fmt.Errorf("kaput") },
			},
			{
				Name: "sibling", Title: "sibling",
				Needs: Needs{Device: dev, Probe: ProbeOrder},
				Run: func(j *Job) error {
					ro, err := j.Env().Order()
					if err != nil {
						return err
					}
					j.Printf("remapped: %v\n", ro.Remapped())
					return nil
				},
			},
			{
				Name: "units", Title: "units",
				Needs: Needs{Device: dev, Probe: ProbeOrder},
				Part: &Partition{
					Units: 3,
					Unit:  func(sj *ShardJob) (interface{}, error) { return sj.Unit(), nil },
					Merge: func(j *Job, vals []interface{}) error {
						j.Printf("units: %v\n", vals)
						return nil
					},
				},
			},
			{
				Name:  "dependent",
				Needs: Needs{After: []string{"broken"}},
				Run:   func(*Job) error { return nil },
			},
		} {
			if err := s.Register(e); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := s.Run(Options{Spec: RunSpec{Jobs: jobs}})
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]string{
			"broken":    "kaput",
			"sibling":   "",
			"units":     "",
			"dependent": "skipped: dependency broken failed",
		}
		for _, res := range rep.Results {
			got := ""
			if res.Err != nil {
				got = res.Err.Error()
			}
			if got != want[res.Name] {
				t.Errorf("jobs=%d: %s err = %q, want %q", jobs, res.Name, got, want[res.Name])
			}
		}
		if got := rep.Text(); got != "== sibling ==\nremapped: true\n== units ==\nunits: [0 1 2]\n" {
			t.Errorf("jobs=%d: text = %q", jobs, got)
		}
	}
}

// TestSuiteSelectionExpansion checks that selecting an experiment
// transitively selects its After dependencies, and that unknown names
// are rejected.
func TestSuiteSelectionExpansion(t *testing.T) {
	t.Parallel()
	rep, err := smallSuite(t, 7, nil).Run(Options{Spec: RunSpec{Jobs: 2, Only: []string{"d"}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, res := range rep.Results {
		names = append(names, res.Name)
	}
	want := []string{"a", "b", "c", "d"}
	if len(names) != len(want) {
		t.Fatalf("selected %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("selected %v, want %v (registration order)", names, want)
		}
	}

	if _, err := smallSuite(t, 7, nil).Run(Options{Spec: RunSpec{Only: []string{"nope"}}}); err == nil {
		t.Error("unknown experiment name not rejected")
	}
}

// TestSuiteFailurePropagation checks that a failing experiment marks
// its transitive dependents as skipped without wedging the pool.
func TestSuiteFailurePropagation(t *testing.T) {
	t.Parallel()
	s := NewSuite(1)
	if err := s.Register(Experiment{
		Name: "boom",
		Run:  func(*Job) error { return fmt.Errorf("kaput") },
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(Experiment{
		Name:  "after",
		Needs: Needs{After: []string{"boom"}},
		Run:   func(*Job) error { return nil },
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(Experiment{
		Name:  "after2",
		Needs: Needs{After: []string{"after"}},
		Run:   func(*Job) error { return nil },
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(Experiment{
		Name: "bystander",
		Run:  func(j *Job) error { j.Printf("ok\n"); return nil },
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(Options{Spec: RunSpec{Jobs: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err() == nil {
		t.Fatal("expected a suite error")
	}
	byName := map[string]*ExptResult{}
	for _, res := range rep.Results {
		byName[res.Name] = res
	}
	if byName["boom"].Err == nil {
		t.Error("boom should have failed")
	}
	if byName["after"].Err == nil {
		t.Error("dependent of a failed experiment should be skipped with an error")
	}
	// Deep chains must blame the root cause, not the skipped
	// intermediate.
	if got := byName["after2"].Err; got == nil || got.Error() != "skipped: dependency boom failed" {
		t.Errorf("transitive skip blames %v, want the root cause boom", got)
	}
	if byName["bystander"].Err != nil {
		t.Errorf("bystander failed: %v", byName["bystander"].Err)
	}
}

// TestSuiteFailureBlameDeterministic checks that when several
// dependencies fail, the skip message blames the earliest-registered
// one regardless of completion order — the error strings feed the
// JSON report, which must stay byte-identical across worker counts.
func TestSuiteFailureBlameDeterministic(t *testing.T) {
	t.Parallel()
	run := func(jobs int) string {
		s := NewSuite(1)
		for _, name := range []string{"f1", "f2", "f3"} {
			name := name
			if err := s.Register(Experiment{
				Name: name,
				Run:  func(*Job) error { return fmt.Errorf("%s broke", name) },
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Register(Experiment{
			Name:  "sink",
			Needs: Needs{After: []string{"f1", "f2", "f3"}},
			Run:   func(*Job) error { return nil },
		}); err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(Options{Spec: RunSpec{Jobs: jobs}})
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range rep.Results {
			if res.Name == "sink" {
				return res.Err.Error()
			}
		}
		t.Fatal("sink missing from report")
		return ""
	}
	want := "skipped: dependency f1 failed"
	for _, jobs := range []int{1, 4, 8} {
		for rep := 0; rep < 5; rep++ {
			if got := run(jobs); got != want {
				t.Fatalf("jobs=%d: blame %q, want %q", jobs, got, want)
			}
		}
	}
}

// TestSuitePanicContained checks that a panicking Run is converted to
// that experiment's error instead of killing the pool: the rest of
// the report must survive.
func TestSuitePanicContained(t *testing.T) {
	t.Parallel()
	s := NewSuite(1)
	if err := s.Register(Experiment{
		Name: "panics",
		Run:  func(*Job) error { panic("boom") },
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(Experiment{
		Name: "survives",
		Run:  func(j *Job) error { j.Printf("fine\n"); return nil },
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(Options{Spec: RunSpec{Jobs: 2}})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*ExptResult{}
	for _, res := range rep.Results {
		byName[res.Name] = res
	}
	if got := byName["panics"].Err; got == nil || !strings.Contains(got.Error(), "panic: boom") {
		t.Errorf("panic not converted to error: %v", got)
	}
	if byName["survives"].Err != nil || byName["survives"].Text != "fine\n" {
		t.Errorf("bystander lost: %+v", byName["survives"])
	}
}

// TestSuiteResultNeedsDeclaredDependency checks that Job.Result hides
// results from experiments the caller did not declare in Needs.After —
// visibility there would depend on scheduling and break determinism.
func TestSuiteResultNeedsDeclaredDependency(t *testing.T) {
	t.Parallel()
	s := NewSuite(1)
	if err := s.Register(Experiment{
		Name: "producer",
		Run:  func(j *Job) error { j.SetResult(42); return nil },
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(Experiment{
		Name:  "declared",
		Needs: Needs{After: []string{"producer"}},
		Run: func(j *Job) error {
			if v, ok := j.Result("producer"); !ok || v.(int) != 42 {
				return fmt.Errorf("declared dependency result missing: %v %v", v, ok)
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(Experiment{
		Name:  "undeclared",
		Needs: Needs{After: []string{"declared"}}, // runs after producer, but no edge to it
		Run: func(j *Job) error {
			if _, ok := j.Result("producer"); ok {
				return fmt.Errorf("undeclared dependency visible")
			}
			return nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(Options{Spec: RunSpec{Jobs: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSuiteRunsOnce checks the reuse guard: devices are stateful, so a
// second Run must be refused rather than silently nondeterministic.
func TestSuiteRunsOnce(t *testing.T) {
	t.Parallel()
	s := NewSuite(1)
	if err := s.Register(Experiment{Name: "x", Run: func(*Job) error { return nil }}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(Options{}); err == nil {
		t.Error("second Run not refused")
	}
}

// TestSuiteRegisterValidation checks name and dependency validation.
func TestSuiteRegisterValidation(t *testing.T) {
	t.Parallel()
	s := NewSuite(1)
	ok := Experiment{Name: "x", Run: func(*Job) error { return nil }}
	if err := s.Register(ok); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(ok); err == nil {
		t.Error("duplicate name not rejected")
	}
	if err := s.Register(Experiment{Name: "", Run: ok.Run}); err == nil {
		t.Error("empty name not rejected")
	}
	if err := s.Register(Experiment{Name: "y"}); err == nil {
		t.Error("nil Run not rejected")
	}
	if err := s.Register(Experiment{
		Name: "z", Run: ok.Run, Needs: Needs{After: []string{"missing"}},
	}); err == nil {
		t.Error("unregistered dependency not rejected")
	}
}

// TestEnvProbeConcurrent hammers one Env's probe accessors from many
// goroutines; under -race this is the regression test for the
// sync.Once-per-probe caching. Every caller must observe the same
// cached result.
func TestEnvProbeConcurrent(t *testing.T) {
	t.Parallel()
	e, err := NewEnv(topo.Small(), 3)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	var fail atomic.Int32
	type got struct {
		order interface{}
		sub   interface{}
		swz   interface{}
	}
	results := make([]got, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Vary the entry point so goroutines race different
			// stages of the probe chain.
			if g%2 == 0 {
				if _, err := e.Order(); err != nil {
					fail.Add(1)
					return
				}
			}
			sm, err := e.Swizzle()
			if err != nil {
				fail.Add(1)
				return
			}
			ro, err := e.Order()
			if err != nil {
				fail.Add(1)
				return
			}
			sub, err := e.Subarrays()
			if err != nil {
				fail.Add(1)
				return
			}
			results[g] = got{order: ro, sub: sub, swz: sm}
		}(g)
	}
	wg.Wait()
	if fail.Load() != 0 {
		t.Fatalf("%d goroutines saw probe errors", fail.Load())
	}
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatalf("goroutine %d saw different probe results", g)
		}
	}
}

// TestDefaultSuiteShape checks the registry itself without paying for
// the heavy experiments: every paper artifact is present, the figure
// experiments share the figure device, and an unknown profile is
// rejected.
func TestDefaultSuiteShape(t *testing.T) {
	t.Parallel()
	s, err := DefaultSuite("MfrA-DDR4-x4-2021", 7)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, n := range s.Names() {
		names[n] = true
	}
	for _, want := range []string{
		"table1", "table3", "fig5", "fig7", "fig8", "fig10",
		"fig12", "fig14", "fig15", "fig16", "defense", "scrambler", "banks",
	} {
		if !names[want] {
			t.Errorf("registry missing %s", want)
		}
	}
	for _, p := range topo.Representative() {
		if !names["table3/"+p.Name] {
			t.Errorf("registry missing table3/%s", p.Name)
		}
	}
	if _, err := DefaultSuite("no-such-device", 7); err == nil {
		t.Error("unknown figure profile not rejected")
	}
}

// TestDefaultSuiteCheapSubset runs the cheap real artifacts end to end
// at two worker counts and requires byte-identical reports — the
// determinism guarantee on real experiments (the full suite is
// exercised by cmd/experiments and the benchmark harness).
func TestDefaultSuiteCheapSubset(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("module-scale experiments")
	}
	run := func(jobs int) (string, []byte) {
		s, err := DefaultSuite("MfrA-DDR4-x4-2021", 11)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(Options{Spec: RunSpec{Jobs: jobs, Only: []string{"table1", "fig5", "defense"}}})
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
	text1, json1 := run(1)
	text4, json4 := run(4)
	if text1 != text4 {
		t.Errorf("text differs between jobs=1 and jobs=4:\n%s\n---\n%s", text1, text4)
	}
	if !bytes.Equal(json1, json4) {
		t.Error("JSON differs between jobs=1 and jobs=4")
	}
	for _, want := range []string{"Table I", "Figure 5", "coupled-row attacks"} {
		if !bytes.Contains([]byte(text1), []byte(want)) {
			t.Errorf("output missing %q:\n%s", want, text1)
		}
	}
}
