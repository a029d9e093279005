package expt

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
)

// campaignSpecs is a small three-spec population over the smallSuite
// factory: two seeds of the full suite plus a sub-selection.
func campaignSpecs() []RunSpec {
	return []RunSpec{
		{Profile: "pop", Seed: 7},
		{Profile: "pop", Seed: 8},
		{Profile: "pop", Seed: 7, Only: []string{"c"}},
	}
}

// runCampaign runs the test campaign and collects per-run results by
// index.
func runCampaign(t *testing.T, jobs int, opt CampaignOptions) (*CampaignReport, []CampaignRunResult) {
	t.Helper()
	c := &Campaign{Specs: campaignSpecs()}
	var mu sync.Mutex
	results := make([]CampaignRunResult, len(c.Specs))
	inner := opt.OnRun
	opt.Jobs = jobs
	opt.Factory = smallFactory(t)
	opt.OnRun = func(index, total int, res *CampaignRunResult) {
		mu.Lock()
		results[index] = *res
		mu.Unlock()
		if inner != nil {
			inner(index, total, res)
		}
	}
	rep, err := c.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	return rep, results
}

// TestCampaignPerRunSoloIdentity: every member's report is
// byte-identical to running its spec alone through a fresh suite.
func TestCampaignPerRunSoloIdentity(t *testing.T) {
	t.Parallel()
	_, results := runCampaign(t, 2, CampaignOptions{})
	for i, spec := range campaignSpecs() {
		suite := smallSuite(t, spec.Seed, nil)
		rep, err := suite.Run(Options{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		solo, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(results[i].Report, solo) {
			t.Errorf("spec %d: campaign report differs from solo run:\ncampaign: %s\nsolo:     %s",
				i, results[i].Report, solo)
		}
	}
}

// TestCampaignDeterministicAcrossJobs: the aggregate report is
// byte-identical for any worker-pool size (and therefore any
// completion interleaving of the member runs).
func TestCampaignDeterministicAcrossJobs(t *testing.T) {
	t.Parallel()
	ref, _ := runCampaign(t, 1, CampaignOptions{})
	refJSON, err := ref.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Runs) != 3 {
		t.Fatalf("aggregate covers %d runs, want 3", len(ref.Runs))
	}
	for _, jobs := range []int{2, 8} {
		rep, _ := runCampaign(t, jobs, CampaignOptions{})
		got, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, refJSON) {
			t.Errorf("jobs=%d aggregate differs:\n--- jobs=1 ---\n%s\n--- jobs=%d ---\n%s",
				jobs, refJSON, jobs, got)
		}
	}
}

// TestCampaignWarmStore: a store-backed campaign memoizes per-run
// reports — the warm rerun is all cache hits, issues zero probe
// commands, and produces the byte-identical aggregate.
func TestCampaignWarmStore(t *testing.T) {
	t.Parallel()
	st := openStore(t)
	cold, coldResults := runCampaign(t, 2, CampaignOptions{Store: st})
	coldJSON, err := cold.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range coldResults {
		if res.Cached {
			t.Fatalf("cold campaign run %d claims a cache hit", i)
		}
	}

	warm, warmResults := runCampaign(t, 2, CampaignOptions{Store: st})
	for i, res := range warmResults {
		if !res.Cached {
			t.Errorf("warm campaign run %d executed instead of hitting the store", i)
		}
		if res.ProbeCost.Total() != 0 {
			t.Errorf("warm campaign run %d issued probe commands: %s", i, res.ProbeCost)
		}
		if !bytes.Equal(res.Report, coldResults[i].Report) {
			t.Errorf("warm campaign run %d report differs from cold", i)
		}
	}
	warmJSON, err := warm.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(warmJSON, coldJSON) {
		t.Fatal("warm aggregate differs from cold")
	}
}

// TestCampaignAggregateRollups: recovered Table III rows are parsed
// out of the per-run reports and rolled up per vendor and generation,
// with error counts attributed per run.
func TestCampaignAggregateRollups(t *testing.T) {
	t.Parallel()
	// A synthetic factory that emits Table III-shaped tables without
	// probing: one catalog device per seed, plus one failing
	// experiment on seed 9.
	factory := func(profile string, seed uint64) (*Suite, error) {
		s := NewSuite(seed)
		device := "MfrA-DDR4-x4-2016" // vendor A, 2016, coupled+remap
		if seed == 9 {
			device = "MfrC-DDR4-x4-2018" // vendor C, 2018
		}
		err := s.Register(Experiment{
			Name: "recover", Title: "synthetic recovery",
			Run: func(j *Job) error {
				row := &TableIIIRow{
					Name:             device,
					Composition:      map[int]int{640: 11, 576: 2},
					EdgeIntervalRows: 8192,
					CoupledDistance:  4096,
					Remapped:         seed != 9,
					InvertedCopy:     true,
				}
				if seed == 9 {
					row.CoupledDistance = 0
				}
				j.Emit("recover", RenderTableIII([]*TableIIIRow{row}))
				return nil
			},
		})
		if err != nil {
			return nil, err
		}
		if seed == 9 {
			if err := s.Register(Experiment{
				Name: "boom",
				Run:  func(*Job) error { return errString("kaput") },
			}); err != nil {
				return nil, err
			}
		}
		return s, nil
	}

	c := &Campaign{Specs: []RunSpec{
		{Profile: "MfrA-DDR4-x4-2016", Seed: 5},
		{Profile: "MfrA-DDR4-x4-2016", Seed: 6},
		{Profile: "MfrC-DDR4-x4-2018", Seed: 9},
	}}
	rep, err := c.Run(CampaignOptions{Jobs: 2, Factory: factory})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err() == nil {
		t.Fatal("campaign with a failing experiment reported no error")
	}
	if rep.Runs[2].Errors != 1 {
		t.Fatalf("run 2 errors = %d, want 1", rep.Runs[2].Errors)
	}
	if rep.Runs[0].Recovered != 1 || rep.Runs[0].Experiments != 1 {
		t.Fatalf("run 0 summary = %+v", rep.Runs[0])
	}
	if rep.Runs[0].Digest == rep.Runs[1].Digest {
		t.Fatal("different seeds share a digest")
	}

	text := rep.Text()
	vendors := rep.Vendors.String()
	// Vendor A: 2 runs, 2 recovered rows, both coupled and remapped.
	if !strings.Contains(vendors, "Mfr. A") || !strings.Contains(vendors, "Mfr. C") {
		t.Fatalf("vendor roll-up missing rows:\n%s", vendors)
	}
	aRow := lineContaining(t, vendors, "Mfr. A")
	for _, want := range []string{"2", "2", "2", "2"} { // runs, recovered, coupled, remapped
		if !strings.Contains(aRow, want) {
			t.Fatalf("vendor A row %q missing %q", aRow, want)
		}
	}
	cRow := lineContaining(t, vendors, "Mfr. C")
	if !strings.HasSuffix(strings.TrimSpace(cRow), "1") {
		t.Fatalf("vendor C row should end with 1 error: %q", cRow)
	}
	years := rep.Generations.String()
	if !strings.Contains(years, "2016") || !strings.Contains(years, "2018") {
		t.Fatalf("generation roll-up missing years:\n%s", years)
	}
	if !strings.Contains(text, "== Campaign: 3 runs ==") {
		t.Fatalf("campaign text header missing:\n%s", text)
	}
}

// errString is a trivial error for synthetic failures.
type errString string

func (e errString) Error() string { return string(e) }

func lineContaining(t *testing.T, s, sub string) string {
	t.Helper()
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, sub) {
			return line
		}
	}
	t.Fatalf("no line containing %q in:\n%s", sub, s)
	return ""
}

// TestCampaignRejectsBadSpec: one invalid spec rejects the whole
// campaign before any run starts.
func TestCampaignRejectsBadSpec(t *testing.T) {
	t.Parallel()
	c := &Campaign{Specs: []RunSpec{
		{Profile: "pop", Seed: 7},
		{Profile: "pop", Seed: 7, Only: []string{"nope"}},
	}}
	if _, err := c.Run(CampaignOptions{Factory: smallFactory(t)}); err == nil {
		t.Fatal("bad spec not rejected")
	}
	if _, err := (&Campaign{}).Run(CampaignOptions{Factory: smallFactory(t)}); err == nil {
		t.Fatal("empty campaign not rejected")
	}
}

// TestCampaignCanceledMemberHasNoReport: a member whose campaign is
// canceled while it runs carries the context error and no report, even
// though its suite finished — the bytes of a run cut short must never
// pass for the spec's report (experiments -campaign-runs writes every
// member report under its spec digest).
func TestCampaignCanceledMemberHasNoReport(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	factory := func(profile string, seed uint64) (*Suite, error) {
		s := NewSuite(seed)
		err := s.Register(Experiment{Name: "interrupt", Title: "Interrupt", Run: func(j *Job) error {
			cancel() // Ctrl-C arrives while the member executes
			j.Printf("finished anyway\n")
			return nil
		}})
		return s, err
	}
	var got CampaignRunResult
	c := &Campaign{Specs: []RunSpec{{Seed: 3}}}
	rep, err := c.Run(CampaignOptions{Factory: factory, Context: ctx,
		OnRun: func(_, _ int, res *CampaignRunResult) { got = *res }})
	if err != nil {
		t.Fatal(err)
	}
	if got.Report != nil {
		t.Fatalf("canceled member carries a report:\n%s", got.Report)
	}
	if !errors.Is(got.Err, context.Canceled) {
		t.Fatalf("canceled member error = %v, want context.Canceled", got.Err)
	}
	if rep.Runs[0].Error == "" {
		t.Fatal("canceled member's summary records no error")
	}
}
