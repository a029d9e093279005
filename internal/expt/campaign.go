// Campaign is the population layer: DRAMScope's headline results are
// fleet results (376 chips across three vendors and several
// generations), so the natural request above a single RunSpec is an
// ordered list of them — the Table I catalog crossed with a seed list,
// or a profiles glob. A campaign runs its specs through one Executor
// (by default a Local over one shared worker-token pool) with per-run
// store memoization (a warm campaign skips straight to aggregation),
// reproduces each spec's report byte-identically to a solo run of the
// same spec, and rolls the recovered Table III rows and error counts
// up per vendor and per generation into a deterministic cross-device
// aggregate report, assembled in spec order.

package expt

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"dramscope/internal/host"
	"dramscope/internal/stats"
	"dramscope/internal/store"
	"dramscope/internal/topo"
	"dramscope/internal/trace"
)

// Campaign is an ordered list of run specs executed as one unit.
type Campaign struct {
	Specs []RunSpec
}

// CampaignOptions configures one Campaign run.
type CampaignOptions struct {
	// Jobs sizes the default executor's worker-token pool, shared by
	// every run in the campaign; <= 0 means GOMAXPROCS. A run holds at
	// least one token while executing (taking up to its spec's Jobs
	// hint opportunistically), so the campaign's total concurrency is
	// bounded no matter how many specs it fans out.
	Jobs int
	// Factory builds each spec's suite; nil means DefaultSuite.
	Factory SuiteFactory
	// Store, when non-nil, memoizes per-run reports by the spec's
	// canonical form: a hit skips the run entirely (the stored bytes
	// are byte-identical by the determinism contract) and a completed
	// run persists its report for the next campaign. Probe chains are
	// warmed through the same store.
	Store *store.Store
	// Context, when non-nil, cancels the campaign: runs that have not
	// finished carry the context error, and no report, in their
	// summaries.
	Context context.Context
	// OnRun, when non-nil, is invoked once per spec as its run
	// completes — concurrently and in completion order, from the run
	// goroutines. The result (report bytes included) must be treated
	// as read-only. Cached, Elapsed, and ProbeCost are out-of-band
	// metadata: the campaign report stays byte-identical with or
	// without a callback, cold or warm.
	OnRun func(index, total int, res *CampaignRunResult)
	// Executor runs every member the store does not answer; nil means
	// a Local executor over a pool of Jobs tokens and Store. Because an
	// executor must return reports byte-identical to a solo run of the
	// spec, it can change where a member runs (a federated worker
	// fleet) but never a byte of the aggregate.
	Executor Executor
	// Trace, when non-nil, is the campaign root span: one
	// "member:<index>" child per spec (MemberSpans, created in spec
	// order before any run starts), with each member's execution spans
	// below it. If the owning recorder has no trace ID yet, Run derives
	// one from the resolved member digests, so equal campaigns trace
	// under equal IDs.
	Trace *trace.Span
}

// CampaignRunResult is one spec's outcome, delivered through
// CampaignOptions.OnRun and summarized (deterministic fields only) in
// the campaign report.
type CampaignRunResult struct {
	// Index is the spec's position in Campaign.Specs.
	Index int
	// Spec is the resolved spec this run executed.
	Spec *ResolvedSpec
	// Report is the run's exact JSON report — byte-identical to a solo
	// Suite.Run (or `experiments -json`) of the same spec. Nil if the
	// run failed before producing one or was canceled.
	Report []byte
	// Err is the run-level failure: planning errors, cancellation, or
	// the joined per-experiment failures (Report is still set for the
	// latter, exactly like a solo run).
	Err error
	// Cached reports the run was served from the store without
	// executing. Out-of-band: never in the campaign report.
	Cached bool
	// Remote reports a federated worker executed the run. Out-of-band:
	// never in the campaign report.
	Remote bool
	// Elapsed is the run's wall time. Out-of-band.
	Elapsed time.Duration
	// ProbeCost is the run's probe-chain command bill (zero for cached,
	// remote, and store-warmed runs). Out-of-band.
	ProbeCost host.Counters
}

// Run executes every spec through the campaign's executor and returns
// the aggregate report. Per-run failures do not abort the campaign —
// they are folded into the report's summaries and surfaced through
// CampaignReport.Err; the returned error is reserved for campaign-level
// problems (an invalid spec, which is rejected before any run starts).
func (c *Campaign) Run(opt CampaignOptions) (*CampaignReport, error) {
	if len(c.Specs) == 0 {
		return nil, fmt.Errorf("expt: empty campaign")
	}
	factory := opt.Factory
	if factory == nil {
		factory = DefaultSuite
	}
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	exec := opt.Executor
	if exec == nil {
		exec = &Local{Pool: NewPool(opt.Jobs), Store: opt.Store}
	}
	// Resolve every spec up front: a campaign with one bad spec is
	// rejected whole, before any device work runs.
	resolved := make([]*ResolvedSpec, len(c.Specs))
	suites := make([]*Suite, len(c.Specs))
	for i, sp := range c.Specs {
		rs, suite, err := ResolveSpec(sp, factory)
		if err != nil {
			return nil, fmt.Errorf("expt: campaign spec %d: %w", i, err)
		}
		resolved[i], suites[i] = rs, suite
	}
	members := MemberSpans(opt.Trace, resolved)

	results := make([]CampaignRunResult, len(resolved))
	var wg sync.WaitGroup
	for i := range resolved {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := &results[i]
			res.Index = i
			res.Spec = resolved[i]
			mspan := members[i].Begin()
			start := time.Now()
			defer func() {
				res.Elapsed = time.Since(start)
				if res.Cached {
					mspan.SetAttr("cached", true)
				}
				if res.Remote {
					mspan.SetAttr("remote", true)
				}
				mspan.End()
				if opt.OnRun != nil {
					opt.OnRun(i, len(resolved), res)
				}
			}()
			// Store memoization: a persisted report for this canonical
			// spec is the run, byte for byte — no token, no suite.
			key := store.ReportKey{Spec: resolved[i].Canonical()}
			if opt.Store != nil {
				if data, ok := opt.Store.LoadReport(key); ok {
					if _, err := SplitReport(data, resolved[i].Names); err == nil {
						res.Report = data
						res.Cached = true
						return
					}
				}
			}
			ex := exec.Execute(ctx, Task{Spec: resolved[i], Suite: suites[i], Parent: mspan})
			res.Report, res.Err, res.Remote = ex.Report, ex.Err, ex.Remote
			res.ProbeCost = suites[i].ProbeCost()
			if opt.Store != nil && ex.Err == nil {
				// Write-through, best-effort: a full disk must not fail
				// a finished run.
				_ = opt.Store.SaveReport(key, ex.Report)
			}
		}(i)
	}
	wg.Wait()
	return AggregateCampaign(results)
}

// CampaignRunSummary is one run's deterministic summary in the
// campaign report: identity (profile, seed, digest), size, and error
// counts — never timing or cache state.
type CampaignRunSummary struct {
	Profile string `json:"profile"`
	Seed    uint64 `json:"seed"`
	// Digest is the run's canonical-spec digest — the same identity the
	// serve LRU and the store key derive from, so a summary row can be
	// correlated with its cached artifacts.
	Digest string `json:"digest"`
	// Experiments is the resolved selection size.
	Experiments int `json:"experiments"`
	// Recovered counts the distinct devices whose Table III rows this
	// run's report contains.
	Recovered int `json:"recovered"`
	// Errors counts experiments that failed inside the run's report.
	Errors int `json:"errors"`
	// Error is the run-level failure for runs that produced no report.
	Error string `json:"error,omitempty"`
}

// CampaignReport is the deterministic cross-device aggregate: per-run
// summaries in spec order plus per-vendor and per-generation roll-ups
// of the recovered Table III rows and error counts.
type CampaignReport struct {
	Runs        []CampaignRunSummary `json:"runs"`
	Vendors     *stats.Table         `json:"vendors"`
	Generations *stats.Table         `json:"generations"`
}

// JSON renders the campaign report machine-readably. Like Report.JSON
// it is deterministic for fixed specs: summaries in spec order, no
// timestamps, durations, or cache flags — a warm campaign's report is
// byte-identical to the cold one that populated the store.
func (r *CampaignReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Text renders the human-readable aggregate: the per-run roster and
// the two roll-up tables.
func (r *CampaignReport) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== Campaign: %d runs ==\n", len(r.Runs))
	t := stats.NewTable("Profile", "Seed", "Experiments", "Recovered", "Errors", "Digest")
	for _, run := range r.Runs {
		errs := fmt.Sprintf("%d", run.Errors)
		if run.Error != "" {
			errs = run.Error
		}
		t.Row(run.Profile, run.Seed, run.Experiments, run.Recovered, errs, run.Digest[:12])
	}
	sb.WriteString(t.String())
	sb.WriteString("\n== Per-vendor roll-up ==\n")
	sb.WriteString(r.Vendors.String())
	sb.WriteString("\n== Per-generation roll-up ==\n")
	sb.WriteString(r.Generations.String())
	return sb.String()
}

// Err joins the campaign's failures: run-level errors and runs whose
// reports embed experiment failures. Nil when every run succeeded.
func (r *CampaignReport) Err() error {
	var msgs []string
	for _, run := range r.Runs {
		switch {
		case run.Error != "":
			msgs = append(msgs, fmt.Sprintf("%s seed %d: %s", run.Profile, run.Seed, run.Error))
		case run.Errors > 0:
			msgs = append(msgs, fmt.Sprintf("%s seed %d: %d failed experiments", run.Profile, run.Seed, run.Errors))
		}
	}
	if len(msgs) == 0 {
		return nil
	}
	return errors.New("campaign: " + strings.Join(msgs, "; "))
}

// tableIIIHeader is the column signature AggregateCampaign recognizes
// Table III recovery tables by — RenderTableIII's exact header, shared
// by the table3 fan-in and the per-device recover experiment.
var tableIIIHeader = []string{"Device", "Subarray composition", "Edge interval", "Coupled distance", "Row remap", "Copy polarity"}

// recoveredRow is one parsed Table III row.
type recoveredRow struct {
	Device   string
	Coupled  bool
	Remapped bool
	Inverted bool
}

// rollup accumulates one vendor's or generation's stats.
type rollup struct {
	runs, recovered, coupled, remapped, inverted, errors int
}

// AggregateCampaign assembles the deterministic campaign report from
// per-run results, in result order. It is a pure function of the
// resolved specs and the per-run report bytes — the serve front-end
// and the CLI both call it, so a served campaign report is
// byte-identical to `experiments -campaign -json` for the same specs.
func AggregateCampaign(results []CampaignRunResult) (*CampaignReport, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("expt: empty campaign")
	}
	rep := &CampaignReport{}
	vendors := make(map[string]*rollup)
	years := make(map[int]*rollup)
	get := func(vendor string, year int) (*rollup, *rollup) {
		v := vendors[vendor]
		if v == nil {
			v = &rollup{}
			vendors[vendor] = v
		}
		y := years[year]
		if y == nil {
			y = &rollup{}
			years[year] = y
		}
		return v, y
	}
	classify := func(profile string) (string, int) {
		if p, ok := topo.ByName(profile); ok {
			return p.Vendor, p.Year
		}
		return "?", 0
	}

	for _, res := range results {
		if res.Spec == nil {
			return nil, fmt.Errorf("expt: campaign result %d has no spec", res.Index)
		}
		sum := CampaignRunSummary{
			Profile:     res.Spec.Profile,
			Seed:        res.Spec.Seed,
			Digest:      res.Spec.Digest(),
			Experiments: len(res.Spec.Names),
		}
		if res.Err != nil && res.Report == nil {
			sum.Error = res.Err.Error()
		}
		vendor, year := classify(res.Spec.Profile)
		v, y := get(vendor, year)
		v.runs++
		y.runs++
		if res.Report != nil {
			errs, rows, err := parseRunReport(res.Report)
			if err != nil {
				return nil, fmt.Errorf("expt: campaign run %d (%s seed %d): %w",
					res.Index, res.Spec.Profile, res.Spec.Seed, err)
			}
			sum.Errors = errs
			sum.Recovered = len(rows)
			v.errors += errs
			y.errors += errs
			for _, row := range rows {
				rv, ry := classify(row.Device)
				dv, dy := get(rv, ry)
				dv.recovered++
				dy.recovered++
				if row.Coupled {
					dv.coupled++
					dy.coupled++
				}
				if row.Remapped {
					dv.remapped++
					dy.remapped++
				}
				if row.Inverted {
					dv.inverted++
					dy.inverted++
				}
			}
		} else {
			v.errors++
			y.errors++
		}
		rep.Runs = append(rep.Runs, sum)
	}

	rep.Vendors = stats.NewTable("Vendor", "Runs", "Recovered", "Coupled", "Remapped", "Inverted copy", "Errors")
	var vnames []string
	for v := range vendors {
		vnames = append(vnames, v)
	}
	sort.Strings(vnames)
	for _, name := range vnames {
		v := vendors[name]
		rep.Vendors.Row("Mfr. "+name, v.runs, v.recovered, v.coupled, v.remapped, v.inverted, v.errors)
	}

	rep.Generations = stats.NewTable("Year", "Runs", "Recovered", "Coupled", "Remapped", "Inverted copy", "Errors")
	var ylist []int
	for y := range years {
		ylist = append(ylist, y)
	}
	sort.Ints(ylist)
	for _, year := range ylist {
		y := years[year]
		label := fmt.Sprintf("%d", year)
		if year == 0 {
			label = "N/A"
		}
		rep.Generations.Row(label, y.runs, y.recovered, y.coupled, y.remapped, y.inverted, y.errors)
	}
	return rep, nil
}

// parseRunReport extracts the aggregate's inputs from one run's report
// bytes: the per-experiment error count and every recovered Table III
// row (recognized by RenderTableIII's header), deduplicated by device
// within the run — a full-suite run reports the figure device through
// both table3 and recover, which is one recovery, not two.
func parseRunReport(report []byte) (errCount int, rows []recoveredRow, err error) {
	var doc struct {
		Experiments []struct {
			Name   string `json:"name"`
			Err    string `json:"error"`
			Tables []struct {
				ID    string `json:"id"`
				Table struct {
					Header []string   `json:"header"`
					Rows   [][]string `json:"rows"`
				} `json:"table"`
			} `json:"tables"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(report, &doc); err != nil {
		return 0, nil, fmt.Errorf("parse report: %w", err)
	}
	seen := make(map[string]bool)
	for _, exp := range doc.Experiments {
		if exp.Err != "" {
			errCount++
		}
		for _, t := range exp.Tables {
			if !equalStrings(t.Table.Header, tableIIIHeader) {
				continue
			}
			for _, cells := range t.Table.Rows {
				if len(cells) != len(tableIIIHeader) || seen[cells[0]] {
					continue
				}
				seen[cells[0]] = true
				rows = append(rows, recoveredRow{
					Device:   cells[0],
					Coupled:  cells[3] != "N/A",
					Remapped: cells[4] == "true",
					Inverted: cells[5] == "inverted",
				})
			}
		}
	}
	return errCount, rows, nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
