// Command benchsnap measures the repo's headline performance numbers
// and persists them as committed snapshots (BENCH_suite.json,
// BENCH_campaign.json), so a perf regression shows up as a diff — and
// CI can fail on a gross one — instead of silently accumulating.
//
// Three numbers matter for fleet-scale throughput, and each snapshot
// records the machinery to reproduce it:
//
//   - ns/ACT: wall nanoseconds per metered DRAM activation over a
//     cold full-suite run — the cost of the host→chip hot path that
//     the batched command kernels optimize.
//   - cold vs warm suite wall time: the same suite against an empty
//     and a populated probe-artifact store (warm runs skip the
//     reverse-engineering chain and go straight to measurement).
//   - campaign throughput: runs/minute over the golden campaign
//     population (3 vendors x 2 seeds, per-device recovery).
//
// Usage:
//
//	benchsnap                      # refresh both snapshots in place
//	benchsnap -check               # smoke mode: re-measure cold and
//	                               # warm ns/ACT (medians of three runs
//	                               # each) and fail if either regressed
//	                               # more than -threshold x vs
//	                               # BENCH_suite.json, or if tracing
//	                               # slows the cold suite by more than
//	                               # -trace-overhead x (medians of five
//	                               # alternating pairs)
//	benchsnap -check -threshold 3
//
// Absolute wall times are machine-dependent; the -check gate therefore
// compares only ns/ACT ratios — cold (the batched command hot path)
// and warm (the arena + flip-table measurement fast path) — against
// the snapshot. Both the snapshot and the gate take the median of
// three cold suites, each on a fresh store, and of the three warm
// suites run against them, so one slow run on a shared machine
// decides neither. The threshold (default 1.5x) trips on algorithmic
// regressions, not CI-runner jitter; both measured runs and the
// snapshot pin GOMAXPROCS (default 1) so the serial hot-path numbers
// stay comparable across machines with different core counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"dramscope/internal/expt"
	"dramscope/internal/store"
	"dramscope/internal/trace"
)

// SuiteBench is the committed BENCH_suite.json shape.
type SuiteBench struct {
	Schema      int     `json:"schema"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	Jobs        int     `json:"jobs"`
	Shards      int     `json:"shards"`
	Activations int64   `json:"activations"`
	NsPerAct    float64 `json:"ns_per_act"`
	ColdWallMS  int64   `json:"cold_wall_ms"`
	WarmWallMS  int64   `json:"warm_wall_ms"`
	// WarmNsPerAct is the warm run's wall time over its own metered
	// activations — the per-activation cost once every probe artifact
	// is cached and the suite goes straight to measurement.
	WarmNsPerAct float64 `json:"warm_ns_per_act"`
}

// CampaignBench is the committed BENCH_campaign.json shape.
type CampaignBench struct {
	Schema        int     `json:"schema"`
	GoMaxProcs    int     `json:"gomaxprocs"`
	Jobs          int     `json:"jobs"`
	Runs          int     `json:"runs"`
	WallMS        int64   `json:"wall_ms"`
	RunsPerMinute float64 `json:"runs_per_minute"`
}

// serveBench is the slice of examples/loadgen's BENCH_serve.json the
// -check gate validates: the snapshot must come from a real load test
// (requests flowed), with a healthy server (no 5xx) whose single-flight
// admission actually coalesced work.
type serveBench struct {
	Requests  int `json:"requests"`
	Coalesced int `json:"coalesced"`
	Errors5xx int `json:"errors_5xx"`
}

func main() {
	suiteOut := flag.String("suite-out", "BENCH_suite.json", "suite snapshot path")
	campaignOut := flag.String("campaign-out", "BENCH_campaign.json", "campaign snapshot path")
	serveOut := flag.String("serve-out", "BENCH_serve.json", "serving snapshot path (written by examples/loadgen; -check validates it)")
	check := flag.Bool("check", false, "re-measure the cold and warm suite and fail on a gross ns/ACT regression vs -suite-out")
	threshold := flag.Float64("threshold", 1.5, "-check fails when measured ns/ACT exceeds snapshot ns/ACT by this factor")
	traceOverhead := flag.Float64("trace-overhead", 1.05, "-check fails when the median traced cold suite is slower than the median untraced one by this factor")
	jobs := flag.Int("jobs", 1, "suite worker count for the measured runs (1 = the serial hot-path number)")
	maxprocs := flag.Int("gomaxprocs", 1, "pin GOMAXPROCS for the measured runs (0 = leave the runtime default)")
	flag.Parse()

	if *maxprocs > 0 {
		runtime.GOMAXPROCS(*maxprocs)
	}
	if err := run(*suiteOut, *campaignOut, *serveOut, *check, *threshold, *traceOverhead, *jobs); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
}

func run(suiteOut, campaignOut, serveOut string, check bool, threshold, traceOverhead float64, jobs int) error {
	if check {
		if err := checkServe(serveOut); err != nil {
			return err
		}
		if err := checkSuite(suiteOut, threshold, jobs); err != nil {
			return err
		}
		return checkTraceOverhead(traceOverhead, jobs)
	}
	sb, err := measureSuite(jobs)
	if err != nil {
		return err
	}
	if err := writeJSON(suiteOut, sb); err != nil {
		return err
	}
	fmt.Printf("suite: %.3f ns/ACT, cold %s, warm %s (%d ACTs, jobs=%d shards=%d)\n",
		sb.NsPerAct, time.Duration(sb.ColdWallMS)*time.Millisecond,
		time.Duration(sb.WarmWallMS)*time.Millisecond, sb.Activations, sb.Jobs, sb.Shards)

	cb, err := measureCampaign(jobs)
	if err != nil {
		return err
	}
	if err := writeJSON(campaignOut, cb); err != nil {
		return err
	}
	fmt.Printf("campaign: %d runs in %s = %.2f runs/min (jobs=%d)\n",
		cb.Runs, time.Duration(cb.WallMS)*time.Millisecond, cb.RunsPerMinute, cb.Jobs)
	return nil
}

// coldSuite runs the full default suite against the given store
// (nil = no store), optionally under a trace span, and returns the
// wall time and metered activations.
func coldSuite(jobs int, st *store.Store, root *trace.Span) (time.Duration, int64, error) {
	s, err := expt.DefaultSuite(expt.DefaultFigProfile, expt.DefaultSeed)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	rep, err := s.Run(expt.Options{Spec: expt.RunSpec{Jobs: jobs, Shards: jobs}, Store: st, Trace: root})
	if err != nil {
		return 0, 0, err
	}
	if err := rep.Err(); err != nil {
		return 0, 0, err
	}
	return time.Since(start), s.ActivationsUsed(), nil
}

// suiteRuns is how many cold and warm suites a measurement takes the
// median of.
const suiteRuns = 3

// suiteSamples runs n cold/warm suite pairs (suitePair) and returns
// their wall times and each kind's metered activations, which every run
// of a kind repeats exactly.
func suiteSamples(jobs, n int) (cold, warm []time.Duration, coldActs, warmActs int64, err error) {
	for i := 0; i < n; i++ {
		c, w, ca, wa, err := suitePair(jobs)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		cold, warm, coldActs, warmActs = append(cold, c), append(warm, w), ca, wa
	}
	return cold, warm, coldActs, warmActs, nil
}

// suitePair runs one cold suite on its own empty store, from a
// collected heap as a fresh process would start, then one warm suite
// against the store it filled: the warm run skips the probe chain and
// goes straight to measurement.
func suitePair(jobs int) (cold, warm time.Duration, coldActs, warmActs int64, err error) {
	st, cleanup, err := tempStore()
	if err != nil {
		return 0, 0, 0, 0, err
	}
	defer cleanup()
	debug.FreeOSMemory()
	if cold, coldActs, err = coldSuite(jobs, st, nil); err != nil {
		return 0, 0, 0, 0, err
	}
	warm, warmActs, err = coldSuite(jobs, st, nil)
	return cold, warm, coldActs, warmActs, err
}

// nsPerAct is wall nanoseconds per metered activation, 0 without any.
func nsPerAct(wall time.Duration, acts int64) float64 {
	if acts <= 0 {
		return 0
	}
	return float64(wall.Nanoseconds()) / float64(acts)
}

func measureSuite(jobs int) (*SuiteBench, error) {
	cold, warm, acts, warmActs, err := suiteSamples(jobs, suiteRuns)
	if err != nil {
		return nil, err
	}
	c, w := median(cold), median(warm)
	return &SuiteBench{
		Schema: 1, GoMaxProcs: runtime.GOMAXPROCS(0), Jobs: jobs, Shards: jobs,
		Activations:  acts,
		NsPerAct:     nsPerAct(c, acts),
		ColdWallMS:   c.Milliseconds(),
		WarmWallMS:   w.Milliseconds(),
		WarmNsPerAct: nsPerAct(w, warmActs),
	}, nil
}

// goldenCampaignSpecs mirrors the Makefile's GOLDEN_CAMPAIGN
// population: one representative device per vendor x two seeds, each
// run recovering its own Table III row.
func goldenCampaignSpecs() []expt.RunSpec {
	var specs []expt.RunSpec
	for _, prof := range []string{"MfrA-DDR4-x4-2016", "MfrB-DDR4-x4-2019", "MfrC-DDR4-x8-2016"} {
		for _, seed := range []uint64{5, 7} {
			specs = append(specs, expt.RunSpec{Profile: prof, Seed: seed, Only: []string{"recover"}})
		}
	}
	return specs
}

func measureCampaign(jobs int) (*CampaignBench, error) {
	c := &expt.Campaign{Specs: goldenCampaignSpecs()}
	start := time.Now()
	rep, err := c.Run(expt.CampaignOptions{Jobs: jobs})
	if err != nil {
		return nil, err
	}
	if err := rep.Err(); err != nil {
		return nil, err
	}
	wall := time.Since(start)
	cb := &CampaignBench{
		Schema:     1,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Jobs:       jobs,
		Runs:       len(c.Specs),
		WallMS:     wall.Milliseconds(),
	}
	if wall > 0 {
		cb.RunsPerMinute = float64(cb.Runs) / wall.Minutes()
	}
	return cb, nil
}

// tempStore opens a throwaway probe-artifact store; the caller must
// invoke cleanup.
func tempStore() (st *store.Store, cleanup func(), err error) {
	dir, err := os.MkdirTemp("", "benchsnap-store-*")
	if err != nil {
		return nil, nil, err
	}
	st, err = store.OpenDir(dir, false)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return st, func() { os.RemoveAll(dir) }, nil
}

// checkSuite is the CI smoke gate: the median of three cold suites,
// each on a fresh store, and of the three warm runs against them, each
// compared against the committed snapshot on its machine-portable
// ns/ACT metric. The cold gate guards the batched command hot path; the
// warm gate guards the measurement fast path — the arena, the flip
// tables, and the allocation-free batch loop.
func checkSuite(suiteOut string, threshold float64, jobs int) error {
	data, err := os.ReadFile(suiteOut)
	if err != nil {
		return fmt.Errorf("no committed snapshot (run `make bench-snapshot` first): %w", err)
	}
	var want SuiteBench
	if err := json.Unmarshal(data, &want); err != nil {
		return fmt.Errorf("corrupt snapshot %s: %w", suiteOut, err)
	}
	if want.NsPerAct <= 0 {
		return fmt.Errorf("snapshot %s has no ns/ACT baseline", suiteOut)
	}

	cold, warm, acts, warmActs, err := suiteSamples(jobs, suiteRuns)
	if err != nil {
		return err
	}
	fmt.Printf("suite samples: cold %v, warm %v\n", cold, warm)
	if err := suiteVerdict("cold", cold, acts, want.NsPerAct, threshold); err != nil {
		return err
	}
	// Snapshots written before the warm metric existed have no
	// baseline to compare against; the cold gate still applies.
	if want.WarmNsPerAct > 0 {
		return suiteVerdict("warm", warm, warmActs, want.WarmNsPerAct, threshold)
	}
	return nil
}

// suiteVerdict is one suite gate's decision: the median run's ns/ACT
// against the snapshot's, failing above threshold times it. One slow
// run of three does not move the median; a slowdown of every run does.
func suiteVerdict(kind string, walls []time.Duration, acts int64, want, threshold float64) error {
	if acts <= 0 {
		return fmt.Errorf("%s suite metered no activations", kind)
	}
	got := nsPerAct(median(walls), acts)
	fmt.Printf("%s ns/ACT: measured %.3f, snapshot %.3f (%.2fx, threshold %.1fx)\n",
		kind, got, want, got/want, threshold)
	if got > want*threshold {
		return fmt.Errorf("%s suite regressed: %.3f ns/ACT vs snapshot %.3f (more than %.1fx)",
			kind, got, want, threshold)
	}
	return nil
}

// checkTraceOverhead proves tracing stays effectively free on the hot
// path. A single traced/untraced pair is a coin flip at a 5% margin, as
// the run-to-run spread of a ~0.7 s cold suite is wider. So it runs five
// pairs, switching which side of a pair goes first so drift over the run
// falls on both, and compares the medians. Span creation is per-unit,
// not per-command, so the real ratio is ~1.00.
func checkTraceOverhead(factor float64, jobs int) error {
	var walls [2][]time.Duration // untraced, traced
	for i := 0; i < 5; i++ {
		for _, side := range []int{i % 2, 1 - i%2} {
			wall, err := traceSample(jobs, side == 1)
			if err != nil {
				return err
			}
			walls[side] = append(walls[side], wall)
		}
	}
	fmt.Printf("trace overhead samples: untraced %v, traced %v\n", walls[0], walls[1])
	ratio, err := traceVerdict(walls[0], walls[1], factor)
	fmt.Printf("trace overhead: median untraced %s, traced %s (%.3fx, threshold %.2fx)\n",
		median(walls[0]), median(walls[1]), ratio, factor)
	return err
}

// traceSample runs one cold suite, under a trace root span when
// withTrace is set, and returns its wall time in whole milliseconds.
// Both sides pay the same cold probe chain, page faults and artifact
// writes: each sample gets its own empty store and starts from a
// collected heap, as a fresh process would, with no chip slabs pooled
// and no freed pages kept warm by the sample before it.
func traceSample(jobs int, withTrace bool) (time.Duration, error) {
	st, cleanup, err := tempStore()
	if err != nil {
		return 0, err
	}
	defer cleanup()
	debug.FreeOSMemory()
	var rec *trace.Recorder // nil records nothing
	if withTrace {
		rec = trace.New(trace.DeriveID("benchsnap", "trace-overhead"))
	}
	root := rec.Root("run", "benchsnap traced cold suite").Begin()
	wall, _, err := coldSuite(jobs, st, root)
	root.End()
	if n := len(rec.Records()); err == nil && withTrace && n < 2 {
		err = fmt.Errorf("traced suite recorded only %d spans; tracing was not engaged", n)
	}
	return wall.Round(time.Millisecond), err
}

// traceVerdict is the trace-overhead gate's decision: the median traced
// wall time over the median untraced one, failing above factor. One
// slow run on either side does not move a median of five; a slowdown of
// every traced run does.
func traceVerdict(untraced, traced []time.Duration, factor float64) (float64, error) {
	u, t := median(untraced), median(traced)
	ratio := float64(t) / float64(u)
	if ratio > factor {
		return ratio, fmt.Errorf("tracing overhead %.3fx exceeds %.2fx: median traced %s vs untraced %s",
			ratio, factor, t, u)
	}
	return ratio, nil
}

// median returns the middle value of ds (the upper middle for an even
// count) without reordering ds.
func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	return s[len(s)/2]
}

// checkServe validates the committed serving snapshot: it must record
// a real load test against a healthy server whose coalescing engaged.
// Unlike the ns/ACT gate it re-reads rather than re-measures — a load
// test needs minutes and a quiet machine, so CI regenerates it in its
// own job and this gate keeps the committed numbers honest.
func checkServe(serveOut string) error {
	data, err := os.ReadFile(serveOut)
	if err != nil {
		return fmt.Errorf("no serving snapshot (run `make bench-snapshot` first): %w", err)
	}
	var sb serveBench
	if err := json.Unmarshal(data, &sb); err != nil {
		return fmt.Errorf("corrupt snapshot %s: %w", serveOut, err)
	}
	if sb.Requests == 0 {
		return fmt.Errorf("%s records zero requests; not a real load test", serveOut)
	}
	if sb.Errors5xx > 0 {
		return fmt.Errorf("%s records %d server errors (5xx)", serveOut, sb.Errors5xx)
	}
	if sb.Coalesced == 0 {
		return fmt.Errorf("%s records zero coalesced requests; single-flight admission never engaged", serveOut)
	}
	fmt.Printf("serve: %d requests, %d coalesced, 0 5xx (%s ok)\n", sb.Requests, sb.Coalesced, serveOut)
	return nil
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
