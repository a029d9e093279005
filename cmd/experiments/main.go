// Command experiments regenerates the paper's tables and figures
// (the artifact → experiment map in README.md) against simulated
// devices. Experiments run concurrently over a worker pool; for a
// fixed -seed the output is byte-identical for any -jobs value.
// Ctrl-C cancels the run: experiments that have not started are
// skipped and reported as canceled. For a long-running service
// front-end to the same suite, see cmd/dramscoped.
//
// Usage:
//
//	experiments -run table1,table3,fig5,fig7,fig8,fig10,fig12,fig14,fig15,fig16,defense,scrambler
//	experiments -run all -profile MfrA-DDR4-x4-2021 -jobs 8
//	experiments -json results.json -csv outdir
//	experiments -run all -store dramscope-store   # warm runs skip the probe chain
//	experiments -run recover -max-activations 2000000
//	experiments -campaign 'MfrA-*' -seeds 5,7 -run recover -store dramscope-store
//	experiments -campaign all -run recover -workers http://node1:8077,http://node2:8077
//	experiments -progress
//	experiments -list
//
// A flag set describes one run request (a RunSpec: profile, seed,
// selection, jobs/shards, activation budget). -campaign lifts the
// request to a population: the comma-separated profile globs (or
// "all") are expanded against the Table I catalog and crossed with
// -seeds, and the resulting runs are scheduled over one shared worker
// pool. Each run's report is byte-identical to running its spec alone;
// stdout carries the deterministic cross-device aggregate (per-vendor
// and per-generation roll-ups of the recovered Table III rows), -json
// writes the aggregate report, and -campaign-runs DIR writes every
// per-run report as DIR/<digest>.json. With -store, completed per-run
// reports are memoized by their canonical spec digest: a warm campaign
// issues zero probe commands and skips straight to aggregation.
//
// -max-activations enforces the activation budget: a run whose metered
// ACT commands (probe chains plus measurement Envs) cross the cap
// fails with a typed budget error and a non-zero exit.
//
// With -store DIR, recovered probe chains are persisted in a
// content-addressed artifact store keyed by (profile, seed, probe
// level): the first run pays the reverse-engineering cost, later runs
// load the results and skip straight to measurement with a
// byte-identical report (-progress then shows "probe cost: none").
// -store-readonly serves hits without ever writing, for CI
// determinism checks. See the README's "Persistent artifact store"
// section.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"time"

	"dramscope/internal/cli"
	"dramscope/internal/expt"
	"dramscope/internal/host"
	"dramscope/internal/serve"
	"dramscope/internal/store"
)

func main() {
	runList := flag.String("run", "all", "comma-separated experiment ids (see -list)")
	profile := flag.String("profile", expt.DefaultFigProfile, "device profile for the figure experiments")
	seed := flag.Uint64("seed", expt.DefaultSeed, "suite base seed (per-experiment seeds are split from it)")
	jobs := flag.Int("jobs", 0, "worker count (0 = GOMAXPROCS); results are identical for any value")
	shards := flag.Int("shards", 0, "shard cap per partitioned experiment (0 = worker count); results are identical for any value")
	maxActs := flag.Int64("max-activations", 0, "activation budget: fail the run once metered ACT commands cross the cap (0 = unlimited)")
	campaign := flag.String("campaign", "", "campaign mode: comma-separated profile globs over the catalog (or 'all'); crossed with -seeds")
	seeds := flag.String("seeds", "", "comma-separated seed list for -campaign (default: the -seed value)")
	workers := flag.String("workers", "", "comma-separated worker dramscoped base URLs: federate -campaign members across them (reports stay byte-identical)")
	runsDir := flag.String("campaign-runs", "", "directory for per-run campaign reports, one <digest>.json each (optional)")
	jsonPath := flag.String("json", "", "file for the machine-readable JSON report (optional)")
	csvDir := flag.String("csv", "", "directory for CSV result files (optional)")
	progress := flag.Bool("progress", false, "print per-experiment completion to stderr (stdout stays byte-stable)")
	storeFlags := cli.BindStoreFlags(flag.CommandLine)
	pprofFlags := cli.BindPprofFlags(flag.CommandLine)
	traceFlags := cli.BindTraceFlags(flag.CommandLine)
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	// Cancel on Ctrl-C / SIGINT: in-flight experiments finish, not-yet
	// started ones are skipped and surface a canceled error in the
	// report, and the process exits non-zero through rep.Err. Once the
	// context is canceled the handler is released, so a second Ctrl-C
	// force-kills instead of waiting out in-flight experiments.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	spec := expt.RunSpec{
		Profile:        *profile,
		Seed:           *seed,
		Jobs:           *jobs,
		Shards:         *shards,
		MaxActivations: *maxActs,
	}
	cfg := runConfig{
		spec:     spec,
		runList:  *runList,
		campaign: *campaign,
		seeds:    *seeds,
		workers:  *workers,
		runsDir:  *runsDir,
		jsonPath: *jsonPath,
		csvDir:   *csvDir,
		progress: *progress,
		list:     *list,
		trace:    traceFlags,
	}
	if err := pprofFlags.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	err := run(ctx, cfg, storeFlags)
	// Flush profiles before deciding the exit code: a failed run's
	// profile is usually the one being hunted.
	if perr := pprofFlags.Stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	spec     expt.RunSpec
	runList  string
	campaign string
	seeds    string
	workers  string
	runsDir  string
	jsonPath string
	csvDir   string
	progress bool
	list     bool
	trace    *cli.TraceFlags
}

func run(ctx context.Context, cfg runConfig, storeFlags *cli.StoreFlags) error {
	if cfg.list {
		suite, err := expt.DefaultSuite(cfg.spec.Profile, cfg.spec.Seed)
		if err != nil {
			return err
		}
		for _, name := range suite.Names() {
			fmt.Println(name)
		}
		return nil
	}
	st, err := storeFlags.Open()
	if err != nil {
		return err
	}
	only, err := cli.Selection(cfg.runList)
	if err != nil {
		return err
	}
	cfg.spec.Only = only

	if cfg.campaign != "" {
		return runCampaign(ctx, cfg, st)
	}
	return runSolo(ctx, cfg, st)
}

// runSolo executes one spec — the classic single-run mode.
func runSolo(ctx context.Context, cfg runConfig, st *store.Store) error {
	rs, suite, err := expt.ResolveSpec(cfg.spec, expt.DefaultSuite)
	if err != nil {
		return err
	}
	// -trace: the solo run's trace is named by its canonical digest, so
	// a re-run of the same spec produces the same span IDs. Tracing is
	// out-of-band by construction — the report bytes never move.
	rec := cfg.trace.Recorder()
	rec.SetTraceID(rs.Digest())
	root := rec.Root("run", fmt.Sprintf("run %s seed %d", rs.Profile, rs.Seed)).Begin()
	root.SetAttr("digest", rs.Digest()).SetAttr("profile", rs.Profile).SetAttr("seed", rs.Seed)
	opt := expt.Options{Spec: rs.RunSpec, Context: ctx, Store: st, Trace: root}
	if cfg.progress {
		// Progress is out-of-band on stderr so the deterministic
		// report on stdout stays byte-identical with or without it.
		opt.OnResult = func(index, total int, res *expt.ExptResult) {
			state := "ok"
			if res.Err != nil {
				state = res.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "[%d/%d] %s: %s (%s)\n", index+1, total, res.Name, state,
				res.Elapsed.Round(time.Millisecond))
		}
	}
	rep, err := suite.Run(opt)
	if err != nil {
		return err
	}
	root.End()
	if terr := cfg.trace.Write(rec); terr != nil {
		return terr
	}
	if cfg.progress {
		printProbeCost(suite.ProbeCost())
	}
	fmt.Print(rep.Text())

	if cfg.jsonPath != "" {
		data, err := rep.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.jsonPath, data, 0o644); err != nil {
			return err
		}
	}
	if cfg.csvDir != "" {
		if err := os.MkdirAll(cfg.csvDir, 0o755); err != nil {
			return err
		}
		for _, res := range rep.Results {
			for _, rt := range res.Tables {
				path := filepath.Join(cfg.csvDir, rt.ID+".csv")
				if err := os.WriteFile(path, []byte(rt.Table.CSV()), 0o644); err != nil {
					return err
				}
			}
		}
	}
	if be := rep.BudgetExceeded(); be != nil {
		// Surface the typed budget stop as the run error (the report
		// already embeds the per-experiment failures).
		return be
	}
	return rep.Err()
}

// runCampaign expands the profile globs × seed list into a Campaign
// and prints the deterministic aggregate.
func runCampaign(ctx context.Context, cfg runConfig, st *store.Store) error {
	profiles, err := expt.MatchProfiles(cfg.campaign)
	if err != nil {
		return err
	}
	seeds, err := cli.Seeds(cfg.seeds, cfg.spec.Seed)
	if err != nil {
		return err
	}
	var c expt.Campaign
	for _, prof := range profiles {
		for _, seed := range seeds {
			sp := cfg.spec
			sp.Profile = prof
			sp.Seed = seed
			c.Specs = append(c.Specs, sp)
		}
	}
	if cfg.runsDir != "" {
		if err := os.MkdirAll(cfg.runsDir, 0o755); err != nil {
			return err
		}
	}

	var mu sync.Mutex
	var probeCost host.Counters
	var writeErr error
	// -trace: the campaign derives its trace ID from the member digests
	// once they are resolved, so the recorder starts unnamed.
	rec := cfg.trace.Recorder()
	root := rec.Root("campaign", fmt.Sprintf("campaign %s", cfg.campaign)).Begin()
	root.SetAttr("profiles", cfg.campaign).SetAttr("members", len(c.Specs))
	// -workers: federate members across a worker fleet through the
	// same executor dramscoped's coordinator mode uses. Members no
	// worker can take run on the local pool, so a dead fleet degrades
	// to a plain local campaign.
	var fed *serve.Federator
	opt := expt.CampaignOptions{
		Jobs:    cfg.spec.Jobs,
		Store:   st,
		Context: ctx,
		Trace:   root,
		OnRun: func(index, total int, res *expt.CampaignRunResult) {
			mu.Lock()
			probeCost = probeCost.Add(res.ProbeCost)
			mu.Unlock()
			if cfg.progress {
				state := "ok"
				switch {
				case res.Err != nil:
					state = res.Err.Error()
				case res.Cached:
					state = "cached"
				case res.Remote:
					state = "remote"
				}
				fmt.Fprintf(os.Stderr, "[%d/%d] %s seed %d: %s (%s)\n", index+1, total,
					res.Spec.Profile, res.Spec.Seed, state, res.Elapsed.Round(time.Millisecond))
			}
			if cfg.runsDir != "" && res.Report != nil {
				path := filepath.Join(cfg.runsDir, res.Spec.Digest()+".json")
				if err := os.WriteFile(path, res.Report, 0o644); err != nil {
					mu.Lock()
					writeErr = err
					mu.Unlock()
				}
			}
		},
	}
	if urls := cli.SplitList(cfg.workers); len(urls) > 0 {
		fed = serve.NewFederator(serve.FederationOptions{Workers: urls},
			&expt.Local{Pool: expt.NewPool(cfg.spec.Jobs), Store: st})
		opt.Executor = fed
	}
	rep, err := c.Run(opt)
	if err != nil {
		return err
	}
	root.End()
	if terr := cfg.trace.Write(rec); terr != nil {
		return terr
	}
	if cfg.progress {
		printProbeCost(probeCost)
		if fed != nil {
			fs := fed.Snapshot()
			fmt.Fprintf(os.Stderr, "federation: %d dispatched, %d retried, %d stolen, %d local fallback\n",
				fs.Dispatched, fs.Retried, fs.Stolen, fs.FallbackLocal)
		}
	}
	fmt.Print(rep.Text())
	if cfg.jsonPath != "" {
		data, err := rep.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.jsonPath, data, 0o644); err != nil {
			return err
		}
	}
	if cfg.csvDir != "" {
		// Campaign CSVs are the aggregate roll-ups; per-run artifacts
		// live in -campaign-runs as full JSON reports.
		if err := os.MkdirAll(cfg.csvDir, 0o755); err != nil {
			return err
		}
		for name, tbl := range map[string]interface{ CSV() string }{
			"campaign_vendors":     rep.Vendors,
			"campaign_generations": rep.Generations,
		} {
			path := filepath.Join(cfg.csvDir, name+".csv")
			if err := os.WriteFile(path, []byte(tbl.CSV()), 0o644); err != nil {
				return err
			}
		}
	}
	if writeErr != nil {
		return writeErr
	}
	return rep.Err()
}

// printProbeCost prints the probe bill for this invocation: zero on a
// fully store-warmed run or campaign (the line CI's warm jobs assert
// on).
func printProbeCost(cost host.Counters) {
	if cost.Total() == 0 {
		fmt.Fprintln(os.Stderr, "probe cost: none")
	} else {
		fmt.Fprintf(os.Stderr, "probe cost: %s\n", cost)
	}
}
