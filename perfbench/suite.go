package main

import (
	"bytes"
	"fmt"
	"time"

	"dramscope/internal/expt"
	"dramscope/internal/store"
	"dramscope/internal/trace"
)

// runSuite is one CLI suite invocation, as cmd/experiments performs it:
// resolve the spec, run the full default suite against the store, and
// render the text and JSON reports. It returns the JSON report.
func runSuite(seed uint64, st *store.Store, root *trace.Span) ([]byte, error) {
	rs, suite, err := expt.ResolveSpec(expt.RunSpec{Profile: expt.DefaultFigProfile, Seed: seed, Jobs: 1, Shards: 1}, expt.DefaultSuite)
	if err != nil {
		return nil, err
	}
	rep, err := suite.Run(expt.Options{Spec: rs.RunSpec, Store: st, Trace: root})
	if err != nil {
		return nil, err
	}
	if err := rep.Err(); err != nil {
		return nil, err
	}
	if rep.Text() == "" {
		return nil, fmt.Errorf("empty text report")
	}
	return rep.JSON()
}

// tracedSuite runs runSuite under a fresh trace when the run is traced
// and returns the operation record alongside the report.
func tracedSuite(b *bench, seed uint64, st *store.Store) (*opRecord, []byte, error) {
	var rec *trace.Recorder
	if b.traced {
		rec = trace.New(trace.DeriveID("perfbench", b.workload, fmt.Sprint(seed)))
	}
	root := rec.Root("run", fmt.Sprintf("suite seed %d", seed)).Begin()
	start := time.Now()
	data, err := runSuite(seed, st, root)
	end := time.Now()
	root.End()
	if err != nil {
		return nil, nil, err
	}
	op := &opRecord{start: start, end: end}
	if b.traced {
		op.recs = rec.Records()
		op.devices = warmedDevices(op.recs, func(string) uint64 { return seed })
	}
	return op, data, nil
}

// suiteWarm primes one store with a cold run at set-up — so setup_s on
// this workload is the cold suite's cost in a fresh process — and every
// operation then re-runs the same suite against it, loading each probe
// chain from the store and going straight to measurement.
type suiteWarm struct {
	b    *bench
	seed uint64
	st   *store.Store
	ref  []byte // the priming run's report
}

func setupSuiteWarm(b *bench) (deployment, error) {
	st, err := b.openStore("primed")
	if err != nil {
		return nil, err
	}
	seed := b.opSeed("op", 0)
	ref, err := runSuite(seed, st, nil)
	if err != nil {
		return nil, err
	}
	return &suiteWarm{b: b, seed: seed, st: st, ref: ref}, nil
}

func (d *suiteWarm) op(int) (*opRecord, error) {
	op, data, err := tracedSuite(d.b, d.seed, d.st)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(data, d.ref) {
		return nil, fmt.Errorf("suite seed %d: warm report differs from the priming cold run", d.seed)
	}
	return op, nil
}

// verify reproduces the golden suite report; every operation already
// compared its bytes with the cold priming run.
func (d *suiteWarm) verify() error { return checkGoldenSuite(d.b) }

func (d *suiteWarm) close() {}
