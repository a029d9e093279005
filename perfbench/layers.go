package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"dramscope/internal/expt"
	"dramscope/internal/rng"
	"dramscope/internal/store"
	"dramscope/internal/topo"
	"dramscope/internal/trace"
)

// maxLayerDevices caps how many distinct probe chains the layer pass
// re-warms after a traced run.
const maxLayerDevices = 32

// measureReps is how many clone-and-measure rounds the layer pass times
// per device.
const measureReps = 3

// Span classification. The program names spans by scheduler path
// (docs/observability.md): "expt:<name>" per experiment, "kernel" under
// it, "warm:<device>" per shared device, "queue"/"execute" per served
// run, and "dispatch:NNNNNN" per federated placement attempt with the
// worker's "run" subtree grafted beneath it.

func isExpt(r trace.Record) bool {
	i := strings.LastIndex(r.Path, "/expt:")
	return i >= 0 && r.Path[i+len("/expt:"):] == r.Name
}

func isLeaf(r trace.Record, name string) bool {
	return r.Name == name && strings.HasSuffix(r.Path, "/"+name)
}

func isWarm(r trace.Record) bool {
	dev, ok := strings.CutPrefix(r.Name, "warm ")
	return ok && strings.HasSuffix(r.Path, "/warm:"+dev)
}

func isDispatch(r trace.Record) bool {
	i := strings.LastIndex(r.Path, "/")
	return strings.HasPrefix(r.Name, "dispatch ") && strings.HasPrefix(r.Path[i+1:], "dispatch:")
}

// warmedDevices lists the probe chains an operation's suites warmed,
// from the device and level attributes of its warm spans. seedOf maps a
// device profile to the suite seed its run used; the Env seed is split
// from it the way the suite does.
func warmedDevices(recs []trace.Record, seedOf func(profile string) uint64) []device {
	var out []device
	for _, r := range recs {
		if !isWarm(r) {
			continue
		}
		var a struct {
			Device string `json:"device"`
			Level  int    `json:"level"`
		}
		if err := json.Unmarshal(r.Attrs, &a); err != nil || a.Level <= int(expt.ProbeNone) {
			continue
		}
		out = append(out, device{a.Device, rng.Split(seedOf(a.Device), "env:"+a.Device), a.Level})
	}
	return out
}

// busyUs is the wall time, in microseconds, during which at least one
// experiment of the operation was executing: the union of its
// experiment spans.
func busyUs(recs []trace.Record) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, r := range recs {
		if isExpt(r) && r.DurUs > 0 {
			ivs = append(ivs, iv{r.StartUs, r.StartUs + r.DurUs})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// layerMetrics turns a traced run's operations into per-layer metrics:
// span-derived times and shares per operation, the chip kernels' work
// counts, and a layer pass that replays the operations' devices through
// the probe, store, clone and measurement layers one call at a time.
// front_ms covers every operation; the execution figures cover the ones
// that executed (a served cache hit has no span tree of its own).
func layerMetrics(b *bench, dep deployment, ops []*opRecord) (map[string]metric, error) {
	var exec, front, probeActs, kActs, kBursts, kBatches []float64
	var queueUs, servedUs, dispatchUs, remoteUs int64
	var devs []device
	for _, op := range ops {
		busy := busyUs(op.recs)
		front = append(front, max(ms(op.latency())-float64(busy)/1e3, 0))
		if op.recs == nil {
			continue
		}
		exec = append(exec, float64(busy)/1e3)
		var pa, ka, kb, kn int64
		paths := make(map[string]trace.Record, len(op.recs))
		for _, r := range op.recs {
			paths[r.Path] = r
		}
		for _, r := range op.recs {
			switch {
			case isWarm(r) && r.Counters != nil:
				pa += r.Counters.ACT
			case isLeaf(r, "kernel"):
				if r.Counters != nil {
					ka += r.Counters.ACT
					kb += r.Counters.RD + r.Counters.WR
				}
				kn += r.Batches
			case isLeaf(r, "queue"):
				queueUs += r.DurUs
				servedUs += r.DurUs
			case isLeaf(r, "execute"):
				servedUs += r.DurUs
			case isDispatch(r):
				if remote, ok := paths[r.Path+"/run"]; ok {
					dispatchUs += r.DurUs
					remoteUs += remote.DurUs
				}
			}
		}
		probeActs = append(probeActs, float64(pa))
		kActs = append(kActs, float64(ka))
		kBursts = append(kBursts, float64(kb))
		kBatches = append(kBatches, float64(kn))
		devs = append(devs, op.devices...)
	}

	if len(exec) == 0 {
		return nil, fmt.Errorf("no traced operation executed")
	}
	// The warm suite's probe warm-ups are store hits, so its layer pass
	// warms from the primed store; every other workload's warm-ups start
	// from an empty one. Traffic that warms no probe chain of its own
	// (Table I and the defense sweep) is given the figure device's.
	var st *store.Store
	if w, ok := dep.(*suiteWarm); ok {
		st = w.st
	}
	if len(devs) == 0 {
		seed := b.opSeed("layer", 0)
		devs = []device{{expt.DefaultFigProfile, rng.Split(seed, "env:"+expt.DefaultFigProfile), int(expt.ProbeSubarrays)}}
	}
	warm, load, clone, meas, err := layerPass(b, st, devs)
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"exec_ms":            {median(exec), "ms"},
		"front_ms":           {median(front), "ms"},
		"queue_share_pct":    {share(queueUs, servedUs), "%"},
		"dispatch_share_pct": {share(dispatchUs-remoteUs, dispatchUs), "%"},
		"warmup_ms":          {median(warm), "ms"},
		"store_load_us":      {median(load), "us"},
		"clone_us":           {median(clone), "us"},
		"measure_ms":         {median(meas), "ms"},
		"probe_acts":         {median(probeActs), "count"},
		"kernel_acts":        {median(kActs), "count"},
		"kernel_bursts":      {median(kBursts), "count"},
		"kernel_batches":     {median(kBatches), "count"},
	}, nil
}

func share(part, whole int64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// layerPass re-warms each distinct probe chain on a fresh Env, timing
// the probe warm-up (against st, or an empty store when st is nil), the
// store read of the chain it left behind, and then, on recycled clones
// of the warmed Env, the clone itself (a reset of the device the
// previous measurement dirtied) and a Table III measurement.
func layerPass(b *bench, st *store.Store, devs []device) (warm, load, clone, meas []float64, err error) {
	seen := make(map[device]bool)
	for _, d := range devs {
		if seen[d] || len(seen) == maxLayerDevices {
			continue
		}
		seen[d] = true
		prof, ok := topo.ByName(d.profile)
		if !ok {
			return nil, nil, nil, nil, fmt.Errorf("unknown device profile %q", d.profile)
		}
		dst := st
		if dst == nil {
			if dst, err = b.openStore("layer"); err != nil {
				return nil, nil, nil, nil, err
			}
		}
		env, err := expt.NewEnv(prof, d.seed)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		t0 := time.Now()
		if err := env.WarmStored(dst, expt.ProbeLevel(d.level)); err != nil {
			return nil, nil, nil, nil, err
		}
		warm = append(warm, ms(time.Since(t0)))

		t0 = time.Now()
		_, ok = dst.LoadProbes(store.ProbeKey{Profile: prof, Seed: d.seed, Level: d.level})
		load = append(load, float64(time.Since(t0))/float64(time.Microsecond))
		if !ok {
			return nil, nil, nil, nil, fmt.Errorf("%s: warmed probe chain missing from the store", d.profile)
		}

		// The first clone builds a device; the timed ones recycle the
		// device the previous measurement left dirty.
		var cl, me []float64
		for i := 0; i <= measureReps; i++ {
			t0 = time.Now()
			c, err := env.Clone()
			if err != nil {
				return nil, nil, nil, nil, err
			}
			tc := time.Since(t0)
			t0 = time.Now()
			_, err = expt.TableIII(c)
			tm := time.Since(t0)
			c.Release()
			if err != nil {
				return nil, nil, nil, nil, fmt.Errorf("%s: %w", d.profile, err)
			}
			if i > 0 {
				cl = append(cl, float64(tc)/float64(time.Microsecond))
				me = append(me, ms(tm))
			}
		}
		clone = append(clone, median(cl))
		meas = append(meas, median(me))
	}
	if len(warm) == 0 {
		return nil, nil, nil, nil, fmt.Errorf("traced operations warmed no probe chain")
	}
	return warm, load, clone, meas, nil
}
