package expt

import (
	"fmt"

	"dramscope/internal/core"
	"dramscope/internal/module"
	"dramscope/internal/sim"
	"dramscope/internal/stats"
	"dramscope/internal/topo"
)

// Experiment budgets. Paper values are 300K RowHammer activations and
// 8K x 7.8us RowPress activations (§V-B); the measurement runs here
// use the same shapes with row counts sized for simulator statistics.
const (
	hammerActs = 300_000
	pressActs  = 8192
	pressOn    = sim.Time(7800) * sim.Nanosecond
	figRows    = 48 // victim rows per configuration
)

// Fig5 runs the §III-C pitfall demonstrations on an RDIMM module.
type Fig5Result struct {
	RCD *core.RCDPitfallReport
	// DistinctDQImages counts the different chip-side images of the
	// host pattern 0x55 (pitfall 3).
	DistinctDQImages int
}

// Fig5 builds a module of the given profile and runs the pitfalls.
func Fig5(prof topo.Profile, chips int, seed uint64) (*Fig5Result, error) {
	m, err := module.New(prof, chips, seed)
	if err != nil {
		return nil, err
	}
	rep, err := core.AnalyzeRCDPitfall(m, 0)
	if err != nil {
		return nil, err
	}
	width := uint(m.DataWidth())
	pattern := uint64(0x5555555555555555)
	if width < 64 {
		pattern &= uint64(1)<<width - 1
	}
	return &Fig5Result{
		RCD:              rep,
		DistinctDQImages: core.DistinctImages(m, pattern),
	}, nil
}

// Fig7 recovers the data swizzle (O1/O2) and renders it like the
// paper's Figure 7.
func Fig7(e *Env) (*core.SwizzleMap, *stats.Table, error) {
	sm, err := e.Swizzle()
	if err != nil {
		return nil, nil, err
	}
	t := stats.NewTable("MAT", "burst bits (physical order)", "parity classes")
	for i, ord := range sm.Orders {
		par := make([]int, len(ord))
		for j, c := range ord {
			par[j] = sm.Parity[c]
		}
		t.Row(i, fmt.Sprint(ord), fmt.Sprint(par))
	}
	t.Row("width", fmt.Sprintf("%d cells/MAT", sm.MATWidthBits), "")
	return sm, t, nil
}

// Fig8Result reports how intended host patterns actually land
// (Figure 8's misplacement analysis).
type Fig8Result struct {
	NaiveColStripeClass core.PatternClass // what 0x5555… really produces
	CorrectedClass      core.PatternClass // what the mapping-aware burst produces
}

// Fig8 classifies the physical placement of the classic patterns.
func Fig8(e *Env) (*Fig8Result, error) {
	sm, err := e.Swizzle()
	if err != nil {
		return nil, err
	}
	w := e.Host.DataWidth()
	naive := uint64(0x5555555555555555) & (uint64(1)<<uint(w) - 1)
	return &Fig8Result{
		NaiveColStripeClass: core.ClassifyPhysical(sm, w, naive),
		CorrectedClass:      core.ClassifyPhysical(sm, w, core.CorrectedColStripe(sm, w)),
	}, nil
}

// Fig10Result compares typical vs edge subarray BER for the two solid
// data arrangements (O6).
type Fig10Result struct {
	Device string
	// Rates[pattern][kind]: pattern 0 = (aggr 0, vic 1), 1 = (aggr 1,
	// vic 0); kind 0 = typical, 1 = edge.
	Rates [2][2]stats.BER
}

// Fig10 measures one device.
func Fig10(e *Env) (*Fig10Result, error) {
	a, err := e.AIB()
	if err != nil {
		return nil, err
	}
	typical, err := e.interiorVictims(figRows / 2)
	if err != nil {
		return nil, err
	}
	edge, err := e.edgeVictims(figRows / 2)
	if err != nil {
		return nil, err
	}
	ones := uint64(1)<<uint(e.Host.DataWidth()) - 1
	out := &Fig10Result{Device: e.Prof.Name}
	for pi, pat := range []struct{ aggr, vic uint64 }{{0, ones}, {ones, 0}} {
		for ki, rows := range [][]int{typical, edge} {
			res, err := a.Measure(core.Run{
				Mode: core.ModeHammer, Acts: hammerActs,
				VictimPhys: rows, Side: core.AggrAbove,
				VictimData: core.Solid(pat.vic), AggrData: core.Solid(pat.aggr),
			})
			if err != nil {
				return nil, err
			}
			out.Rates[pi][ki] = res.Total
		}
	}
	return out, nil
}

// RenderFig10 renders the typical-vs-edge comparison.
func RenderFig10(rows []*Fig10Result) *stats.Table {
	t := stats.NewTable("Device", "aggr/vic", "typical BER", "edge BER", "edge/typical")
	for _, r := range rows {
		for pi, label := range []string{"0/1", "1/0"} {
			typ, edge := r.Rates[pi][0], r.Rates[pi][1]
			t.Row(r.Device, label, typ.Rate(), edge.Rate(), edge.RelativeTo(typ))
		}
	}
	return t
}

// Fig12Panel is one of the eight BER-vs-bit-index panels.
type Fig12Panel struct {
	Mode    core.Mode
	Side    core.Side
	Data    uint64 // victim data value (0 or 1 per cell)
	ByPhys  *stats.Profile
	ByGate  [2]stats.BER // Figure 13's A/B grouping from the same run
	RowBase int
}

// evenParityVictims returns interior victim rows at even physical
// parity (gate classes alternate with row parity, so Figure 13's
// grouping needs a fixed parity).
func (e *Env) evenParityVictims(n int) ([]int, error) {
	sub, err := e.Subarrays()
	if err != nil {
		return nil, err
	}
	if len(sub.Boundaries) < 2 {
		return nil, fmt.Errorf("expt: need two boundaries for interior victims")
	}
	base := (sub.Boundaries[0] + 9) &^ 1
	limit := sub.Boundaries[1] - 2
	var out []int
	for p := base; len(out) < n && p < limit; p += 4 {
		out = append(out, p)
	}
	if len(out) < n {
		return nil, fmt.Errorf("expt: subarray too small for %d victims", n)
	}
	return out, nil
}

// Fig12 runs the eight panels: {RowPress, RowHammer} x {upper, lower}
// x {data 0, data 1}, reporting BER by physically remapped bit index.
func Fig12(e *Env) ([]*Fig12Panel, error) {
	a, err := e.AIB()
	if err != nil {
		return nil, err
	}
	sm := a.Map
	victims, err := e.evenParityVictims(figRows)
	if err != nil {
		return nil, err
	}
	ones := uint64(1)<<uint(e.Host.DataWidth()) - 1

	var panels []*Fig12Panel
	for _, mode := range []core.Mode{core.ModePress, core.ModeHammer} {
		for _, side := range []core.Side{core.AggrAbove, core.AggrBelow} {
			for _, data := range []uint64{0, 1} {
				vic := uint64(0)
				if data == 1 {
					vic = ones
				}
				cfg := core.Run{
					Mode: mode, VictimPhys: victims, Side: side,
					VictimData: core.Solid(vic), AggrData: core.Solid(ones ^ vic),
				}
				if mode == core.ModeHammer {
					cfg.Acts = hammerActs
				} else {
					cfg.Acts = pressActs
					cfg.PressOn = pressOn
				}
				res, err := a.Measure(cfg)
				if err != nil {
					return nil, err
				}
				p := &Fig12Panel{Mode: mode, Side: side, Data: data, ByPhys: res.ByPhysClass}
				// Figure 13 grouping: all victims share even physical
				// parity, so each bit's gate class is fixed per panel.
				for b := 0; b < e.Host.DataWidth(); b++ {
					g := sm.GateClass(0, b, side)
					p.ByGate[g].Add(res.ByBit.Get(b))
				}
				panels = append(panels, p)
			}
		}
	}
	return panels, nil
}

// RenderFig12 renders the alternation profiles.
func RenderFig12(panels []*Fig12Panel) *stats.Table {
	t := stats.NewTable("mode", "aggr", "data", "even-pos BER", "odd-pos BER", "ratio")
	for _, p := range panels {
		var even, odd stats.BER
		for _, k := range p.ByPhys.Keys() {
			if k%2 == 0 {
				even.Add(p.ByPhys.Get(k))
			} else {
				odd.Add(p.ByPhys.Get(k))
			}
		}
		ratio := 0.0
		if odd.Rate() > 0 {
			ratio = even.Rate() / odd.Rate()
		}
		t.Row(p.Mode.String(), p.Side.String(), p.Data, even.Rate(), odd.Rate(), ratio)
	}
	return t
}

// Fig14Result holds the horizontal-influence relative BERs.
type Fig14Result struct {
	// Victim[variant][value]: relative BER for variants
	// {Vic±1, Vic±2, Vic±1±2} and target values {0,1} (Fig. 14a).
	Victim [3][2]float64
	// Aggr[variant][value]: relative BER for variants
	// {Aggr0, Aggr±1, Aggr±2} (Fig. 14b).
	Aggr [3][2]float64
}

// Fig14 measures the horizontal victim (O11) and aggressor (O12)
// data-pattern dependence with targeted patterns around probe cells
// placed through the recovered swizzle.
func Fig14(e *Env) (*Fig14Result, error) {
	a, err := e.AIB()
	if err != nil {
		return nil, err
	}
	sm := a.Map
	victims, err := e.interiorVictims(figRows)
	if err != nil {
		return nil, err
	}
	width := e.Host.DataWidth()
	ones := uint64(1)<<uint(width) - 1

	// Targets: position 2 of every component's column group. Mask
	// selects those bits.
	targetPos := 2
	var mask uint64
	for _, ord := range sm.Orders {
		mask |= 1 << uint(ord[targetPos])
	}
	maskFn := func(int) uint64 { return mask }

	// posPattern builds a burst: solid base value with the cells at
	// the given order positions forced to the opposite value.
	posPattern := func(base uint64, flipPos ...int) func(int) uint64 {
		burst := uint64(0)
		if base != 0 {
			burst = ones
		}
		for _, pos := range flipPos {
			for _, ord := range sm.Orders {
				burst ^= 1 << uint(ord[pos])
			}
		}
		return core.Solid(burst)
	}

	measure := func(vic, aggr func(int) uint64) (stats.BER, error) {
		res, err := a.Measure(core.Run{
			Mode: core.ModeHammer, Acts: hammerActs * 2,
			VictimPhys: victims, Side: core.AggrAbove,
			VictimData: vic, AggrData: aggr, TargetMask: maskFn,
		})
		if err != nil {
			return stats.BER{}, err
		}
		return res.Total, nil
	}

	out := &Fig14Result{}
	for vi, value := range []uint64{0, 1} {
		base := uint64(0)
		if value == 1 {
			base = ones
		}
		solidVic := core.Solid(base)
		solidOppAggr := core.Solid(ones ^ base)
		baseline, err := measure(solidVic, solidOppAggr)
		if err != nil {
			return nil, err
		}
		// Fig. 14a: victim-side variants. Position 2's distance-1
		// neighbors are positions 1 and 3; distance-2 are position 0
		// of this and the next column group.
		vicVariants := [][]int{{1, 3}, {0}, {0, 1, 3}}
		for i, flip := range vicVariants {
			b, err := measure(posPattern(base, flip...), solidOppAggr)
			if err != nil {
				return nil, err
			}
			out.Victim[i][vi] = b.RelativeTo(baseline)
		}
		// Fig. 14b: aggressor-side variants, set to the victim's own
		// value at distance 0, ±1, ±2.
		aggrVariants := [][]int{{2}, {1, 3}, {0}}
		for i, flip := range aggrVariants {
			b, err := measure(solidVic, posPattern(ones^base, flip...))
			if err != nil {
				return nil, err
			}
			out.Aggr[i][vi] = b.RelativeTo(baseline)
		}
	}
	return out, nil
}

// RenderFig14 renders the relative BER table.
func RenderFig14(r *Fig14Result) *stats.Table {
	t := stats.NewTable("pattern", "relative BER (Vic0=0)", "relative BER (Vic0=1)")
	names := []string{"Vic-1,1 opposite", "Vic-2,2 opposite", "Vic-2,-1,1,2 opposite"}
	for i, n := range names {
		t.Row(n, r.Victim[i][0], r.Victim[i][1])
	}
	anames := []string{"Aggr0 same", "Aggr-1,1 same", "Aggr-2,2 same"}
	for i, n := range anames {
		t.Row(n, r.Aggr[i][0], r.Aggr[i][1])
	}
	return t
}

// Fig15Result holds relative first-flip counts.
type Fig15Result struct {
	// Relative[variant][value]: Hcnt relative to the solid baseline
	// for variants {Vic±1, Vic±2, Vic±1±2} and values {0,1}.
	Relative [3][2]float64
}

// Fig15 measures relative Hcnt on weak target cells.
func Fig15(e *Env) (*Fig15Result, error) {
	ro, err := e.Order()
	if err != nil {
		return nil, err
	}
	sm, err := e.Swizzle()
	if err != nil {
		return nil, err
	}
	sub, err := e.Subarrays()
	if err != nil {
		return nil, err
	}
	meter := &core.HcntMeter{H: e.Host, Bank: e.Bank, Order: ro, Map: sm}
	base := (sub.Boundaries[0] + sub.Boundaries[1]) / 2

	out := &Fig15Result{}
	variants := []core.Pattern{
		{OppositeAt: []int{-1, 1}},
		{OppositeAt: []int{-2, 2}},
		{OppositeAt: []int{-2, -1, 1, 2}},
	}
	for vi, value := range []uint64{0, 1} {
		targets, err := meter.FindTargets(base, 24, value, 3)
		if err != nil {
			return nil, err
		}
		// Average ratios over the found targets (ratios are exact per
		// cell; averaging guards against boundary columns).
		sums := [3]float64{}
		n := 0
		for _, tgt := range targets {
			h0, err := meter.MeasureHcnt(tgt, core.Pattern{})
			if err != nil {
				return nil, err
			}
			ok := true
			var ratios [3]float64
			for i, pat := range variants {
				hv, err := meter.MeasureHcnt(tgt, pat)
				if err != nil {
					ok = false
					break
				}
				ratios[i] = float64(hv) / float64(h0)
			}
			if !ok {
				continue
			}
			for i := range sums {
				sums[i] += ratios[i]
			}
			n++
		}
		if n == 0 {
			return nil, fmt.Errorf("expt: no usable Hcnt targets for value %d", value)
		}
		for i := range sums {
			out.Relative[i][vi] = sums[i] / float64(n)
		}
	}
	return out, nil
}

// RenderFig15 renders the relative Hcnt table.
func RenderFig15(r *Fig15Result) *stats.Table {
	t := stats.NewTable("pattern", "relative Hcnt (Vic0=0)", "relative Hcnt (Vic0=1)")
	names := []string{"Vic-1,1", "Vic-2,2", "Vic-2,-1,1,2"}
	for i, n := range names {
		t.Row(n, r.Relative[i][0], r.Relative[i][1])
	}
	return t
}

// fig16Combos is the Figure 16 sweep size: all 16x16 combinations of
// repeating 4-cell victim and aggressor patterns. Unit index u encodes
// the combination (victim u/16, aggressor u%16).
const fig16Combos = 256

// fig16Unit measures one victim/aggressor combination on c, a pristine
// clone of the warmed device Env. Running every combination on its own
// clone makes the combinations fully independent: the sweep result
// cannot depend on the order they run in, on how they are grouped into
// shards, or on what other experiments did to the parent device.
func fig16Unit(c *Env, rows, unit int) (stats.BER, error) {
	a, err := c.AIB()
	if err != nil {
		return stats.BER{}, err
	}
	victims, err := c.interiorVictims(rows)
	if err != nil {
		return stats.BER{}, err
	}
	return core.SweepUnit(a, victims, hammerActs, uint8(unit/16), uint8(unit%16))
}

// Fig16 runs the 256-combination adversarial pattern sweep (O13/O14)
// serially: each combination on its own pristine clone of e, merged
// with core.MergeSweep — the same numbers the sharded suite path
// produces for any shard count. e's probe chain is warmed as a side
// effect; its device state is otherwise left untouched.
func Fig16(e *Env, rows int) (*core.SweepResult, error) {
	// Warm the parent once so the clones' probe caches are primed;
	// otherwise every clone would re-run the whole probe chain.
	if _, err := e.Swizzle(); err != nil {
		return nil, err
	}
	var rates [16][16]stats.BER
	for u := 0; u < fig16Combos; u++ {
		c, err := e.Clone()
		if err != nil {
			return nil, err
		}
		r, err := fig16Unit(c, rows, u)
		c.Release()
		if err != nil {
			return nil, err
		}
		rates[u/16][u%16] = r
	}
	return core.MergeSweep(&rates)
}

// Fig16Part is the partitioned form of the sweep for the Suite
// scheduler: one unit per victim/aggressor combination, each measured
// on the clone the scheduler made for it, merged into the rendered
// Figure 16 table (and a SweepResult stored for dependents).
func Fig16Part(rows int) *Partition {
	return &Partition{
		Units: fig16Combos,
		Unit: func(sj *ShardJob) (interface{}, error) {
			if sj.Env() == nil {
				return nil, fmt.Errorf("expt: fig16 needs a device Env")
			}
			return fig16Unit(sj.Env(), rows, sj.Unit())
		},
		Merge: func(j *Job, units []interface{}) error {
			var rates [16][16]stats.BER
			for i, u := range units {
				rates[i/16][i%16] = u.(stats.BER)
			}
			r, err := core.MergeSweep(&rates)
			if err != nil {
				return err
			}
			j.SetResult(r)
			j.Emit("fig16", RenderFig16(r))
			return nil
		},
	}
}

// RenderFig16 renders the sweep's extremes.
func RenderFig16(r *core.SweepResult) *stats.Table {
	t := stats.NewTable("victim", "aggressor", "relative BER")
	t.Row(fmt.Sprintf("%#x", r.WorstVictim), fmt.Sprintf("%#x", r.WorstAggr), r.WorstRelative)
	t.Row("0xf", "0x0", r.Relative[0xF][0x0])
	t.Row("0x3", "0xc", r.Relative[0x3][0xC])
	t.Row("0xc", "0x3", r.Relative[0xC][0x3])
	t.Row("0x5", "0xa", r.Relative[0x5][0xA])
	t.Row("0xa", "0xa", r.Relative[0xA][0xA])
	return t
}
