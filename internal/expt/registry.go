package expt

import (
	"fmt"

	"dramscope/internal/topo"
)

// Default suite parameters, shared by cmd/experiments' flag defaults
// and the golden-report regression fixture: the committed fixture is
// the full suite report at exactly (DefaultFigProfile, DefaultSeed).
const (
	DefaultFigProfile = "MfrA-DDR4-x4-2021"
	DefaultSeed       = 7
)

// DefaultSuite registers every paper artifact: Table I, Table III
// (one recovery experiment per representative device plus a render
// step), Figures 5/7/8/10/12/14/15/16, and the §VI defense and
// scrambler evaluations. figProfile selects the device the figure
// experiments measure (the paper uses Mfr. A-2021 DDR4 x4 for
// Fig. 12); seed is the suite base seed every experiment's own seed is
// split from.
//
// Scheduling shape: the seven Table III recoveries run on seven
// distinct devices and parallelize fully; the figure experiments share
// the figProfile device, whose one warm node probes it once, and then
// run concurrently, each on its own clone; fig5 and defense build
// their own modules/devices and float freely.
func DefaultSuite(figProfile string, seed uint64) (*Suite, error) {
	figProf, ok := topo.ByName(figProfile)
	if !ok {
		return nil, fmt.Errorf("expt: unknown profile %q", figProfile)
	}
	s := NewSuite(seed)
	reg := func(e Experiment) {
		if err := s.Register(e); err != nil {
			// Registration errors are programming errors (dup names,
			// missing deps); fail loudly.
			panic(err)
		}
	}

	reg(Experiment{
		Name:  "table1",
		Title: "Table I: tested DRAM population",
		Run: func(j *Job) error {
			j.Emit("table1", TableI())
			return nil
		},
	})

	var parts []string
	for _, p := range topo.Representative() {
		prof := p
		name := "table3/" + prof.Name
		parts = append(parts, name)
		reg(Experiment{
			Name:  name,
			Needs: Needs{Device: prof.Name, Probe: ProbeSubarrays},
			Run: func(j *Job) error {
				row, err := TableIII(j.Env())
				if err != nil {
					return err
				}
				j.SetResult(row)
				return nil
			},
		})
	}
	reg(Experiment{
		Name:  "table3",
		Title: "Table III: recovered subarray structure",
		Needs: Needs{After: parts},
		Run: func(j *Job) error {
			var rows []*TableIIIRow
			for _, part := range parts {
				v, ok := j.Result(part)
				if !ok {
					return fmt.Errorf("missing result from %s", part)
				}
				row, ok := v.(*TableIIIRow)
				if !ok {
					return fmt.Errorf("%s stored a %T, want *TableIIIRow", part, v)
				}
				rows = append(rows, row)
			}
			j.Emit("table3", RenderTableIII(rows))
			return nil
		},
	})

	// recover is the campaign unit: the Table III recovery of the
	// selected figure device itself, as a one-row table. A campaign
	// over the catalog runs `-run recover` once per (profile, seed)
	// spec and rolls the rows up per vendor and generation — any
	// catalog profile gets a recovery row this way, not just the seven
	// representative devices table3 covers.
	reg(Experiment{
		Name:  "recover",
		Title: "Recovered structure: " + figProfile,
		Needs: Needs{Device: figProfile, Probe: ProbeSubarrays},
		Run: func(j *Job) error {
			row, err := TableIII(j.Env())
			if err != nil {
				return err
			}
			j.SetResult(row)
			j.Emit("recover", RenderTableIII([]*TableIIIRow{row}))
			return nil
		},
	})

	reg(Experiment{
		Name:  "fig5",
		Title: "Figure 5: RCD inversion and DQ twisting pitfalls",
		Run: func(j *Job) error {
			p, _ := topo.ByName("MfrB-DDR4-x8-2017")
			res, err := Fig5(p, 4, j.Seed())
			if err != nil {
				return err
			}
			j.Printf("aggressor module row %d\n", res.RCD.AggressorRow)
			j.Printf("unaware victim distances: %v (phantom non-adjacent: %v)\n",
				res.RCD.UnawareDistances, res.RCD.PhantomNonAdjacent())
			j.Printf("aware victim distances:   %v (consistent: %v)\n",
				res.RCD.AwareDistances, res.RCD.Consistent())
			j.Printf("distinct chip images of host 0x55 pattern: %d\n\n", res.DistinctDQImages)
			return nil
		},
	})

	fig := func(name, title string, run func(*Job) error) {
		reg(Experiment{
			Name:  name,
			Title: title,
			Needs: Needs{Device: figProfile, Probe: ProbeSwizzle},
			Run:   run,
		})
	}

	fig("fig7", "Figure 7: recovered data swizzle (O1, O2)", func(j *Job) error {
		_, tbl, err := Fig7(j.Env())
		if err != nil {
			return err
		}
		j.Emit("fig7", tbl)
		return nil
	})
	fig("fig8", "Figure 8: pattern misplacement", func(j *Job) error {
		r, err := Fig8(j.Env())
		if err != nil {
			return err
		}
		j.Printf("host 0x55 'ColStripe' lands as: %s\n", r.NaiveColStripeClass)
		j.Printf("mapping-corrected burst lands as: %s\n\n", r.CorrectedClass)
		return nil
	})
	fig("fig10", "Figure 10: typical vs edge subarray BER (O6)", func(j *Job) error {
		r, err := Fig10(j.Env())
		if err != nil {
			return err
		}
		j.Emit("fig10", RenderFig10([]*Fig10Result{r}))
		return nil
	})
	fig("fig12", "Figures 12-13: AIB alternation by physical bit index (O7-O10)", func(j *Job) error {
		panels, err := Fig12(j.Env())
		if err != nil {
			return err
		}
		j.Emit("fig12", RenderFig12(panels))
		return nil
	})
	fig("fig14", "Figure 14: horizontal data-pattern dependence (O11, O12)", func(j *Job) error {
		r, err := Fig14(j.Env())
		if err != nil {
			return err
		}
		j.Emit("fig14", RenderFig14(r))
		return nil
	})
	fig("fig15", "Figure 15: relative Hcnt (O13)", func(j *Job) error {
		r, err := Fig15(j.Env())
		if err != nil {
			return err
		}
		j.Emit("fig15", RenderFig15(r))
		return nil
	})
	// Fig. 16 is partitioned: its 256 pattern combinations are
	// independent units the scheduler fans out across the pool, each
	// measuring on a pristine clone of the figure device.
	reg(Experiment{
		Name:  "fig16",
		Title: "Figures 16-17: adversarial pattern sweep (O14)",
		Needs: Needs{Device: figProfile, Probe: ProbeSwizzle},
		Part:  Fig16Part(8),
	})

	reg(Experiment{
		Name:  "defense",
		Title: "§VI: coupled-row attacks vs defenses",
		Run: func(j *Job) error {
			p, _ := topo.ByName("MfrA-DDR4-x4-2016")
			r, err := DefenseEval(p, j.Seed())
			if err != nil {
				return err
			}
			j.Emit("defense", r.Render())
			return nil
		},
	})
	reg(Experiment{
		Name:  "scrambler",
		Title: "§VI-B: data scrambling vs the adversarial pattern",
		Needs: Needs{Device: figProfile, Probe: ProbeSwizzle},
		Run: func(j *Job) error {
			r, err := ScramblerEval(j.Env(), 8)
			if err != nil {
				return err
			}
			j.Emit("scrambler", r.Render())
			return nil
		},
	})

	// Per-bank structure survey, partitioned by bank: each bank is
	// probed on its own pristine clone of the figure device.
	reg(Experiment{
		Name:  "banks",
		Title: "Per-bank structure: subarray composition and coupled rows",
		Needs: Needs{Device: figProfile, Probe: ProbeNone},
		Part:  BankSurveyPart(figProf.Banks),
	})

	return s, nil
}
