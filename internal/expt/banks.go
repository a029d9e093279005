package expt

import (
	"fmt"

	"dramscope/internal/core"
	"dramscope/internal/stats"
	"dramscope/internal/topo"
)

// BankSurveyRow is one bank's recovered structure: the per-bank form
// of the paper's Table III observations. The paper reads a die's
// structure off one bank; the survey repeats the probes on every bank
// to confirm they all share it — and because each bank is probed on
// its own pristine device clone, the banks make natural shard units.
type BankSurveyRow struct {
	Bank int
	// Boundaries counts the subarray boundaries inside the scan window.
	Boundaries int
	// Heights lists the leading subarray heights (at most four).
	Heights []int
	// CoupledDistance is the coupled-row distance (0 = not coupled).
	CoupledDistance int
	// Remapped reports internal row remapping (§III-C pitfall 2).
	Remapped bool
}

// sameStructure reports whether two banks recovered identical
// structure.
func (r *BankSurveyRow) sameStructure(o *BankSurveyRow) bool {
	if r.Boundaries != o.Boundaries || r.CoupledDistance != o.CoupledDistance ||
		r.Remapped != o.Remapped || len(r.Heights) != len(o.Heights) {
		return false
	}
	for i := range r.Heights {
		if r.Heights[i] != o.Heights[i] {
			return false
		}
	}
	return true
}

// bankScanRows bounds the per-bank boundary scan to one subarray
// pattern block plus slack: enough to see the block's full composition
// without paying for the whole bank, which is what keeps one bank
// cheap enough to be a shard unit.
func bankScanRows(p topo.Profile) int {
	sum := 0
	for _, h := range p.Block {
		sum += h
	}
	return sum + 64
}

// BankSurvey probes one bank of a pristine device: row order, the
// leading subarray composition (bounded scan), and the coupled-row
// distance. The env must be freshly built or cloned — the probes issue
// commands, so a shared suite Env is not a valid target.
func BankSurvey(e *Env, bank int) (*BankSurveyRow, error) {
	if banks := e.Chip.Banks(); bank < 0 || bank >= banks {
		return nil, fmt.Errorf("expt: bank %d out of range [0,%d)", bank, banks)
	}
	ro, err := core.ProbeRowOrder(e.Host, bank)
	if err != nil {
		return nil, fmt.Errorf("expt: bank %d row order: %w", bank, err)
	}
	scan := core.SubarrayScan{MaxRows: bankScanRows(e.Prof), Cols: core.DefaultSubarrayScan.Cols}
	sub, err := core.ProbeSubarrays(e.Host, bank, ro, scan)
	if err != nil {
		return nil, fmt.Errorf("expt: bank %d subarrays: %w", bank, err)
	}
	coupled, err := core.ProbeCoupledRows(e.Host, bank, ro)
	if err != nil {
		return nil, fmt.Errorf("expt: bank %d coupled rows: %w", bank, err)
	}
	heights := sub.Heights
	if len(heights) > 4 {
		heights = heights[:4]
	}
	return &BankSurveyRow{
		Bank:            bank,
		Boundaries:      len(sub.Boundaries),
		Heights:         append([]int(nil), heights...),
		CoupledDistance: coupled.Distance,
		Remapped:        ro.Remapped(),
	}, nil
}

// RenderBankSurvey renders the per-bank rows.
func RenderBankSurvey(rows []*BankSurveyRow) *stats.Table {
	t := stats.NewTable("Bank", "Boundaries", "Leading heights", "Coupled distance", "Row remap")
	for _, r := range rows {
		coupled := "N/A"
		if r.CoupledDistance > 0 {
			coupled = fmt.Sprintf("%d rows", r.CoupledDistance)
		}
		t.Row(r.Bank, r.Boundaries, fmt.Sprint(r.Heights), coupled, r.Remapped)
	}
	return t
}

// BankSurveyPart partitions the survey: one unit per bank, each
// probing its bank on its own pristine clone of the shared device, so
// the banks fan out across the worker pool. The merge step renders the
// table and checks that every bank recovered the same structure.
func BankSurveyPart(banks int) *Partition {
	return &Partition{
		Units: banks,
		Unit: func(sj *ShardJob) (interface{}, error) {
			return BankSurvey(sj.Env(), sj.Unit())
		},
		Merge: func(j *Job, units []interface{}) error {
			rows := make([]*BankSurveyRow, len(units))
			for i, u := range units {
				rows[i] = u.(*BankSurveyRow)
			}
			j.SetResult(rows)
			j.Emit("banks", RenderBankSurvey(rows))
			consistent := true
			for _, r := range rows[1:] {
				if !r.sameStructure(rows[0]) {
					consistent = false
				}
			}
			j.Printf("all %d banks structurally consistent: %v\n\n", len(rows), consistent)
			return nil
		},
	}
}
