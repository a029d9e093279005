package expt

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// soloSpecReport runs one spec through a fresh small suite — the bytes
// an external placement (a federated worker) would hand back.
func soloSpecReport(t *testing.T, spec RunSpec) []byte {
	t.Helper()
	suite := smallSuite(t, spec.Seed, nil)
	rep, err := suite.Run(Options{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// execFunc adapts a function to Executor.
type execFunc func(ctx context.Context, task Task) Execution

func (f execFunc) Execute(ctx context.Context, task Task) Execution { return f(ctx, task) }

// memberExec builds an executor that hands each task to f together
// with the member's index in campaignSpecs, found by spec digest.
func memberExec(t *testing.T, f func(ctx context.Context, index int, task Task) Execution) Executor {
	t.Helper()
	index := make(map[string]int)
	for i, sp := range campaignSpecs() {
		rs, _, err := ResolveSpec(sp, smallFactory(t))
		if err != nil {
			t.Fatal(err)
		}
		index[rs.Digest()] = i
	}
	return execFunc(func(ctx context.Context, task Task) Execution {
		return f(ctx, index[task.Spec.Digest()], task)
	})
}

// TestCampaignPlaceHook: an executor that places some members
// elsewhere (with externally produced solo bytes) and runs the rest on
// a local pool changes nothing about the campaign's bytes — placed
// members are marked Remote, local ones are not, and the aggregate is
// byte-identical to the default executor's run.
func TestCampaignPlaceHook(t *testing.T) {
	t.Parallel()
	ref, _ := runCampaign(t, 2, CampaignOptions{})
	refJSON, err := ref.JSON()
	if err != nil {
		t.Fatal(err)
	}

	placed := soloSpecReport(t, campaignSpecs()[1])
	local := &Local{Pool: NewPool(2)}
	rep, results := runCampaign(t, 2, CampaignOptions{
		Executor: memberExec(t, func(ctx context.Context, index int, task Task) Execution {
			if index != 1 {
				return local.Execute(ctx, task)
			}
			return Execution{Report: placed, Remote: true}
		}),
	})
	got, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, refJSON) {
		t.Fatalf("placed aggregate differs from the local run:\nplaced: %s\nlocal:  %s", got, refJSON)
	}
	for i, res := range results {
		if want := i == 1; res.Remote != want {
			t.Errorf("member %d Remote = %v, want %v", i, res.Remote, want)
		}
	}
	if !bytes.Equal(results[1].Report, placed) {
		t.Error("placed member's result does not carry the placement bytes")
	}
}

// TestCampaignPlaceWriteThrough: a placed member writes through to the
// campaign store exactly like a local execution, so a warm rerun is
// all store hits with the identical aggregate.
func TestCampaignPlaceWriteThrough(t *testing.T) {
	t.Parallel()
	st := openStore(t)
	specs := campaignSpecs()
	cold, coldResults := runCampaign(t, 2, CampaignOptions{
		Store: st,
		Executor: memberExec(t, func(ctx context.Context, index int, task Task) Execution {
			return Execution{Report: soloSpecReport(t, specs[index]), Remote: true}
		}),
	})
	coldJSON, err := cold.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range coldResults {
		if !res.Remote {
			t.Errorf("cold member %d was not placed", i)
		}
	}

	warm, warmResults := runCampaign(t, 2, CampaignOptions{
		Store: st,
		Executor: memberExec(t, func(ctx context.Context, index int, task Task) Execution {
			t.Errorf("warm member %d reached the executor instead of the store", index)
			return Execution{Err: errors.New("unexpected execution")}
		}),
	})
	for i, res := range warmResults {
		if !res.Cached {
			t.Errorf("warm member %d missed the store", i)
		}
	}
	warmJSON, err := warm.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(warmJSON, coldJSON) {
		t.Fatal("warm aggregate differs from the placed cold run")
	}
}

// TestCampaignPlaceError: a placed member that fails with no report is
// a run-level member failure — it surfaces in the summaries like a
// local failure would, without dropping the member from the aggregate.
func TestCampaignPlaceError(t *testing.T) {
	t.Parallel()
	specs := campaignSpecs()
	local := &Local{Pool: NewPool(2)}
	c := &Campaign{Specs: specs}
	rep, err := c.Run(CampaignOptions{
		Factory: smallFactory(t),
		Executor: memberExec(t, func(ctx context.Context, index int, task Task) Execution {
			if index == 0 {
				return Execution{Err: errors.New("member failed on its worker"), Remote: true}
			}
			return local.Execute(ctx, task)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err() == nil {
		t.Fatal("campaign with a failed placed member reports no error")
	}
	if len(rep.Runs) != len(specs) {
		t.Fatalf("aggregate covers %d members, want %d — failures must not drop members", len(rep.Runs), len(specs))
	}
}
