package expt

import "fmt"

// Partition declares an Experiment as a set of independent work units
// that the scheduler may fan out across the worker pool — the
// below-device parallelism layer. A partitioned experiment has no Run;
// instead the scheduler executes Unit once per unit and then Merge
// once, as the experiment's visible step.
//
// Determinism contract (the reason a Partition is expressed in units,
// not shards): the report must be byte-identical for any worker count
// AND any shard count, so the unit — not the shard — is the atom of
// both seeding and device state. Each unit receives its own seed
// (rng.SplitN of the experiment seed by unit index) and must touch no
// mutable state shared with other units: like a monolithic Run, a unit
// measures on the pristine clone of the warmed device Env that the
// scheduler made, meters and releases for it (ShardJob.Env). Shards
// are then pure batching — Options.Shards groups units onto scheduler
// nodes to bound overhead — and can never change a result. Merge
// receives the unit results indexed by unit, independent of grouping
// or completion order, and must be a pure function of them.
type Partition struct {
	// Units is the number of independent work units (> 0).
	Units int
	// Unit runs one unit. It executes concurrently with other units of
	// the same experiment; its ShardJob's Env is its own, everything
	// else it reads is read-only shared state.
	Unit func(*ShardJob) (interface{}, error)
	// Merge combines the unit results (indexed by unit) into the
	// experiment's output block. It runs on the experiment's visible
	// node, after every unit completed, with the parent Job — Emit,
	// Printf, SetResult, and Result all work as in a plain Run, but
	// Env is nil: a merge issues no device commands.
	Merge func(*Job, []interface{}) error
}

// validate checks a Partition at registration time.
func (p *Partition) validate(name string) error {
	if p.Units <= 0 {
		return fmt.Errorf("suite: experiment %s declares %d units", name, p.Units)
	}
	if p.Unit == nil {
		return fmt.Errorf("suite: experiment %s needs a Unit func", name)
	}
	if p.Merge == nil {
		return fmt.Errorf("suite: experiment %s needs a Merge func", name)
	}
	return nil
}

// ShardJob is the handle a Partition's Unit receives: the unit index,
// the unit's own seed, and the unit's own measurement Env.
type ShardJob struct {
	name string
	unit int
	seed uint64
	env  *Env
}

// Name returns the owning experiment's registered name.
func (sj *ShardJob) Name() string { return sj.name }

// Unit returns this unit's index in [0, Partition.Units).
func (sj *ShardJob) Unit() int { return sj.unit }

// Seed returns the unit's own seed, split from the experiment seed by
// unit index. It is stable across runs, worker counts, and shard
// counts.
func (sj *ShardJob) Seed() uint64 { return sj.seed }

// Env returns the unit's measurement Env (nil unless Needs.Device is
// set): a pristine clone of the device's shared Env, warmed to the
// experiment's probe level — probe results read from its cache,
// commands drive a fresh device no other unit touches. The scheduler
// made it for this unit alone, meters the activations it issues and
// recycles its device when the unit returns, so the unit must not
// retain it.
func (sj *ShardJob) Env() *Env { return sj.env }
