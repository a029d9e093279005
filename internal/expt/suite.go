// Suite is the experiment orchestrator: every paper artifact is
// registered as a named, self-describing Experiment, and the Suite
// executes a selection of them over a worker pool.
//
// Determinism is the design center. Results are bit-identical for a
// fixed seed regardless of the worker count because
//
//   - every experiment draws its randomness from its own seed, split
//     from the suite seed by name (rng.Split) — never from shared
//     generator state;
//   - experiments that share a device (Needs.Device) share one Env,
//     which only the device's warm node drives: it warms the probe
//     chain to the deepest level any of them declares (through the
//     artifact store, when one is configured) before any of them
//     runs, and each then measures on its own pristine clone of that
//     Env — fresh device state, probe cache primed read-only — so no
//     measurement can observe another's (or the probes') residue, and
//     a store-warmed run is byte-identical to a freshly probed one;
//   - experiments therefore touch disjoint state and may interleave
//     freely, on one device as across devices;
//   - partitioned experiments (Partition) shard below the device
//     level: every unit is independently seeded (rng.SplitN by unit
//     index) and measures on its own pristine device clone, so the
//     merged result is also independent of the shard count;
//   - output is assembled in registration order, not completion order.
//
// (File comment — the package comment lives in expt.go.)

package expt

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"dramscope/internal/host"
	"dramscope/internal/rng"
	"dramscope/internal/stats"
	"dramscope/internal/store"
	"dramscope/internal/topo"
	"dramscope/internal/trace"
)

// Needs declares an experiment's scheduling requirements.
type Needs struct {
	// Device names a topo profile. Experiments that share a Device
	// measure on their own clones of one shared, warmed Env; the empty
	// string means the experiment manages its own devices. Either way
	// it runs concurrently with everything it has no After edge to.
	Device string
	// Probe is the deepest probe-chain level the experiment reads from
	// the shared Env. The scheduler warms the Env to the maximum level
	// declared across the device's selected experiments before any of
	// them runs.
	Probe ProbeLevel
	// After lists experiments that must complete first (their results
	// are visible through Job.Result). Selecting an experiment
	// transitively selects its After dependencies.
	After []string
}

// Job is the handle an Experiment's Run receives: its split seed, its
// device Env (if any — a pristine, probe-primed clone of the device's
// shared Env; a Partition's Merge gets none), its output buffer, and
// the results of its dependencies.
type Job struct {
	name  string
	seed  uint64
	env   *Env
	suite *Suite
	deps  map[string]bool

	buf    strings.Builder
	tables []RenderedTable
	result interface{}
}

// Name returns the experiment's registered name.
func (j *Job) Name() string { return j.name }

// Seed returns the experiment's own seed, split from the suite seed by
// experiment name. It is stable across runs, worker counts, and
// selection subsets.
func (j *Job) Seed() uint64 { return j.seed }

// Env returns the Run's measurement Env (nil unless Needs.Device is
// set): a pristine clone of the device's shared Env — probe results
// read from its cache, commands drive a fresh device. The scheduler
// meters its activations and recycles its device when the Run returns.
// It is always nil inside a Partition's Merge, which measures nothing.
func (j *Job) Env() *Env { return j.env }

// Printf appends a line-oriented message to the experiment's output
// block.
func (j *Job) Printf(format string, a ...interface{}) {
	fmt.Fprintf(&j.buf, format, a...)
}

// Emit appends a rendered table to the output block and records it
// under id for the machine-readable report.
func (j *Job) Emit(id string, t *stats.Table) {
	j.buf.WriteString(t.String())
	j.buf.WriteString("\n")
	j.tables = append(j.tables, RenderedTable{ID: id, Table: t})
}

// SetResult stores a typed result that experiments depending on this
// one (via Needs.After) can read with Job.Result.
func (j *Job) SetResult(v interface{}) { j.result = v }

// Result returns the stored result of a completed dependency. Only
// experiments declared in Needs.After are visible: an undeclared name
// returns false even if that experiment happens to have finished,
// because "happens to have finished" depends on the worker count and
// would silently break the bit-identical-for-any-jobs guarantee.
func (j *Job) Result(name string) (interface{}, bool) {
	if !j.deps[name] {
		return nil, false
	}
	j.suite.mu.Lock()
	defer j.suite.mu.Unlock()
	v, ok := j.suite.results[name]
	return v, ok
}

// Experiment is one named, self-describing paper artifact. Exactly one
// of Run and Part must be set: Run for a monolithic experiment, Part
// for one partitioned into independent units the scheduler fans out
// across the worker pool (see Partition).
type Experiment struct {
	// Name is the stable identifier used by -run selection, seed
	// splitting, and After edges.
	Name string
	// Title, when non-empty, heads the experiment's output block.
	Title string
	Needs Needs
	Run   func(*Job) error
	Part  *Partition
}

// RenderedTable pairs a table with its artifact id.
type RenderedTable struct {
	ID    string
	Table *stats.Table
}

// ExptResult is one experiment's outcome in a Report.
type ExptResult struct {
	Name   string
	Title  string
	Text   string // rendered block body (no title line)
	Tables []RenderedTable
	Err    error

	// Elapsed is the experiment's wall time: for a monolithic
	// experiment the span of its Run, for a partitioned one the span
	// from its first shard starting to its merge completing. It is
	// out-of-band metadata for progress reporting (OnResult, -progress,
	// the service's stream events) and is deliberately excluded from
	// MarshalJSON — wall time in the report would break the
	// byte-identical-for-a-fixed-seed contract.
	Elapsed time.Duration
}

// MarshalJSON renders one result exactly like the corresponding entry
// of Report.JSON's "experiments" array, so per-experiment consumers
// (the service's NDJSON stream) and whole-report consumers see one
// schema.
func (res *ExptResult) MarshalJSON() ([]byte, error) {
	je := jsonExperiment{Name: res.Name, Title: res.Title, Text: res.Text}
	for _, t := range res.Tables {
		je.Tables = append(je.Tables, jsonTable{ID: t.ID, Table: t.Table})
	}
	if res.Err != nil {
		je.Err = res.Err.Error()
	}
	return json.Marshal(je)
}

// Report collects the outcomes of one Suite run in registration order.
type Report struct {
	Seed    uint64
	Results []*ExptResult
}

// Text renders every experiment block in registration order — the
// exact byte stream cmd/experiments prints. Experiments that produced
// no output (helper steps) are omitted.
func (r *Report) Text() string {
	var sb strings.Builder
	for _, res := range r.Results {
		if res.Err != nil || (res.Text == "" && res.Title == "") {
			continue
		}
		if res.Title != "" {
			fmt.Fprintf(&sb, "== %s ==\n", res.Title)
		}
		sb.WriteString(res.Text)
	}
	return sb.String()
}

// Err joins the failures, if any.
func (r *Report) Err() error {
	var msgs []string
	for _, res := range r.Results {
		if res.Err != nil {
			msgs = append(msgs, fmt.Sprintf("%s: %v", res.Name, res.Err))
		}
	}
	if len(msgs) == 0 {
		return nil
	}
	return fmt.Errorf("suite: %s", strings.Join(msgs, "; "))
}

// jsonReport is the machine-readable shape of a Report. Experiments
// marshal through ExptResult.MarshalJSON — the single conversion site
// shared with per-experiment consumers, so the two can never drift.
type jsonReport struct {
	Seed        uint64        `json:"seed"`
	Experiments []*ExptResult `json:"experiments"`
}

type jsonExperiment struct {
	Name   string      `json:"name"`
	Title  string      `json:"title,omitempty"`
	Text   string      `json:"text,omitempty"`
	Tables []jsonTable `json:"tables,omitempty"`
	Err    string      `json:"error,omitempty"`
}

type jsonTable struct {
	ID    string       `json:"id"`
	Table *stats.Table `json:"table"`
}

// JSON renders the report machine-readably. The output is
// deterministic for a fixed seed and selection: no timestamps or
// durations, experiments in registration order.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(jsonReport{Seed: r.Seed, Experiments: r.Results}, "", "  ")
}

// Suite holds the registered experiments and the per-device Envs they
// share.
type Suite struct {
	seed     uint64
	exps     []*Experiment
	idx      map[string]int
	profiles map[string]topo.Profile
	ran      bool
	ctx      context.Context // set by Run; never nil while running
	store    *store.Store    // set by Run; may be nil

	// budgetCap is the run's activation budget (Spec.MaxActivations);
	// 0 means unlimited. actsUsed meters the ACT commands the run has
	// been charged for so far — each device's probe chain, charged
	// once by its warm node, plus each experiment's and unit's
	// measurement clone. Both are guarded by mu.
	budgetCap int64
	actsUsed  int64

	// Tracing (nil when the run is untraced). exptSpans maps visible
	// experiment names to their spans; it is built before the worker
	// pool starts and read-only afterwards, so workers need no lock.
	traceSpan *trace.Span
	exptSpans map[string]*trace.Span

	mu      sync.Mutex
	envs    map[string]*Env
	results map[string]interface{}
}

// NewSuite creates an empty suite with the given base seed.
func NewSuite(seed uint64) *Suite {
	return &Suite{
		seed:     seed,
		idx:      make(map[string]int),
		profiles: make(map[string]topo.Profile),
		envs:     make(map[string]*Env),
		results:  make(map[string]interface{}),
	}
}

// RegisterProfile makes a device profile outside the Table I catalog
// (e.g. topo.Small in tests) addressable through Needs.Device.
func (s *Suite) RegisterProfile(p topo.Profile) {
	s.profiles[p.Name] = p
}

// Register adds an experiment. Names must be unique; After edges must
// reference already-registered names (this also rules out dependency
// cycles by construction).
func (s *Suite) Register(e Experiment) error {
	if e.Name == "" {
		return fmt.Errorf("suite: experiment needs a name")
	}
	if e.Run == nil && e.Part == nil {
		return fmt.Errorf("suite: experiment %s needs a Run func or a Partition", e.Name)
	}
	if e.Run != nil && e.Part != nil {
		return fmt.Errorf("suite: experiment %s declares both Run and a Partition", e.Name)
	}
	if e.Part != nil {
		if err := e.Part.validate(e.Name); err != nil {
			return err
		}
	}
	if _, dup := s.idx[e.Name]; dup {
		return fmt.Errorf("suite: duplicate experiment %s", e.Name)
	}
	for _, dep := range e.Needs.After {
		if _, ok := s.idx[dep]; !ok {
			return fmt.Errorf("suite: %s depends on unregistered %s", e.Name, dep)
		}
	}
	cp := e
	s.idx[e.Name] = len(s.exps)
	s.exps = append(s.exps, &cp)
	return nil
}

// Names returns the registered experiment names in registration order.
func (s *Suite) Names() []string {
	out := make([]string, len(s.exps))
	for i, e := range s.exps {
		out[i] = e.Name
	}
	return out
}

// ExperimentInfo describes one registered experiment for discovery
// (the -list flag, the service's GET /experiments endpoint).
type ExperimentInfo struct {
	// Name is the selection id (-run, Options.Only).
	Name string `json:"name"`
	// Title heads the experiment's output block; empty for helper
	// steps that produce no block of their own.
	Title string `json:"title,omitempty"`
	// Device is the shared device profile the experiment measures on
	// (Needs.Device); empty if it manages its own devices.
	Device string `json:"device,omitempty"`
	// After lists experiments selected transitively with this one.
	After []string `json:"after,omitempty"`
	// Units is the unit count of a partitioned experiment; 0 for a
	// monolithic one.
	Units int `json:"units,omitempty"`
}

// Experiments returns discovery metadata for every registered
// experiment, in registration order.
func (s *Suite) Experiments() []ExperimentInfo {
	out := make([]ExperimentInfo, len(s.exps))
	for i, e := range s.exps {
		info := ExperimentInfo{
			Name:   e.Name,
			Title:  e.Title,
			Device: e.Needs.Device,
			After:  append([]string(nil), e.Needs.After...),
		}
		if e.Part != nil {
			info.Units = e.Part.Units
		}
		out[i] = info
	}
	return out
}

// Selection resolves an Options.Only-style selection to the
// experiments a Run would execute, in registration order, with After
// dependencies included transitively. A nil or empty selection means
// every registered experiment. It is the validation entry point for
// callers that need to reject a bad selection (or know the result
// count) before committing to a run.
func (s *Suite) Selection(only []string) ([]string, error) {
	set, err := s.selectionSet(only)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range s.exps {
		if set[e.Name] {
			out = append(out, e.Name)
		}
	}
	return out, nil
}

// selectionSet marks the selection closure: the named experiments
// plus, transitively, everything they declare After.
func (s *Suite) selectionSet(only []string) (map[string]bool, error) {
	selected := make(map[string]bool)
	if len(only) == 0 {
		for _, e := range s.exps {
			selected[e.Name] = true
		}
		return selected, nil
	}
	var mark func(name string) error
	mark = func(name string) error {
		i, ok := s.idx[name]
		if !ok {
			return fmt.Errorf("suite: unknown experiment %q (have: %s)",
				name, strings.Join(s.Names(), ", "))
		}
		if selected[name] {
			return nil
		}
		selected[name] = true
		for _, dep := range s.exps[i].Needs.After {
			if err := mark(dep); err != nil {
				return err
			}
		}
		return nil
	}
	for _, name := range only {
		if err := mark(name); err != nil {
			return nil, err
		}
	}
	return selected, nil
}

// ProbeCost aggregates the command totals of every shared device Env
// the run created. Only the probe chain ever drives those Envs'
// hosts (measurements run on clones, which carry their own counters),
// so the sum is exactly what reverse engineering cost this run — and
// it is zero when every device warm-up was served from the store.
// Out-of-band metadata: it never appears in the report.
func (s *Suite) ProbeCost() host.Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total host.Counters
	for _, e := range s.envs {
		total = total.Add(e.Commands())
	}
	return total
}

// chargeActs adds delta metered activations and reports the budget
// error once the cap is crossed (nil when no cap is set). The Used
// value is the meter at the time of this charge, so at -jobs 1 the
// message — and with it the report — is deterministic.
func (s *Suite) chargeActs(delta int64) *BudgetError {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.actsUsed += delta
	return s.overBudgetLocked()
}

// overBudget reports whether the meter has already crossed the cap —
// the pre-flight check that lets a blown budget stop work that has not
// started.
func (s *Suite) overBudget() *BudgetError {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.overBudgetLocked()
}

func (s *Suite) overBudgetLocked() *BudgetError {
	if s.budgetCap > 0 && s.actsUsed > s.budgetCap {
		return &BudgetError{Cap: s.budgetCap, Used: s.actsUsed}
	}
	return nil
}

// ActivationsUsed returns the metered ACT total the budget accounting
// has charged so far: probe chains on shared devices plus every
// experiment's and unit's measurement Env. Devices an experiment
// builds privately (fig5, defense) are outside the meter. Out-of-band
// metadata, like ProbeCost.
func (s *Suite) ActivationsUsed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.actsUsed
}

// BudgetExceeded returns the first (registration-order) budget error
// in the report, or nil. It is how callers — cmd/experiments' exit
// path, the service's error mapping — distinguish a budget stop from
// an experiment bug.
func (r *Report) BudgetExceeded() *BudgetError {
	for _, res := range r.Results {
		var be *BudgetError
		if res.Err != nil && errors.As(res.Err, &be) {
			return be
		}
	}
	return nil
}

// Options configures one Suite run.
type Options struct {
	// Spec is the run request: the selection (Only), the execution
	// hints (Jobs, Shards), and the activation budget
	// (MaxActivations). The suite must have been built for the spec's
	// profile and seed — a non-zero Spec.Seed that disagrees with the
	// suite's is rejected, so a spec cannot silently drift from the
	// suite a factory built for it. Spec.Profile is informational at
	// this layer (the registry already bound the devices).
	Spec RunSpec
	// Context, when non-nil, cancels the run: scheduled steps that have
	// not started when it is done are not executed, and the affected
	// experiments carry the context's error in the report. A context
	// that is never canceled has no effect on the run or its output, so
	// the byte-identical-for-any-jobs contract is untouched.
	Context context.Context
	// OnResult, when non-nil, is invoked once per visible experiment as
	// it completes, with the experiment's index into the final
	// Report.Results slice and the total number of selected
	// experiments. Calls arrive from worker goroutines — concurrently
	// and in completion order, not registration order; reorder by index
	// if order matters. The *ExptResult is the same object the Report
	// will hold and must be treated as read-only; its Elapsed field
	// carries the experiment's wall time, out-of-band. The callback is
	// for progress (logs, streams, metrics); the report itself stays
	// byte-identical whether or not one is installed.
	OnResult func(index, total int, res *ExptResult)
	// Store, when non-nil, is the persistent probe-artifact store the
	// pre-measurement warm-up consults: a hit primes a device Env's
	// probe cache instead of probing (skipping straight to
	// measurement), a miss probes and then persists the result for the
	// next run. A store hit can never change a byte of the report —
	// measurements always run on pristine clones of the warmed Env, and
	// a store-primed Env is indistinguishable from a freshly probed one
	// by construction.
	Store *store.Store
	// Trace, when non-nil, is the parent span the run's span tree hangs
	// under: one "expt:<name>" span per selected experiment (in
	// registration order), "unit:<index>"/"kernel" spans below
	// partitioned ones, and one timed "warm:<device>" span per shared
	// device carrying the probe-chain command cost (and the warm-up's
	// error, if it failed). Span IDs derive from the trace ID and the
	// scheduler path, so the tree shape is byte-identical for any
	// Jobs/Shards value (trace.ShapeNDJSON); tracing can never change a
	// byte of the report.
	Trace *trace.Span
}

// unitOut is one unit's outcome in a partitioned experiment. Shard
// nodes write disjoint index ranges; the merge node reads all of them
// after every shard finished (the scheduler's completion edges provide
// the happens-before).
type unitOut struct {
	val interface{}
	err error
}

// partState is the shared state of one partitioned experiment's nodes.
type partState struct {
	outs []unitOut

	// start is when the first shard node began executing; the visible
	// node's Elapsed spans from here through the merge, so the metric
	// covers the fanned-out work, not just the cheap merge step.
	startOnce sync.Once
	start     time.Time
}

// began records the partition's start once, from whichever shard node
// runs first.
func (st *partState) began(t time.Time) {
	st.startOnce.Do(func() { st.start = t })
}

// device is one shared device's warm-up outcome. Its warm node writes
// env or err; every node of an experiment on the device reads them
// after that node completed, so the scheduler's completion edge is the
// happens-before and neither side locks.
type device struct {
	name  string
	level ProbeLevel // the deepest Needs.Probe among the selection
	env   *Env
	err   error
}

// node is one scheduled step: an experiment, a hidden shard of a
// partitioned experiment, or a shared device's hidden warm-up.
type node struct {
	exp        *Experiment // nil on a warm node
	job        *Job
	res        *ExptResult
	pending    int // unfinished dependencies
	dependents []*node
	failedDep  string

	// hidden marks shard and warm nodes: scheduled like any node but
	// absent from the report.
	hidden bool
	// part is set on a partitioned experiment's visible (merge) node.
	part *partState
	// shard is set on hidden shard nodes: the unit range to execute.
	shard *shardRange
	// warm is set on a device's warm node; dev on every node of an
	// experiment that declares Needs.Device.
	warm, dev *device
}

// shardRange is one shard node's slice of a partition.
type shardRange struct {
	state  *partState
	lo, hi int // units [lo, hi)
}

// Run executes the selected experiments over a pool of Options.Jobs
// workers and returns the report (per-experiment failures are in it —
// use Report.Err).
//
// A Suite runs once: experiments mutate their shared devices, so a
// second Run would measure state the first one left behind and lose
// the bit-identical-for-any-jobs guarantee. Build a fresh Suite per
// run instead.
func (s *Suite) Run(opt Options) (*Report, error) {
	if s.ran {
		return nil, fmt.Errorf("suite: already ran; build a fresh Suite per run")
	}
	spec := opt.Spec.Normalized()
	if spec.Seed != 0 && spec.Seed != s.seed {
		return nil, fmt.Errorf("suite: spec seed %d, suite built for seed %d", spec.Seed, s.seed)
	}
	if spec.MaxActivations < 0 {
		return nil, fmt.Errorf("suite: negative activation budget %d", spec.MaxActivations)
	}
	s.ran = true
	s.budgetCap = spec.MaxActivations
	s.ctx = opt.Context
	if s.ctx == nil {
		s.ctx = context.Background()
	}
	s.store = opt.Store
	jobs := spec.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	shards := spec.Shards
	if shards <= 0 {
		shards = jobs
	}
	nodes, err := s.plan(spec.Only, shards)
	if err != nil {
		return nil, err
	}
	if jobs > len(nodes) && len(nodes) > 0 {
		jobs = len(nodes)
	}

	// Pre-create every visible experiment's span in registration order,
	// before any worker runs: unit and kernel spans then always have a
	// parent regardless of scheduling, and the map is read-only once the
	// pool starts.
	if opt.Trace != nil {
		s.traceSpan = opt.Trace
		s.exptSpans = make(map[string]*trace.Span)
		for _, n := range nodes {
			if n.hidden {
				continue
			}
			sp := opt.Trace.Child("expt:"+n.exp.Name, n.exp.Name)
			if dev := n.exp.Needs.Device; dev != "" {
				sp.SetAttr("device", dev)
			}
			if n.exp.Part != nil {
				sp.SetAttr("units", n.exp.Part.Units)
			}
			s.exptSpans[n.exp.Name] = sp
		}
	}

	// Report indices of the visible nodes, for OnResult progress.
	reportIdx := make(map[*node]int)
	total := 0
	for _, n := range nodes {
		if !n.hidden {
			reportIdx[n] = total
			total++
		}
	}

	ready := make(chan *node, len(nodes))
	var mu sync.Mutex
	remaining := len(nodes)
	for _, n := range nodes {
		if n.pending == 0 {
			ready <- n
		}
	}
	if remaining == 0 {
		close(ready)
	}

	finish := func(n *node, failed string) {
		mu.Lock()
		defer mu.Unlock()
		for _, d := range n.dependents {
			// Blame the earliest-registered failed dependency so the
			// skip message (and with it the JSON report) does not
			// depend on completion order.
			if failed != "" && (d.failedDep == "" || s.idx[failed] < s.idx[d.failedDep]) {
				d.failedDep = failed
			}
			d.pending--
			if d.pending == 0 {
				ready <- d
			}
		}
		remaining--
		if remaining == 0 {
			close(ready)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range ready {
				if n.warm != nil {
					s.warmUp(n.warm)
					finish(n, "")
					continue
				}
				s.runNode(n)
				if !n.hidden && opt.OnResult != nil {
					opt.OnResult(reportIdx[n], total, n.res)
				}
				failed := ""
				if n.res.Err != nil {
					// A skipped node passes on the root cause, not its
					// own name, so deep chains blame the experiment
					// that actually failed.
					if n.failedDep != "" {
						failed = n.failedDep
					} else {
						failed = n.exp.Name
					}
				}
				finish(n, failed)
			}
		}()
	}
	wg.Wait()

	// Every measurement is done: from here on only the device Envs'
	// host counters are read (ProbeCost, ActivationsUsed), so their
	// devices' memory goes back to the chip package for the next
	// suite's devices.
	s.mu.Lock()
	for _, e := range s.envs {
		e.free()
	}
	s.mu.Unlock()

	rep := &Report{Seed: s.seed}
	for _, n := range nodes {
		if n.hidden {
			continue
		}
		rep.Results = append(rep.Results, n.res)
	}
	return rep, nil
}

// runNode executes one scheduled step, catching per-step failure —
// including a panicking Run or Unit, which must not take down the pool
// and lose every other experiment's output.
func (s *Suite) runNode(n *node) {
	started := time.Now()
	if n.shard != nil {
		n.shard.state.began(started)
	}
	// The experiment span begins when its first node — shard or
	// visible — starts (Begin is idempotent) and ends when the visible
	// node finishes, mirroring Elapsed's first-shard-to-merge window.
	espan := s.exptSpans[n.exp.Name]
	espan.Begin()
	defer func() {
		if n.res != nil && !n.hidden {
			// Partitioned experiments span from their first shard; a
			// partition canceled before any shard ran falls back to the
			// merge node's own span.
			if n.part != nil && !n.part.start.IsZero() {
				n.res.Elapsed = time.Since(n.part.start)
			} else {
				n.res.Elapsed = time.Since(started)
			}
			if n.res.Err != nil {
				espan.SetAttr("error", n.res.Err.Error())
			}
			espan.End()
		}
	}()
	n.res = &ExptResult{Name: n.exp.Name, Title: n.exp.Title}
	switch {
	case s.ctx.Err() != nil:
		// Canceled before this step started. A shard records the
		// cancellation per unit; its merge node, canceled too, reports
		// the context's error.
		n.fail(s.ctx.Err())
	case n.failedDep != "":
		n.res.Err = fmt.Errorf("skipped: dependency %s failed", n.failedDep)
	case n.dev != nil && n.dev.err != nil:
		// The device's warm-up failed: a Run or a merge reports its
		// error as is, and a shard records nothing.
		if n.shard == nil {
			n.res.Err = n.dev.err
		}
	case n.part != nil:
		// Visible node of a partitioned experiment: merge. The merge
		// touches no device; its span records only the (out-of-band)
		// assembly time.
		m := espan.Child("merge", "merge")
		m.Begin()
		s.runMerge(n)
		m.End()
	default:
		s.runStep(n, espan)
	}
	j := n.job
	if n.res.Err != nil || j == nil {
		return
	}
	n.res.Text = j.buf.String()
	n.res.Tables = j.tables
	if j.result != nil {
		s.mu.Lock()
		s.results[n.exp.Name] = j.result
		s.mu.Unlock()
	}
}

// fail records a failure that happened before the node's step ran. A
// visible node carries it on its result. A shard node records it on
// every unit of its range instead: failing as a node would make its
// (hidden, unreported) name the blame target and hide the root cause,
// while the merge surfaces the lowest-index unit failure.
func (n *node) fail(err error) {
	if n.shard == nil {
		n.res.Err = err
		return
	}
	for i := n.shard.lo; i < n.shard.hi; i++ {
		n.shard.state.outs[i] = unitOut{err: err}
	}
}

// warmUp is a shared device's warm node, the one place the suite
// builds a device Env: it warms the probe chain to the deepest level
// the selection declares for the device (a store hit primes the cache
// instead of probing, which no clone can tell apart), charges the
// chain to the meter once, and times one "warm:<device>" span with its
// command cost. A failure never fails the node: it is left on d for
// every experiment on the device to report.
func (s *Suite) warmUp(d *device) {
	w := s.traceSpan.Child("warm:"+d.name, "warm "+d.name)
	w.SetAttr("device", d.name)
	w.SetAttr("level", int(d.level))
	w.Begin()
	d.env, d.err = s.warmEnv(d.name, d.level)
	if d.env != nil {
		w.AddCounters(d.env.Commands())
		w.AddBatches(d.env.Host.Batches())
	}
	if d.err != nil {
		w.SetAttr("error", d.err.Error())
	}
	w.End()
}

// warmEnv builds, warms and charges one device's Env, with a seed split
// from the suite seed by device name, unless the run is canceled or
// already over budget.
func (s *Suite) warmEnv(device string, level ProbeLevel) (*Env, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, err
	}
	if be := s.overBudget(); be != nil {
		return nil, be
	}
	prof, ok := s.profiles[device]
	if !ok {
		prof, ok = topo.ByName(device)
	}
	if !ok {
		return nil, fmt.Errorf("suite: unknown device profile %q", device)
	}
	env, err := NewEnv(prof, rng.Split(s.seed, "env:"+device))
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.envs[device] = env
	s.mu.Unlock()
	err = env.WarmStored(s.store, level)
	if be := s.chargeActs(env.Commands().ACT); be != nil && err == nil {
		err = be
	}
	return env, err
}

// runStep runs a Run or a shard node's units: the budget pre-flight,
// then the measurement on a clone of the device's warmed Env.
func (s *Suite) runStep(n *node, espan *trace.Span) {
	// Pre-flight budget check: once the meter has crossed the cap,
	// steps that have not started fail instead of issuing more
	// commands. Note that which step first observes a mid-run crossing
	// can depend on scheduling; a budget-stopped report is
	// deterministic at -jobs 1 and for caps that stop the run at its
	// first charge, but not in general — the budget bounds device
	// work, it is not part of the byte-stability contract.
	if be := s.overBudget(); be != nil {
		n.fail(be)
		return
	}
	var env *Env
	if n.dev != nil {
		env = n.dev.env
	}
	if n.shard != nil {
		s.runShard(n, env)
		return
	}
	j := n.job
	cnt, batches, err := s.measure(env, func(me *Env) error {
		j.env = me
		return n.exp.Run(j)
	})
	if env != nil && espan != nil {
		// Kernel span: the measurement clone's command cost and
		// batched-burst count — the cost of this experiment's own
		// device work, as opposed to the shared warm-up.
		k := espan.Child("kernel", "kernel")
		k.AddCounters(cnt)
		k.AddBatches(batches)
	}
	n.res.Err = err
}

// measure is the suite's one measurement step: it runs fn on a
// pristine clone of env (nil when the step has no device) — fresh
// device state, probe cache primed read-only from the warmed parent.
// Every Run and every partition unit measures this way, which is what
// makes a result independent of the shared device's command history
// (a freshly probed and a store-warmed run are byte-identical) and of
// every other experiment and unit. The clone's activations are
// charged whether or not fn failed — the device work happened either
// way — and a charge that crosses the cap fails a successful fn with
// the typed *BudgetError. The clone's command cost is returned for
// the caller's kernel span, and its device recycled for the next
// measurement on the same device.
func (s *Suite) measure(env *Env, fn func(*Env) error) (host.Counters, int64, error) {
	if env == nil {
		return host.Counters{}, 0, protect(func() error { return fn(nil) })
	}
	c, err := env.Clone()
	if err != nil {
		return host.Counters{}, 0, err
	}
	defer c.Release()
	err = protect(func() error { return fn(c) })
	cnt := c.Commands()
	if be := s.chargeActs(cnt.ACT); be != nil && err == nil {
		err = be
	}
	return cnt, c.Host.Batches(), err
}

// runShard executes units [lo, hi) of a partitioned experiment, each
// measured on its own clone of env. Each unit gets its own seed (split
// by unit index, not shard index) and writes to its own slot of the
// shared output slice, so the recorded outcomes are independent of how
// units were grouped into shards. Unit failures are recorded per unit
// — not as node failures — so every other shard still runs and the
// merge can surface the lowest-index failure deterministically.
func (s *Suite) runShard(n *node, env *Env) {
	sr := n.shard
	espan := s.exptSpans[n.exp.Name]
	base := rng.Split(s.seed, "expt:"+n.exp.Name)
	for i := sr.lo; i < sr.hi; i++ {
		// Units left after a budget crossing fail without running —
		// the per-unit counterpart of runStep's pre-flight check.
		if be := s.overBudget(); be != nil {
			sr.state.outs[i] = unitOut{err: be}
			continue
		}
		sj := &ShardJob{
			name: n.exp.Name,
			unit: i,
			seed: rng.SplitN(base, "unit", i),
		}
		// Unit spans are keyed by unit index — never by shard — so the
		// tree shape is identical for any -shards grouping. Fixed-width
		// indices keep the export's path sort deterministic.
		var us *trace.Span
		if espan != nil {
			us = espan.Child(fmt.Sprintf("unit:%06d", i), fmt.Sprintf("%s unit %d", n.exp.Name, i))
			us.SetAttr("unit", i)
			us.Begin()
		}
		var val interface{}
		cnt, batches, err := s.measure(env, func(c *Env) (err error) {
			sj.env = c
			val, err = n.exp.Part.Unit(sj)
			return err
		})
		if us != nil {
			k := us.Child("kernel", "kernel")
			k.AddCounters(cnt)
			k.AddBatches(batches)
			if err != nil {
				us.SetAttr("error", err.Error())
			}
			us.End()
		}
		sr.state.outs[i] = unitOut{val: val, err: err}
	}
}

// runMerge runs a partitioned experiment's visible step: surface the
// lowest-index unit failure (deterministic for any jobs/shards), or
// hand the unit results to Merge in unit order.
func (s *Suite) runMerge(n *node) {
	outs := n.part.outs
	for i, o := range outs {
		if o.err == nil {
			continue
		}
		// %w keeps typed unit failures (context errors, budget errors)
		// visible to errors.As without changing the message.
		n.res.Err = fmt.Errorf("unit %d/%d: %w", i, len(outs), o.err)
		return
	}
	vals := make([]interface{}, len(outs))
	for i := range outs {
		vals[i] = outs[i].val
	}
	n.res.Err = protect(func() error { return n.exp.Part.Merge(n.job, vals) })
}

// protect invokes fn, converting a panic into an error.
func protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// plan selects experiments, expands After closures, and builds the
// dependency graph: explicit After edges plus one hidden warm node per
// shared device, which every node of an experiment on that device
// depends on. The warm node warms to the deepest probe level the
// selection declares for its device, so warming is selection-order
// independent; experiments on one device have no edge between them.
//
// Partitioned experiments are compiled into the same graph: their
// units are batched onto up to `shards` hidden shard nodes that inherit
// the experiment's dependencies (so they fan out in parallel once
// those complete), and the experiment's visible node depends on all of
// them and runs Merge.
func (s *Suite) plan(only []string, shards int) ([]*node, error) {
	selected, err := s.selectionSet(only)
	if err != nil {
		return nil, err
	}

	// Deepest probe level per device across the selection.
	maxProbe := make(map[string]ProbeLevel)
	for _, e := range s.exps {
		if dev := e.Needs.Device; selected[e.Name] && dev != "" && e.Needs.Probe > maxProbe[dev] {
			maxProbe[dev] = e.Needs.Probe
		}
	}

	var nodes []*node
	serial := make(map[*node]int) // creation order, for stable sorting
	add := func(n *node) {
		serial[n] = len(nodes)
		nodes = append(nodes, n)
	}
	link := func(n *node, deps map[*node]bool) {
		for d := range deps {
			d.dependents = append(d.dependents, n)
			n.pending++
		}
	}
	byName := make(map[string]*node)
	warmNode := make(map[string]*node)
	for _, exp := range s.exps {
		if !selected[exp.Name] {
			continue
		}
		visible := make(map[string]bool, len(exp.Needs.After))
		for _, dep := range exp.Needs.After {
			visible[dep] = true
		}
		n := &node{
			exp: exp,
			job: &Job{name: exp.Name, seed: rng.Split(s.seed, "expt:"+exp.Name), suite: s, deps: visible},
		}
		deps := make(map[*node]bool)
		for _, dep := range exp.Needs.After {
			deps[byName[dep]] = true
		}
		if dev := exp.Needs.Device; dev != "" {
			w := warmNode[dev]
			if w == nil {
				w = &node{hidden: true, warm: &device{name: dev, level: maxProbe[dev]}}
				warmNode[dev] = w
				add(w)
			}
			n.dev = w.warm
			deps[w] = true
		}

		if exp.Part != nil {
			// Batch units onto shard nodes. Every shard node inherits
			// the experiment's dependencies; the visible node depends
			// only on the shards (and, transitively, on everything
			// they inherited).
			units := exp.Part.Units
			count := shards
			if count > units {
				count = units
			}
			if count < 1 {
				count = 1
			}
			st := &partState{outs: make([]unitOut, units)}
			n.part = st
			shardDeps := make(map[*node]bool, count)
			for k := 0; k < count; k++ {
				sn := &node{
					exp:    exp,
					hidden: true,
					shard:  &shardRange{state: st, lo: k * units / count, hi: (k + 1) * units / count},
					dev:    n.dev,
				}
				link(sn, deps)
				add(sn)
				shardDeps[sn] = true
			}
			link(n, shardDeps)
		} else {
			link(n, deps)
		}
		byName[exp.Name] = n
		add(n)
	}
	// Deterministic dependent ordering (map iteration above). Shard
	// nodes share their experiment's registration index, so break ties
	// by creation order.
	for _, n := range nodes {
		sort.Slice(n.dependents, func(i, j int) bool {
			a, b := n.dependents[i], n.dependents[j]
			if s.idx[a.exp.Name] != s.idx[b.exp.Name] {
				return s.idx[a.exp.Name] < s.idx[b.exp.Name]
			}
			return serial[a] < serial[b]
		})
	}
	return nodes, nil
}
