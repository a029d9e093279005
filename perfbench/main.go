// Command perfbench is the repository's end-to-end benchmark. Each
// workload drives one path a user of dramscope actually takes — a CLI
// suite re-run against a primed store, dramscoped under
// examples/loadgen's request mix, and a federated campaign — for a fixed
// wall-clock window, checks that every output is correct (against the
// committed golden reports among other references), and prints one JSON
// result line.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload serve-loadgen --seed 3 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics: median
// operation latency and set-up time. Set-up is timed in fresh
// processes, from just before the process starts until the workload is
// ready, so one-time initialization counts. With --trace 1 the
// same operations run with span tracing on, and the result carries
// per-layer metrics instead: execution versus everything around it,
// queue and dispatch shares, probe warm-up, store reads, device clones,
// a Table III measurement, and the chip kernels' command counts.
//
// All inputs derive from --seed; the program pins GOMAXPROCS to 1 so a
// run measures the serial cost of the work, not the scheduling luck of
// a shared machine.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dramscope/internal/rng"
	"dramscope/internal/store"
	"dramscope/internal/trace"
)

// A run times its workload's set-up in at least minSetupReps fresh
// processes, and in more, up to maxSetupReps, until setupFloor of set-up
// time is spent, so a cheap set-up gets a steadier median; setup_s is
// the median.
const (
	minSetupReps = 3
	maxSetupReps = 25
	setupFloor   = 4 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's configuration, shared by every workload.
type bench struct {
	workload string
	seed     uint64
	traced   bool
	work     string // scratch directory, removed when the run ends
	testdata string // directory of the committed golden reports
}

// opSeed derives the suite seed of the i-th input of a given kind. Seeds
// stay below 2^52 so they survive any JSON number round trip, and are
// never 0 (which a RunSpec reads as "default").
func (b *bench) opSeed(kind string, i int) uint64 {
	s := rng.SplitN(rng.Split(b.seed, b.workload+"/"+kind), "op", i)
	return s&(1<<52-1) | 1
}

// setupSeed is the seed of the k-th warm-up input a set-up runs. It is
// the same for every --seed, so setup_s times the same work on every run.
func setupSeed(k int) uint64 {
	return rng.SplitN(rng.Split(0, "perfbench/setup"), "op", k)&(1<<52-1) | 1
}

// openStore opens an empty artifact store in a fresh scratch directory.
func (b *bench) openStore(name string) (*store.Store, error) {
	dir, err := os.MkdirTemp(b.work, name+"-")
	if err != nil {
		return nil, err
	}
	return store.OpenDir(dir, false)
}

// device is one probe chain an operation warmed: the device profile,
// the Env seed the suite derived for it, and the chain depth.
type device struct {
	profile string
	seed    uint64
	level   int
}

// opRecord is one finished operation. recs and devices are filled only
// on traced runs.
type opRecord struct {
	start, end time.Time
	recs       []trace.Record
	devices    []device
}

func (r *opRecord) latency() time.Duration { return r.end.Sub(r.start) }

// deployment is one workload's set-up state: it runs operations (op is
// safe for concurrent use by the workload's clients) and, once the
// measured window is over, re-checks the outputs against the committed
// golden reports and an independent execution path.
type deployment interface {
	op(i int) (*opRecord, error)
	verify() error
	close()
}

// workload names one traffic pattern. clients is the number of
// closed-loop callers: each sends its next operation when the previous
// one completes.
type workload struct {
	name    string
	clients int
	setup   func(b *bench) (deployment, error)
}

var workloads = []workload{
	{name: "suite-warm", clients: 1, setup: setupSuiteWarm},
	{name: "serve-loadgen", clients: lgClients, setup: setupLoadgen},
	{name: "campaign-fed", clients: 1, setup: setupFederated},
}

func main() {
	name := flag.String("workload", "", "workload to run: suite-warm, serve-loadgen, campaign-fed")
	seed := flag.Uint64("seed", 1, "seed every input of the run derives from")
	seconds := flag.Int("seconds", 25, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "1 = trace the operations and report per-layer metrics")
	work := flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory for stores")
	testdata := flag.String("testdata", filepath.Join("internal", "expt", "testdata"), "directory of the committed golden reports")
	setupOnly := flag.Bool("setup-only", false, "set the workload up once, print \"ready\" and exit (how a run times set-up)")
	flag.Parse()

	runtime.GOMAXPROCS(1)
	b, wl, err := newBench(*name, *seed, *traced == 1, *work, *testdata)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var res *result
	if *setupOnly {
		err = setupOnce(b, wl)
	} else {
		res, err = run(b, wl, time.Duration(*seconds)*time.Second)
	}
	os.RemoveAll(b.work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if res == nil {
		return
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// newBench resolves the workload and makes the run's scratch directory.
func newBench(name string, seed uint64, traced bool, work, testdata string) (*bench, *workload, error) {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", name)
	}
	if _, err := os.Stat(testdata); err != nil {
		return nil, nil, fmt.Errorf("golden reports: %w", err)
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, nil, err
	}
	scratch, err := os.MkdirTemp(work, name+"-")
	if err != nil {
		return nil, nil, err
	}
	return &bench{workload: name, seed: seed, traced: traced, work: scratch, testdata: testdata}, wl, nil
}

// setupOnce is the body of a set-up timing process.
func setupOnce(b *bench, wl *workload) error {
	dep, err := wl.setup(b)
	if err != nil {
		return err
	}
	fmt.Println("ready")
	dep.close()
	return nil
}

// timeSetup starts this program once with -setup-only and returns the
// time from just before the process starts until it reports ready.
func timeSetup(b *bench) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup-only", "-workload", b.workload,
		"-seed", strconv.FormatUint(b.seed, 10), "-work", b.work, "-testdata", b.testdata)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, _ := bufio.NewReader(out).ReadString('\n')
	elapsed := time.Since(t0).Seconds()
	io.Copy(io.Discard, out)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	if strings.TrimSpace(line) != "ready" {
		return 0, fmt.Errorf("set-up process printed %q, want \"ready\"", line)
	}
	return elapsed, nil
}

func run(b *bench, wl *workload, window time.Duration) (*result, error) {
	var setups []float64
	var spent float64
	for !b.traced && len(setups) < maxSetupReps && (len(setups) < minSetupReps || spent < setupFloor.Seconds()) {
		s, err := timeSetup(b)
		if err != nil {
			return nil, fmt.Errorf("set up %s: %w", wl.name, err)
		}
		setups = append(setups, s)
		spent += s
	}
	dep, err := wl.setup(b)
	if err != nil {
		return nil, fmt.Errorf("set up %s: %w", wl.name, err)
	}
	defer dep.close()

	ops, attempted, failed := measure(dep, wl.clients, window)
	if len(ops) == 0 {
		return nil, fmt.Errorf("no operation completed in %s", window)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d operations completed, set-up samples (s) %.3f\n", b.workload, b.seed, len(ops), setups)
	verr := dep.verify()
	if verr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: verify:", verr)
	}
	res := &result{Correct: failed == 0 && verr == nil, Attempted: attempted, Failed: failed}

	if b.traced {
		if res.Metrics, err = layerMetrics(b, dep, ops); err != nil {
			return nil, err
		}
		return res, nil
	}
	lat := make([]float64, len(ops))
	for i, o := range ops {
		lat[i] = ms(o.latency())
	}

	res.Metrics = map[string]metric{
		"op_p50_ms": {median(lat), "ms"},
		"setup_s":   {median(setups), "s"},
	}
	return res, nil
}

// measure runs closed-loop clients against the deployment until the
// window closes; operations in flight at the deadline run to completion
// and count. It returns the completed operations and the attempted and
// failed counts.
func measure(dep deployment, clients int, window time.Duration) ([]*opRecord, int, int) {
	var (
		mu       sync.Mutex
		ops      []*opRecord
		next     atomic.Int64
		failed   atomic.Int64
		firstErr sync.Once
		wg       sync.WaitGroup
	)
	deadline := time.Now().Add(window)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				rec, err := dep.op(i)
				if err != nil {
					failed.Add(1)
					firstErr.Do(func() { fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", i, err) })
					continue
				}
				mu.Lock()
				ops = append(ops, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ops, int(next.Load()), int(failed.Load())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of a non-empty sample (mean of the middle pair when even).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
