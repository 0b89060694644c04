// Command perfbench is the repository's end-to-end benchmark. It runs one
// of a fixed set of seeded, closed-loop workloads against the program's
// public API, checks each workload's output for correctness, and prints
// the metrics as one JSON object on the last line of standard output.
//
//	perfbench --workload campaign --seed 1 --seconds 20 --trace 0
//
// Every run repeats fixed-work iterations, each on a freshly built world,
// for --seconds seconds after one discarded warm-up iteration. With
// --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced iterations instead and reports the
// per-layer metrics, printing the layer table to standard error. See
// README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// traceDir is where the traced run writes its spans: the build directory
// run.sh uses, which the repository ignores.
const traceDir = ".bench_build"

// Iter is the outcome of one fixed-work iteration of a workload.
type Iter struct {
	Setup time.Duration // building the world
	Wall  time.Duration // the timed op phase
	Ops   int64         // client ops issued
	Likes int64         // likes the platform applied
	// OpLat holds the latency of each unit op: one milking round
	// (campaign, countermeasure) or one single-like call (api-mixed,
	// http-wire). ReadLat holds each full paginated like read.
	OpLat   []time.Duration
	ReadLat []time.Duration
	// HeapLive is the live heap after a forced GC at the end of the op
	// phase, with the world still reachable.
	HeapLive uint64
	Tally    *Tally
	// CheckErr is non-nil when the iteration's output is wrong.
	CheckErr error
	// Layer holds per-layer metrics the workload measured itself.
	Layer map[string]float64
	// Notes are extra report lines.
	Notes []string
}

// Env is what a workload iteration runs with.
type Env struct {
	Seed int64
	// Spans is non-nil in the traced iteration: the workload records a
	// span around each call into platform, graphapi and core, and runs
	// the replay probe after its op phase.
	Spans *Recorder
}

// Workload is one benchmark workload.
type Workload struct {
	Name string
	// FailuresFatal makes any failed op fail the correctness check.
	FailuresFatal bool
	Run           func(env *Env) (*Iter, error)
	// SetupOnly builds a world exactly as Run does, discards it, and
	// returns the set-up time.
	SetupOnly func(seed int64) (time.Duration, error)
}

var workloads = []Workload{
	{Name: "campaign", FailuresFatal: true, Run: runCampaign, SetupOnly: setupCampaignOnly},
	{Name: "countermeasure", Run: runCountermeasure, SetupOnly: setupCountermeasureOnly},
	{Name: "api-mixed", FailuresFatal: true, Run: runAPIMixed, SetupOnly: setupAPIMixedOnly},
	{Name: "http-wire", FailuresFatal: true, Run: runHTTPWire, SetupOnly: setupHTTPWireOnly},
}

// minSetups is the fewest set-up samples setup_s is the median of; a
// run with fewer measured iterations builds extra worlds to reach it.
const minSetups = 7

func findWorkload(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: campaign, countermeasure, api-mixed or http-wire")
	seed := flag.Int64("seed", 1, "seed for the generated op streams")
	seconds := flag.Int("seconds", 10, "how long to repeat measured iterations")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	fp := fingerprint()
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%d trace=%d\n", w.Name, *seed, *seconds, *trace)
	line, _ := json.Marshal(map[string]any{"fingerprint": fp})
	fmt.Println(string(line))

	var res *Result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed)
	} else {
		res, err = runEndToEnd(w, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runIter runs one iteration and folds its correctness into ok.
func runIter(w Workload, env *Env, label string, ok *bool) (*Iter, error) {
	// Every iteration starts from the same heap: the previous world's
	// garbage collected and its pages returned to the OS.
	debug.FreeOSMemory()
	it, err := w.Run(env)
	if err != nil {
		return nil, fmt.Errorf("%s %s iteration: %w", w.Name, label, err)
	}
	status := "ok"
	if it.CheckErr != nil {
		*ok = false
		status = "WRONG: " + it.CheckErr.Error()
	}
	if w.FailuresFatal && it.Tally.Failed > 0 {
		*ok = false
		status = "WRONG: failed ops"
	}
	fmt.Fprintf(os.Stderr, "  %-8s setup=%.3fs ops=%d wall=%.3fs likes=%d  %s\n  %8s %s\n",
		label, it.Setup.Seconds(), it.Ops, it.Wall.Seconds(), it.Likes, status, "", it.Tally)
	for _, n := range it.Notes {
		fmt.Fprintf(os.Stderr, "  %8s %s\n", "", n)
	}
	return it, nil
}

// runEndToEnd discards one warm-up iteration, then repeats measured
// iterations until budget has elapsed, and reports the end-to-end
// metrics over the measured iterations.
func runEndToEnd(w Workload, seed int64, budget time.Duration) (*Result, error) {
	ok := true
	if _, err := runIter(w, &Env{Seed: seed}, "warm-up", &ok); err != nil {
		return nil, err
	}
	var iters []*Iter
	start := time.Now()
	for len(iters) == 0 || time.Since(start) < budget {
		it, err := runIter(w, &Env{Seed: seed}, fmt.Sprintf("iter %d", len(iters)+1), &ok)
		if err != nil {
			return nil, err
		}
		iters = append(iters, it)
	}

	// Each metric is the median of its per-iteration values, so one
	// iteration disturbed by the machine does not move the result.
	var setups, heaps, opsPerS, likesPerS, opP50, readP50 []float64
	for extra := len(iters); extra < minSetups; extra++ {
		debug.FreeOSMemory()
		d, err := w.SetupOnly(seed)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.Name, err)
		}
		setups = append(setups, d.Seconds())
	}
	var opLat, readLat []time.Duration
	tally := newTally()
	for _, it := range iters {
		setups = append(setups, it.Setup.Seconds())
		heaps = append(heaps, float64(it.HeapLive)/(1<<20))
		opsPerS = append(opsPerS, float64(it.Ops)/it.Wall.Seconds())
		likesPerS = append(likesPerS, float64(it.Likes)/it.Wall.Seconds())
		opP50 = append(opP50, us(p50(it.OpLat)))
		readP50 = append(readP50, us(p50(it.ReadLat)))
		opLat = append(opLat, it.OpLat...)
		readLat = append(readLat, it.ReadLat...)
		tally.Merge(it.Tally)
	}
	sortDurations(opLat)
	sortDurations(readLat)
	opTail, readTail := tailOf(opLat), tailOf(readLat)
	fmt.Fprintf(os.Stderr, "  %d measured iterations; pooled op p50 %.1fus p%g %.1fus (n=%d); read p50 %.1fus p%g %.1fus (n=%d)\n",
		len(iters), us(percentile(opLat, 50)), opTail.Pct, us(opTail.Value), opTail.N,
		us(percentile(readLat, 50)), readTail.Pct, us(readTail.Value), readTail.N)
	m := map[string]Metric{
		"setup_s":       {median(setups), "s"},
		"ops_per_s":     {median(opsPerS), "1/s"},
		"likes_per_s":   {median(likesPerS), "1/s"},
		"op_p50_us":     {median(opP50), "us"},
		"read_p50_us":   {median(readP50), "us"},
		"heap_live_mib": {median(heaps), "MiB"},
	}
	return &Result{Correct: ok, Attempted: tally.Attempted, Failed: tally.Failed, Metrics: m}, nil
}

// tracedPairs is how many untraced/traced iteration pairs a traced run
// alternates. One pair is too few: two iterations differ by up to 15%
// on a 2-core box, which would swamp the tracing overhead.
const tracedPairs = 3

// runTraced discards one warm-up iteration, then alternates untraced and
// traced iterations and reports the per-layer metrics. Untraced
// iterations give the runtime, contention and outcome counters and the
// latencies the tracing overhead is measured against; traced ones give
// the benchmark's spans and the replay probe. Each metric is the median
// over its iterations.
func runTraced(w Workload, seed int64) (*Result, error) {
	ok := true
	if _, err := runIter(w, &Env{Seed: seed}, "warm-up", &ok); err != nil {
		return nil, err
	}
	var plain, traced []*Iter
	var tracedP50 []float64
	var rec *Recorder
	for i := 1; i <= tracedPairs; i++ {
		it, err := runIter(w, &Env{Seed: seed}, fmt.Sprintf("untraced %d", i), &ok)
		if err != nil {
			return nil, err
		}
		plain = append(plain, it)
		rec = NewRecorder()
		if it, err = runIter(w, &Env{Seed: seed, Spans: rec}, fmt.Sprintf("traced %d", i), &ok); err != nil {
			return nil, err
		}
		traced = append(traced, it)
		tracedP50 = append(tracedP50, us(p50(rec.Durations(unitSpan(w.Name)))))
	}
	if err := rec.WriteJSONL(traceDir, fmt.Sprintf("perfbench-trace-%s-seed%d.jsonl", w.Name, seed)); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	}

	// The traced iterations supply what only they measure (the replay
	// probe, the timed wire); everything both measure comes from the
	// untraced ones.
	layer := medianLayer(traced)
	mergeInto(layer, medianLayer(plain))
	tally := newTally()
	var opLat, readLat []time.Duration
	var untracedP50 []float64
	for _, it := range plain {
		tally.Merge(it.Tally)
		opLat = append(opLat, it.OpLat...)
		readLat = append(readLat, it.ReadLat...)
		untracedP50 = append(untracedP50, us(p50(it.OpLat)))
	}
	opTail, readTail := tailOf(sortDurations(opLat)), tailOf(sortDurations(readLat))
	layer["fail_frac"] = ratio(float64(tally.Failed), float64(tally.Attempted))
	layer["op_tail_us"] = us(opTail.Value)
	layer["read_tail_us"] = us(readTail.Value)
	fmt.Fprintf(os.Stderr, "  untraced tails: op p%g of n=%d, read p%g of n=%d\n", opTail.Pct, opTail.N, readTail.Pct, readTail.N)

	table := buildLayerTable(w.Name, usDur(median(tracedP50)), layer, usDur(median(untracedP50)))
	table.Print(os.Stderr)
	layer["layer.e2e_untraced_us"] = us(table.Untraced)
	layer["layer.e2e_traced_us"] = us(table.Traced)
	layer["layer.sum_us"] = us(table.Sum())
	layer["obs.bench_overhead_us"] = us(table.Traced - table.Untraced)

	m := make(map[string]Metric, len(perLayerMetrics))
	var missing []string
	for _, pm := range perLayerMetrics {
		v, found := layer[pm.Name]
		if !found {
			missing = append(missing, pm.Name)
		}
		m[pm.Name] = Metric{v, pm.Unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("%s: per-layer metrics not measured: %s", w.Name, strings.Join(missing, ", "))
	}
	for _, it := range traced {
		tally.Merge(it.Tally)
	}
	return &Result{Correct: ok, Attempted: tally.Attempted, Failed: tally.Failed, Metrics: m}, nil
}

// medianLayer returns, for each per-layer metric the iterations
// measured, the median of its values.
func medianLayer(iters []*Iter) map[string]float64 {
	vals := make(map[string][]float64)
	for _, it := range iters {
		for k, v := range it.Layer {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

// Fingerprint identifies the machine a result was measured on.
type Fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	TimeWait   int    `json:"tcp_time_wait_at_start"`
}

func fingerprint() Fingerprint {
	fp := Fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        procField("/proc/cpuinfo", "model name", ":"),
		Go:         runtime.Version(),
		TimeWait:   -1,
	}
	if tcp := procField("/proc/net/sockstat", "TCP", ":"); tcp != "" {
		f := strings.Fields(tcp)
		for i := 0; i+1 < len(f); i++ {
			if f[i] == "tw" {
				fmt.Sscan(f[i+1], &fp.TimeWait)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: nproc=%d gomaxprocs=%d cpu=%q go=%s time_wait=%d\n",
		fp.NProc, fp.GOMAXPROCS, fp.CPU, fp.Go, fp.TimeWait)
	return fp
}

// procField returns the text after sep on the first line of path that
// starts with key, or "" when there is none.
func procField(path, key, sep string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, key) {
			if _, after, found := strings.Cut(line, sep); found {
				return strings.TrimSpace(after)
			}
		}
	}
	return ""
}
