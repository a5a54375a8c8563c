// Command perfbench is mobipriv's benchmark. One invocation runs one
// seeded workload end to end, checks that the outputs are correct, and
// prints every end-to-end metric by name and unit; with --trace 1 it
// instead runs the traced compositions and prints the per-layer
// metrics. The last line of standard output is the machine-readable
// result:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// Workloads (see BENCHMARK.json for the reasons each exists):
//
//	ingest-live      open-loop rate ladder + closed loop against a mobiserve child
//	batch-pipeline   traceio.ReadCSV -> Runner.Run(pipeline) -> traceio.WriteCSV
//	store-anon-eval  Runner.RunStore(geoi) into a new .mstore, then metrics.EvalStore
//
// Every input derives from --seed; the program under test only ever
// receives the generated inputs. perfbench measures each layer from
// outside: it times calls into the layers' public functions and reads
// mobiserve's /stats histograms. It adds no spans inside the program.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// info holds measurements the report prints without gating them:
	// on a shared host their run-to-run spread is wider than any
	// useful bound (see README.md).
	info map[string]metric
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// note records an ungated measurement.
func (r *result) note(name string, v float64, unit string) {
	if r.info == nil {
		r.info = make(map[string]metric)
	}
	r.info[name] = metric{Value: v, Unit: unit}
}

// check records one correctness check: it counts as an attempted
// operation, and as a failed one when err is non-nil.
func (r *result) check(log io.Writer, what string, err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.Correct = false
		fmt.Fprintf(log, "perfbench: CHECK FAILED: %s: %v\n", what, err)
		return
	}
	fmt.Fprintf(log, "perfbench: check ok: %s\n", what)
}

// bench carries one invocation's settings.
type bench struct {
	seed      int64
	seconds   float64
	mobiserve string // path to the mobiserve binary under test
	workdir   string // scratch directory for stores and server logs
	spansDir  string // where the traced run writes its spans
	shape     shape
	nproc     int
	log       io.Writer
	steal0    float64 // host steal seconds at start
}

// Each workload's set-up runs at least minSetups times per invocation,
// and more (up to maxSetups) while the set-ups so far took under
// setupBudget; setup_s is the median, so one slow set-up (a cold page
// cache, an fsync stalled by a neighbour) does not move it, and the
// millisecond set-ups get enough samples for a steady median.
const (
	minSetups   = 3
	maxSetups   = 64
	setupBudget = time.Second
)

// workloads maps each workload name to its end-to-end run.
var workloads = map[string]func(*bench) (*result, error){
	"ingest-live":     (*bench).ingestLive,
	"batch-pipeline":  (*bench).batchPipeline,
	"store-anon-eval": (*bench).storeAnonEval,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "workload to run: ingest-live, batch-pipeline or store-anon-eval")
		seed      = fs.Int64("seed", 1, "seed every input derives from")
		seconds   = fs.Float64("seconds", 20, "how long the batch workloads repeat their job")
		traceOn   = fs.Int("trace", 0, "1 runs the traced compositions and prints the per-layer metrics")
		mobiserve = fs.String("mobiserve", filepath.Join(".bench_build", "bin", "mobiserve"), "mobiserve binary under test")
		workdir   = fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory (removed on exit)")
		spansDir  = fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want ingest-live, batch-pipeline or store-anon-eval)\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench: workdir:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: workdir:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	b := &bench{
		seed:      *seed,
		seconds:   *seconds,
		mobiserve: *mobiserve,
		workdir:   dir,
		spansDir:  *spansDir,
		shape:     fullShape,
		nproc:     runtime.NumCPU(),
		log:       stderr,
	}
	return b.run(*workload, *traceOn == 1, stdout)
}

// run runs one workload, end to end or traced, prints the report and
// returns the exit code.
func (b *bench) run(workload string, traced bool, stdout io.Writer) int {
	b.steal0 = stealSeconds()
	runtime.GOMAXPROCS(b.nproc)
	var (
		res *result
		err error
	)
	if traced {
		res, err = b.traced(workload)
	} else {
		res, err = workloads[workload](b)
	}
	if err != nil {
		fmt.Fprintln(b.log, "perfbench:", err)
		return 1
	}
	b.report(stdout, workload, traced, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints the provenance block, a human-readable metric table
// (ungated measurements marked), and last the result line.
func (b *bench) report(w io.Writer, workload string, traced bool, res *result) {
	res.note("failed_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
	units := make(map[string]string, len(res.Metrics))
	for n, m := range res.Metrics {
		units[n] = m.Unit
	}
	prov := map[string]any{
		"workload":          workload,
		"trace":             traced,
		"seed":              b.seed,
		"seconds":           b.seconds,
		"cpu_model":         cpuModel(),
		"nproc":             b.nproc,
		"client_gomaxprocs": runtime.GOMAXPROCS(0),
		"server_gomaxprocs": b.nproc,
		"go_version":        runtime.Version(),
		"git_commit":        gitCommit(),
		"host_steal_s":      stealSeconds() - b.steal0,
		"units":             units,
	}
	line, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Fprintf(w, "%s\n", line)
	for _, tab := range []struct {
		m    map[string]metric
		mark string
	}{{res.Metrics, ""}, {res.info, " (not gated)"}} {
		names := make([]string, 0, len(tab.m))
		for n := range tab.m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%-44s %16.6g %s%s\n", n, tab.m[n].Value, tab.m[n].Unit, tab.mark)
		}
	}
	line, _ = json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
}

// stealSeconds reads the CPU time the hypervisor took from this host's
// CPUs (the steal column of /proc/stat), or 0 where it is not reported.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v / userHZ
}

// userHZ is the kernel's clock-tick rate for /proc CPU times.
const userHZ = 100

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the revision the Go toolchain stamped into the binary,
// or "unknown" when it was built outside a git checkout.
func gitCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// timeSetup runs setup as the constants above say, closing all but the
// last result, and returns the last result with the median set-up time.
func timeSetup[T any](setup func() (T, error), closeFn func(T)) (T, float64, error) {
	var (
		last  T
		secs  []float64
		total float64
	)
	for i := 0; i < maxSetups && (i < minSetups || total < setupBudget.Seconds()); i++ {
		if i > 0 {
			closeFn(last)
			runtime.GC()
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		total += secs[i]
		last = v
	}
	return last, median(secs), nil
}

// quantile returns the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// resetPeakRSS clears the kernel's resident-set high-water mark of pid
// (0 = this process), so a later peakRSSMB covers only what follows.
// The figure is best-effort: a kernel without clear_refs leaves the
// mark in place and the peak then includes set-up.
func resetPeakRSS(pid int) {
	f := "/proc/self/clear_refs"
	if pid > 0 {
		f = fmt.Sprintf("/proc/%d/clear_refs", pid)
	}
	_ = os.WriteFile(f, []byte("5"), 0) // best-effort, see above
}

// peakRSSMB reads VmHWM (peak resident set) of pid (0 = this process).
func peakRSSMB(pid int) (float64, error) {
	f := "/proc/self/status"
	if pid > 0 {
		f = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(f)
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in " + f)
}

// setOKRatio reports the share of attempted operations that succeeded.
// failed_ratio itself is printed ungated (and is the result line's
// failed/attempted): a metric that is 0 on every healthy run cannot
// carry a relative bound.
func setOKRatio(res *result) {
	res.set("ok_ratio", 1-float64(res.Failed)/float64(res.Attempted), "ratio")
}

// shape sizes one invocation's inputs.
type shape struct {
	ingestUsers int // commuters in the ingest-live population
	warmReqs    int // unmeasured warm-up requests before the ladder
	windowReqs  int // requests per ladder rung
	closedReqs  int // requests per closed-loop window
	traceReqs   int // requests the traced ingest composition replays
	batchUsers  int // commuters (one day each) in batch-pipeline
	storeUsers  int // commuters (one day each) in store-anon-eval
	minJobs     int // fewest batch jobs per run, however long they take
}

// fullShape is the benchmark's input sizes. ingest-live's shape is
// fixed in requests, not seconds: a ladder rung holds 1000 requests so
// its p99 has ten samples beyond it. --seconds sizes the batch job
// loops.
var fullShape = shape{
	ingestUsers: 400,
	warmReqs:    3000,
	windowReqs:  1000,
	closedReqs:  1500,
	traceReqs:   1000,
	batchUsers:  200,
	storeUsers:  25,
	minJobs:     3,
}
