// Command perfbench is the repository benchmark: it runs one named
// workload through the public APIs (harness.Runner, gpusim, trace,
// checkpoint, and the plutusd/coordinator HTTP API), checks every
// output, and prints its metrics. The last line of standard output is
// one JSON object {correct, attempted, failed, metrics}. See README.md
// for the workloads, the metrics and how to run it.
//
//	perfbench --workload sweep-graph --seed 1 --seconds 12 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// processStart is the earliest instant the program can observe; the
// first set-up sample is measured from it.
var processStart = time.Now()

// setupRepeats is how many times each run builds its workload's set-up;
// setup_s is their median.
const setupRepeats = 5

// options are the command-line inputs.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	commit   string
	outDir   string
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one benchmark workload. Each run builds a fresh instance
// for every set-up.
type bench interface {
	// setup builds everything the timed phase needs.
	setup(ctx context.Context, e *env) error
	// pass runs one fixed unit of timed work and records it in ph.
	pass(ctx context.Context, e *env, p int, ph *phase)
	// finish runs the untimed output checks that need the whole phase.
	finish(ctx context.Context, e *env, ph *phase)
	// close releases what setup built.
	close()
}

// workloadDef names a workload and sizes its timed phase.
type workloadDef struct {
	name string
	// passSeconds is one pass's duration on the reference machine; a run
	// makes round(--seconds / passSeconds) passes (at least one), so the
	// amount of work is fixed by --seconds, not by how fast it goes.
	passSeconds float64
	budgets     string
	make        func(seed uint64) bench
}

var workloads = []workloadDef{
	{name: "sweep-graph", passSeconds: 17, budgets: fmt.Sprintf("%d warp-insts per cell", graphBudget), make: newSweepGraph},
	{name: "sweep-write", passSeconds: 27, budgets: fmt.Sprintf("%d warp-insts per cell (every stream runs to its end)", writeBudget), make: newSweepWrite},
	{name: "trace-resume", passSeconds: 5, budgets: "full scn-multitenant stream (57600 warp-insts), snapshot every " + fmt.Sprint(resumeCadence) + " cycles", make: newTraceResume},
	{name: "serve-cells", passSeconds: 14, budgets: fmt.Sprintf("%d warp-insts per cell", serveBudget), make: newServeCells},
}

// env is what a workload sees of the run.
type env struct {
	opts  options
	nproc int
	dir   string  // scratch directory inside the output directory
	tr    *tracer // nil when untraced
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 12, "length of the timed phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	flag.StringVar(&o.commit, "commit", "unknown", "commit the binary was built from (provenance only)")
	flag.StringVar(&o.outDir, "out", ".bench_build/out", "directory for scratch files, spans and profiles")
	flag.Parse()
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("--trace must be 0 or 1")
	}
	def, ok := findWorkload(o.workload)
	if !ok {
		fatalf("unknown --workload %q (have %s)", o.workload, workloadNames())
	}
	if o.seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	res, err := run(def, o)
	if err != nil {
		fatalf("%s: %v", def.name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// passes is the number of timed passes a run makes.
func (d workloadDef) passes(seconds float64) int {
	n := int(seconds/d.passSeconds + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// run executes one invocation: set-up, the timed phase(s), the checks,
// and (traced) the micro-drivers and the profile.
func run(def workloadDef, o options) (*result, error) {
	scratch := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-trace%v-%d", def.name, o.seed, o.trace, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	e := &env{opts: o, nproc: runtime.NumCPU(), dir: scratch}
	ctx := context.Background()
	prov := provenance(def, o)
	out := os.Stdout
	fmt.Fprintf(out, "provenance: %s\n", mustJSON(prov))

	if o.trace {
		return runTraced(ctx, def, e, out)
	}

	// Set-up, several times: the first sample runs from process start.
	var setups []float64
	var wl bench
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		w := def.make(o.seed)
		if err := w.setup(ctx, e); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if wl != nil {
			wl.close()
		}
		wl = w
	}
	ph := timedPhase(ctx, def, e, wl)
	// Read before the checks, which are not part of the workload.
	peak := peakRSSMB()
	wl.finish(ctx, e, ph)
	wl.close()
	checkDigestsAcrossRuns(e, def, ph)

	m := map[string]metric{
		"setup_s":      {median(setups), "s"},
		"kinsts_per_s": {ph.kinstsPerSec(), "kinst/s"},
		"alloc_mb":     {float64(ph.allocBytes) / float64(ph.passes) / 1e6, "MB"},
		"peak_rss_mb":  {peak, "MB"},
		"op_mean_ms":   {ms(mean(ph.ops)), "ms"},
	}
	fmt.Fprintf(out, "\n%s: %d pass(es), %.2f s timed, %d operations; set-up samples %.3f s\n",
		def.name, ph.passes, ph.wall.Seconds(), ph.attempted, setups)
	printMetrics(out, "end-to-end", m)
	printMetrics(out, "workload detail", ph.extra)
	printDigests(out, ph)
	return finish(ph, m), nil
}

// runTraced is the --trace 1 invocation: an untraced phase and a traced
// phase on fresh set-ups of the same seed (their digests must agree),
// then the fixed-input micro-drivers.
func runTraced(ctx context.Context, def workloadDef, e *env, out io.Writer) (*result, error) {
	phaseOn := func(tr *tracer) (*phase, error) {
		e.tr = tr
		defer func() { e.tr = nil }()
		wl := def.make(e.opts.seed)
		err := tr.region(ctx, "setup", func(ctx context.Context) error { return wl.setup(ctx, e) })
		if err != nil {
			wl.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		ph := timedPhase(ctx, def, e, wl)
		wl.finish(ctx, e, ph)
		wl.close()
		return ph, nil
	}
	plain, err := phaseOn(nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := phaseOn(tr)
	if err != nil {
		return nil, err
	}
	compareDigests(traced, plain.digests, "the untraced phase")
	checkDigestsAcrossRuns(e, def, traced)

	m := layerMetrics(traced)
	for k, v := range microDrivers(e.opts.seed) {
		m[k] = v
	}
	prof, err := tr.profile()
	if err != nil {
		return nil, err
	}
	for k, v := range prof.metrics() {
		m[k] = v
	}
	for k, v := range tr.metrics() {
		m[k] = v
	}
	untracedK, tracedK := plain.kinstsPerSec(), traced.kinstsPerSec()
	m["overhead.untraced_kinsts_per_s"] = metric{untracedK, "kinst/s"}
	m["overhead.traced_kinsts_per_s"] = metric{tracedK, "kinst/s"}
	m["overhead.ratio"] = metric{tracedK / untracedK, "ratio"}
	m["runtime.num_gc"] = metric{float64(traced.numGC), "count"}

	fmt.Fprintf(out, "\n%s traced: %d pass(es), %.2f s timed, %d operations\n", def.name, traced.passes, traced.wall.Seconds(), traced.attempted)
	fmt.Fprintf(out, "tracing overhead: traced %.2f kinst/s / untraced %.2f kinst/s = %.3f\n", tracedK, untracedK, tracedK/untracedK)
	prof.print(out)
	tr.printSummary(out)
	printMetrics(out, "workload detail (traced phase)", traced.extra)
	printMetrics(out, "per-layer", m)
	printDigests(out, traced)
	if err := tr.write(e.opts.outDir, def.name, e.opts.seed, prof, traced.digests); err != nil {
		return nil, err
	}
	// Both phases' operations and failures count.
	traced.attempted += plain.attempted
	traced.failed += plain.failed
	traced.failures = append(plain.failures, traced.failures...)
	return finish(traced, m), nil
}

// timedPhase runs the workload's passes and measures the whole phase.
func timedPhase(ctx context.Context, def workloadDef, e *env, wl bench) *phase {
	ph := newPhase()
	n := def.passes(e.opts.seconds)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if e.tr != nil {
		e.tr.startProfile()
	}
	u0, s0 := cpuTimes()
	t0 := time.Now()
	for p := 0; p < n; p++ {
		wl.pass(ctx, e, p, ph)
	}
	ph.wall = time.Since(t0)
	u1, s1 := cpuTimes()
	if e.tr != nil {
		e.tr.stopProfile()
	}
	runtime.ReadMemStats(&after)
	ph.extra["cpu_user_s"] = metric{(u1 - u0).Seconds(), "s"}
	ph.extra["cpu_sys_s"] = metric{(s1 - s0).Seconds(), "s"}
	ph.passes = n
	ph.allocBytes = after.TotalAlloc - before.TotalAlloc
	ph.numGC = after.NumGC - before.NumGC
	return ph
}

func finish(ph *phase, m map[string]metric) *result {
	for _, f := range ph.failures {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
	}
	attempted := ph.attempted
	if attempted < 1 {
		attempted = 1
	}
	return &result{
		Correct:   ph.failed == 0 && ph.attempted > 0,
		Attempted: attempted,
		Failed:    ph.failed,
		Metrics:   m,
	}
}

// provenance records what produced the numbers.
func provenance(def workloadDef, o options) map[string]any {
	return map[string]any{
		"workload":   def.name,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"passes":     def.passes(o.seconds),
		"trace":      o.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     o.commit,
		"budgets":    def.budgets,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTimes returns the process's user and system CPU time so far.
func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%f", &kb)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func printMetrics(w io.Writer, title string, m map[string]metric) {
	if len(m) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%s metrics:\n", title)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func printDigests(w io.Writer, ph *phase) {
	if len(ph.digests) == 0 {
		return
	}
	fmt.Fprintf(w, "\noutput digests (sha256 of harness.WriteRunJSON), %d cells:\n", len(ph.digests))
	keys := make([]string, 0, len(ph.digests))
	for k := range ph.digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	const show = 12
	for i, k := range keys {
		if i == show {
			fmt.Fprintf(w, "  ... %d more (all are in a traced run's spans file)\n", len(keys)-show)
			break
		}
		fmt.Fprintf(w, "  %-40s %s\n", k, ph.digests[k][:16])
	}
}

// checkDigestsAcrossRuns compares this run's digests with those an
// earlier run of the same binary, workload and seed stored, and stores
// them when none exist: traced and untraced runs of one seed must agree.
func checkDigestsAcrossRuns(e *env, def workloadDef, ph *phase) {
	exe, err := os.Executable()
	if err != nil {
		return
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return
	}
	sum := sha256.Sum256(data)
	dir := filepath.Join(e.opts.outDir, "digests", hex.EncodeToString(sum[:8]))
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", def.name, e.opts.seed))
	if prev, err := os.ReadFile(path); err == nil {
		var want map[string]string
		if err := json.Unmarshal(prev, &want); err != nil {
			ph.fail("digest file %s: %v", path, err)
			return
		}
		compareDigests(ph, want, "an earlier run of this seed")
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	tmp := path + fmt.Sprintf(".%d", os.Getpid())
	if err := os.WriteFile(tmp, []byte(mustJSON(ph.digests)), 0o644); err == nil {
		os.Rename(tmp, path)
	}
}

// compareDigests fails every cell whose digest differs from want's.
func compareDigests(ph *phase, want map[string]string, what string) {
	for cell, d := range ph.digests {
		if w, ok := want[cell]; ok && w != d {
			ph.fail("%s: digest %s differs from %s (%s)", cell, d[:16], what, w[:16])
		}
	}
}
