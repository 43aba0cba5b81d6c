// Package harness reproduces the paper's evaluation: it owns the
// experiment matrix (benchmark × security scheme), runs simulations in
// parallel with result caching (many figures share the same underlying
// runs), and formats each figure's table the way the paper reports it.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/stats"
	"github.com/plutus-gpu/plutus/internal/tamper"
	"github.com/plutus-gpu/plutus/internal/workload"
)

// Config controls the experiment sweep.
type Config struct {
	// ProtectedBytes is the per-partition protected range (paper: 4 GiB
	// over 32 partitions = 128 MiB per partition).
	ProtectedBytes uint64
	// MaxInstructions is the warp-instruction budget per run. The paper
	// simulates 2 G instructions on GPGPU-Sim; the reproduction's default
	// keeps full sweeps to minutes while preserving relative results.
	MaxInstructions uint64
	// Benchmarks lists the workloads to run (default: the full suite).
	Benchmarks []string
	// Parallelism bounds concurrent simulations (default: GOMAXPROCS).
	// Each simulation runs its memory partitions on its share of the
	// cores, max(1, GOMAXPROCS/Parallelism), so at the default every run
	// is sequential. Results are bit-identical at any share.
	Parallelism int
	// FullVolta switches from the scaled 8-partition GPU to the paper's
	// full 80-SM / 32-partition configuration (much slower).
	FullVolta bool

	// CheckpointEvery snapshots each simulation's full state every this
	// many cycles (0 = no checkpointing). Checkpoint cadence perturbs
	// event timing (see gpusim.Config.CheckpointEvery), so it is part of
	// the run cache key: results are only comparable between runs at the
	// same cadence.
	CheckpointEvery uint64
	// CheckpointDir is where snapshots are written, one file per run,
	// named after the run key. Required when CheckpointEvery > 0.
	CheckpointDir string
	// Resume restores any run whose snapshot file exists in
	// CheckpointDir instead of starting it from cycle zero. Completed
	// runs delete their snapshot, so only interrupted runs resume.
	Resume bool

	// TamperPlan arms an adversarial fault-injection schedule on every
	// run (see internal/tamper): DRAM-resident state is mutated at the
	// plan's cycles and the engines' detection verdicts land in the
	// stats. The plan fingerprint is part of the run cache key, and the
	// false-alarm gate (which treats any detection in a benign run as a
	// harness bug) is lifted — detections are the measurement.
	TamperPlan *tamper.Plan
}

// DefaultConfig returns the sweep configuration used by cmd/experiments.
func DefaultConfig() Config {
	var c Config
	c.normalize()
	return c
}

// normalize fills c's zero fields with the defaults. Only a missing
// benchmark list allocates, so CacheKey can run it per key.
func (c *Config) normalize() {
	if c.ProtectedBytes == 0 {
		c.ProtectedBytes = 128 << 20
	}
	if c.MaxInstructions == 0 {
		c.MaxInstructions = 20000
	}
	if len(c.Benchmarks) == 0 {
		c.Benchmarks = workload.SuiteNames()
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
}

// coreShare is how many cores each of parallelism concurrent simulations
// may use on procs processors: more than one only when the runner leaves
// cores idle, so simulations never oversubscribe the host.
func coreShare(procs, parallelism int) int {
	return max(1, procs/parallelism)
}

// runEntry is a single-flight cache slot: the first goroutine to claim
// a key becomes the leader and executes the simulation once; every
// later caller blocks on done and reads the settled result. Concurrent
// requests for the same (benchmark, scheme) can never run the
// simulation twice.
type runEntry struct {
	done chan struct{} // closed once st/err are settled
	st   *stats.Stats
	err  error
}

// Runner executes and caches simulation runs.
type Runner struct {
	cfg Config

	mu    sync.Mutex
	cache map[string]*runEntry
	// schemes holds the one normalized configuration each Scheme name
	// stands for in this runner. A run key carries the name, not the
	// configuration, so a second configuration under a name would be
	// served the first one's cached stats; RunSeededContext refuses it.
	schemes    map[string]secmem.Config
	lookups    uint64 // Run, RunSeeded and RunSeededContext calls
	executions uint64 // simulations actually executed (cache misses)
	sem        chan struct{}
}

// Metrics is a snapshot of the runner's single-flight cache activity.
// plutusd exposes it at /debug/statsz; tests use it to prove that
// concurrent identical requests coalesced into one execution.
type Metrics struct {
	// Lookups counts Run, RunSeeded and RunSeededContext calls.
	Lookups uint64
	// Executions counts simulations actually executed — cache misses
	// that reached simulate.
	Executions uint64
}

// HitRate returns the fraction of lookups served without a fresh
// simulation (coalesced into an in-flight run or read from cache).
func (m Metrics) HitRate() float64 {
	if m.Lookups == 0 {
		return 0
	}
	return 1 - float64(m.Executions)/float64(m.Lookups)
}

// Metrics returns a consistent snapshot of the cache counters.
func (r *Runner) Metrics() Metrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Metrics{Lookups: r.lookups, Executions: r.executions}
}

// NewRunner builds a Runner (normalizing cfg in place). Every
// registered scheme's Scheme name is reserved for its registered
// configuration from the start.
func NewRunner(cfg Config) *Runner {
	cfg.normalize()
	// Simulations allocate heavily in steady state; relaxing the GC
	// target roughly halves wall time for full sweeps.
	debug.SetGCPercent(600)
	r := &Runner{
		cfg:     cfg,
		cache:   make(map[string]*runEntry),
		schemes: make(map[string]secmem.Config),
		sem:     make(chan struct{}, cfg.Parallelism),
	}
	for _, name := range secmem.Names() {
		sc, err := secmem.ByName(name, cfg.ProtectedBytes)
		if err == nil {
			err = sc.Normalize()
		}
		if err != nil {
			panic(fmt.Sprintf("harness: registered scheme %s: %v", name, err))
		}
		r.schemes[sc.Scheme] = sc
	}
	return r
}

// Config returns the runner's (normalized) sweep configuration.
func (r *Runner) Config() Config { return r.cfg }

func (r *Runner) key(bench string, sc secmem.Config, seed uint64) string {
	return CacheKey(r.cfg, bench, sc, seed)
}

// CacheKey returns the run-cache key of one grid cell under cfg — the
// string the cluster's content-addressed result store indexes by, so a
// worker's bytes and a local single-box run of the same cell land on
// the same address. It builds no Runner, so a process that only
// computes keys (the cluster coordinator) keeps its own GC target. The
// key holds the scheme's name only; a Runner keeps each name to one
// configuration.
func CacheKey(cfg Config, bench string, sc secmem.Config, seed uint64) string {
	cfg.normalize()
	k := fmt.Sprintf("%s|%s|%d|%d", bench, sc.Scheme, cfg.MaxInstructions, cfg.ProtectedBytes)
	if seed != 0 {
		// Seed zero is the canonical workload instantiation (workload.Get);
		// omitting it keeps every pre-seed cache key, snapshot filename,
		// and golden fixture stable.
		k += fmt.Sprintf("|seed=%d", seed)
	}
	if cfg.CheckpointEvery > 0 {
		// Checkpoint drains perturb timing; keep cadenced runs in their
		// own cache lineage (and their own snapshot files).
		k += fmt.Sprintf("|ckpt=%d", cfg.CheckpointEvery)
	}
	if cfg.TamperPlan != nil {
		// Two runs share a cache entry only under identical attack
		// schedules.
		k += "|tamper=" + cfg.TamperPlan.Fingerprint()
	}
	return k
}

// SnapshotPathSeeded returns the snapshot file a run reads and writes:
// the run key with filesystem-hostile characters replaced. Seeded runs
// park in their own snapshot files, which is what lets a cluster
// coordinator migrate one grid cell's PLUTSNAP between workers without
// colliding with the canonical seed-zero lineage.
func (r *Runner) SnapshotPathSeeded(bench string, sc secmem.Config, seed uint64) string {
	name := strings.NewReplacer("|", "_", "/", "_").Replace(r.key(bench, sc, seed))
	return filepath.Join(r.cfg.CheckpointDir, name+".ckpt")
}

// Run simulates one (benchmark, scheme) pair, serving repeats from cache.
// Concurrent calls for the same pair coalesce into a single simulation.
func (r *Runner) Run(bench string, sc secmem.Config) (*stats.Stats, error) {
	return r.RunSeededContext(context.Background(), bench, sc, 0)
}

// RunSeeded is Run for a seed-perturbed workload instantiation (seed
// zero matches Run exactly; see workload.GetSeeded). The seed is a full
// cache-key dimension: distinct seeds are distinct runs with their own
// single-flight entries and snapshot files.
func (r *Runner) RunSeeded(bench string, sc secmem.Config, seed uint64) (*stats.Stats, error) {
	return r.RunSeededContext(context.Background(), bench, sc, seed)
}

// RunSeededContext is RunSeeded with cancellation, over the full
// (benchmark, scheme, seed) grid cell — the unit the distributed sweep
// fabric shards, steals, and content-addresses cluster-wide. A caller
// that gives up while queued behind the parallelism semaphore, or while
// waiting on another goroutine's in-flight run of the same cell,
// unblocks with ctx.Err(). The simulation itself is interrupted only at
// a checkpoint (Config.CheckpointEvery), where it parks with
// checkpoint.ErrPreempted; otherwise an executing run always settles
// its cache entry. A leader cancelled before its simulation starts
// removes the entry again, leaving the cache clean for a retry; any
// waiters already parked on that entry observe the cancellation error.
//
// A configuration whose Scheme name this runner already knows under
// other fields (a registered scheme, or an earlier run) is refused with
// an error: its run key would alias the other configuration's cell.
//
// RunSeededContext is safe for concurrent use; plutusd's worker pool
// calls it from many goroutines.
func (r *Runner) RunSeededContext(ctx context.Context, bench string, sc secmem.Config, seed uint64) (*stats.Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sc.ProtectedBytes = r.cfg.ProtectedBytes
	k := r.key(bench, sc, seed)
	want := sc
	if err := want.Normalize(); err != nil {
		return nil, fmt.Errorf("harness: %s/%s: %w", bench, sc.Scheme, err)
	}

	r.mu.Lock()
	r.lookups++
	if seen, ok := r.schemes[sc.Scheme]; !ok {
		r.schemes[sc.Scheme] = want
	} else if seen != want {
		r.mu.Unlock()
		return nil, fmt.Errorf("harness: scheme %q already names another configuration in this runner; give the variant its own Scheme", sc.Scheme)
	}
	if e, ok := r.cache[k]; ok {
		r.mu.Unlock()
		select {
		case <-e.done:
			return e.st, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &runEntry{done: make(chan struct{})}
	r.cache[k] = e
	r.mu.Unlock()

	settle := func(st *stats.Stats, err error) (*stats.Stats, error) {
		e.st, e.err = st, err
		close(e.done)
		return st, err
	}
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		r.mu.Lock()
		delete(r.cache, k)
		r.mu.Unlock()
		return settle(nil, ctx.Err())
	}
	r.mu.Lock()
	r.executions++
	r.mu.Unlock()
	st, err := r.simulate(ctx, bench, sc, seed)
	<-r.sem
	if errors.Is(err, checkpoint.ErrPreempted) {
		// The run parked itself in its snapshot file; drop the cache entry
		// so a retry resumes it instead of observing the preemption error.
		r.mu.Lock()
		delete(r.cache, k)
		r.mu.Unlock()
	}
	return settle(st, err)
}

// simulate executes one uncached run. With checkpointing configured it
// writes a snapshot every Config.CheckpointEvery cycles (atomically, so
// a kill mid-write leaves the previous snapshot intact), resumes from an
// existing snapshot when Config.Resume is set, honors ctx cancellation
// at checkpoint boundaries by parking the run with ErrPreempted, and
// deletes the snapshot once the run completes.
func (r *Runner) simulate(ctx context.Context, bench string, sc secmem.Config, seed uint64) (*stats.Stats, error) {
	wl, err := workload.GetSeeded(bench, seed)
	if err != nil {
		return nil, err
	}
	var gcfg gpusim.Config
	if r.cfg.FullVolta {
		gcfg = gpusim.DefaultVoltaConfig(sc)
	} else {
		gcfg = gpusim.ScaledConfig(sc)
	}
	gcfg.Sec.ProtectedBytes = r.cfg.ProtectedBytes
	gcfg.MaxInstructions = r.cfg.MaxInstructions
	gcfg.Workers = coreShare(runtime.GOMAXPROCS(0), r.cfg.Parallelism)
	gcfg.CheckpointEvery = r.cfg.CheckpointEvery

	var g *gpusim.GPU
	var snapPath string
	if r.cfg.CheckpointEvery > 0 {
		if r.cfg.CheckpointDir == "" {
			return nil, fmt.Errorf("harness: %s/%s: CheckpointEvery set without CheckpointDir", bench, sc.Scheme)
		}
		snapPath = r.SnapshotPathSeeded(bench, sc, seed)
		if r.cfg.Resume {
			if data, rerr := os.ReadFile(snapPath); rerr == nil {
				g, err = gpusim.ResumeSnapshot(gcfg, wl, data)
				if err != nil {
					return nil, fmt.Errorf("harness: %s/%s: resume %s: %w", bench, sc.Scheme, snapPath, err)
				}
			} else if !errors.Is(rerr, fs.ErrNotExist) {
				return nil, fmt.Errorf("harness: %s/%s: %w", bench, sc.Scheme, rerr)
			}
		}
	}
	if g == nil {
		g, err = gpusim.New(gcfg, wl)
		if err != nil {
			return nil, fmt.Errorf("harness: %s/%s: %w", bench, sc.Scheme, err)
		}
	}
	if r.cfg.TamperPlan != nil {
		// A plan may only carry attack kinds the scheme has DRAM-resident
		// targets for; anything else would silently no-op at the engine.
		if verr := r.cfg.TamperPlan.ValidateFor(sc); verr != nil {
			return nil, fmt.Errorf("harness: %s/%s: %w", bench, sc.Scheme, verr)
		}
		// Plan addresses live in the interleaved global protected space
		// spanning all partitions. Arming after resume is required too:
		// the schedule is not part of the snapshot, only the count of
		// already-applied ops is, so a resumed run re-arms and continues
		// from that index.
		il, ierr := geom.NewInterleaver(gcfg.Partitions)
		if ierr != nil {
			return nil, fmt.Errorf("harness: %s/%s: %w", bench, sc.Scheme, ierr)
		}
		ops, terr := r.cfg.TamperPlan.Expand(il, gcfg.Sec.ProtectedBytes*uint64(gcfg.Partitions))
		if terr != nil {
			return nil, fmt.Errorf("harness: %s/%s: %w", bench, sc.Scheme, terr)
		}
		g.ArmTamper(ops)
	}

	var sink gpusim.CheckpointSink
	if snapPath != "" {
		sink = func(cycle uint64, data []byte) error {
			if err := checkpoint.WriteFileAtomic(snapPath, data); err != nil {
				return fmt.Errorf("harness: %s/%s: write snapshot: %w", bench, sc.Scheme, err)
			}
			if cerr := ctx.Err(); cerr != nil {
				// The snapshot just written is the park point; the run can
				// be picked up again with Config.Resume.
				return fmt.Errorf("harness: %s/%s parked at cycle %d (%v): %w",
					bench, sc.Scheme, cycle, cerr, checkpoint.ErrPreempted)
			}
			return nil
		}
	}
	st, err := g.RunWithCheckpoints(sink)
	if err != nil {
		return nil, err
	}
	if snapPath != "" {
		// Completed: the snapshot would only shadow future identical runs.
		os.Remove(snapPath)
	}
	if r.cfg.TamperPlan == nil && (st.Sec.TamperDetected != 0 || st.Sec.ReplayDetected != 0) {
		return nil, fmt.Errorf("harness: %s/%s: false security alarms: %+v", bench, sc.Scheme, st.Sec)
	}
	return st, nil
}

// runMatrix warms the cache for every (benchmark, scheme) pair in
// parallel and returns the first error.
func (r *Runner) runMatrix(schemes []secmem.Config) error {
	var wg sync.WaitGroup
	errCh := make(chan error, len(r.cfg.Benchmarks)*len(schemes))
	for _, b := range r.cfg.Benchmarks {
		for _, sc := range schemes {
			wg.Add(1)
			go func(b string, sc secmem.Config) {
				defer wg.Done()
				if _, err := r.Run(b, sc); err != nil {
					errCh <- err
				}
			}(b, sc)
		}
	}
	wg.Wait()
	close(errCh)
	return <-errCh
}

// ipcTable renders normalized-IPC rows: one row per benchmark, one column
// per scheme (normalized to the first scheme), plus a geometric-mean row.
func (r *Runner) ipcTable(title string, schemes []secmem.Config) (string, error) {
	if err := r.runMatrix(schemes); err != nil {
		return "", err
	}
	header := []string{"benchmark"}
	for _, sc := range schemes[1:] {
		header = append(header, sc.Scheme)
	}
	var rows [][]string
	gm := make([][]float64, len(schemes)-1)
	for _, b := range r.cfg.Benchmarks {
		base, err := r.Run(b, schemes[0])
		if err != nil {
			return "", err
		}
		row := []string{b}
		for i, sc := range schemes[1:] {
			st, err := r.Run(b, sc)
			if err != nil {
				return "", err
			}
			n := st.IPC() / base.IPC()
			gm[i] = append(gm[i], n)
			row = append(row, fmt.Sprintf("%.3f", n))
		}
		rows = append(rows, row)
	}
	gmRow := []string{"geomean"}
	for i := range gm {
		gmRow = append(gmRow, fmt.Sprintf("%.3f", stats.GeoMean(gm[i])))
	}
	rows = append(rows, gmRow)
	return title + "\n" + stats.Table(header, rows), nil
}

// Speedup summarizes scheme b over scheme a: the geometric mean of the
// per-benchmark IPC ratios, and the largest ratio with its benchmark.
type Speedup struct {
	Mean, Max float64
	MaxBench  string
}

// CompareSchemes computes the headline speedup of b over a.
func (r *Runner) CompareSchemes(a, b secmem.Config) (*Speedup, error) {
	if err := r.runMatrix([]secmem.Config{a, b}); err != nil {
		return nil, err
	}
	out := &Speedup{}
	var ratios []float64
	for _, bench := range r.cfg.Benchmarks {
		sa, err := r.Run(bench, a)
		if err != nil {
			return nil, err
		}
		sb, err := r.Run(bench, b)
		if err != nil {
			return nil, err
		}
		ratio := sb.IPC() / sa.IPC()
		ratios = append(ratios, ratio)
		if ratio > out.Max {
			out.Max, out.MaxBench = ratio, bench
		}
	}
	out.Mean = stats.GeoMean(ratios)
	return out, nil
}
