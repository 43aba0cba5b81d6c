// Package workload runs every registered workload: the synthetic
// benchmark suite standing in for the paper's Rodinia-3.1 / Parboil /
// LonestarGPU-2.0 / Pannotia workloads (the real binaries and inputs
// require GPGPU-Sim; see DESIGN.md's substitution table), the scenario
// corpus (scenario.go), and `trace:<path>` replays of PLTR-v2 traces.
// One type, Bench, produces the stream of every registered Spec.
//
// Each suite benchmark is a deterministic generator parameterised along
// the axes the paper's mechanisms key on:
//
//   - access pattern (streaming, strided, stencil, uniform-random,
//     graph-irregular with skew) — drives cache and row-buffer locality
//     and metadata-cache effectiveness;
//   - memory intensity and read/write mix — drives bandwidth contention
//     (Fig. 7) and the write-rarity that compact counters exploit
//     (Fig. 10);
//   - value profile (zero fraction, hot-pool fraction, near-value jitter)
//     — drives the value locality that Plutus's verification exploits
//     (Fig. 9).
//
// A scenario replaces those pattern axes with a generator of its own.
// Everything is hash-derived from (benchmark, warp, step), so runs are
// reproducible bit-for-bit with no shared mutable state beyond per-warp
// counters.
package workload

import (
	"fmt"
	"sort"
	"strings"

	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/trace"
	"github.com/plutus-gpu/plutus/internal/valmodel"
)

// Pattern is a benchmark's dominant memory-access pattern.
type Pattern int

const (
	// Streaming: fully-coalesced sequential block accesses.
	Streaming Pattern = iota
	// Strided: coalesced but with a large inter-access stride.
	Strided
	// Stencil: streaming plus neighbouring-row reuse.
	Stencil
	// Random: uniform random sectors, partially coalesced.
	Random
	// GraphIrregular: skewed (hot-vertex) scatter with mostly
	// uncoalesced single-word accesses — the paper's worst case.
	GraphIrregular
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Streaming:
		return "streaming"
	case Strided:
		return "strided"
	case Stencil:
		return "stencil"
	case Random:
		return "random"
	case GraphIrregular:
		return "graph"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// ValueProfile parameterises the synthetic data contents.
type ValueProfile struct {
	// ZeroFrac is the fraction of 32-bit words that are zero.
	ZeroFrac float64
	// PoolFrac is the fraction drawn from a small pool of hot values
	// (on top of ZeroFrac).
	PoolFrac float64
	// PoolSize is the hot-pool cardinality.
	PoolSize int
	// Jitter, when true, perturbs the low 4 bits of pool values — the
	// near-value case the paper's masked matching captures.
	Jitter bool
}

// Spec fully describes one registered workload: a suite benchmark's
// pattern parameters, or a scenario's generator.
type Spec struct {
	Name  string
	Suite string
	// Intensity is "high" or "medium" (the paper's two selection bins).
	Intensity string
	// Desc describes a scenario for listings (plutussim -list).
	Desc string

	Warps        int
	InstsPerWarp int
	// Footprint is the data working set in bytes.
	Footprint uint64
	Pattern   Pattern
	// MemFrac is the fraction of instructions that access memory.
	MemFrac float64
	// ReadFrac is the fraction of memory instructions that are loads.
	ReadFrac float64
	// ComputeCycles is the latency of each compute instruction.
	ComputeCycles int
	// ThreadsPerAccess is how many distinct words a warp touches per
	// memory instruction (32 = fully divergent worst case).
	ThreadsPerAccess int
	Values           ValueProfile

	// gen, when set, produces the instruction stream in place of the
	// pattern fields (Footprint through ThreadsPerAccess), which stay
	// unset. It must be a pure function of (seed, warp, step).
	gen func(seed uint64, w int, step uint64) gpusim.Inst
}

// Validate reports spec errors. A generator spec has no pattern fields
// to check.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("workload: empty name")
	case s.Warps < 1 || s.InstsPerWarp < 1:
		return fmt.Errorf("workload %s: warps/insts must be positive", s.Name)
	case s.gen != nil:
		return nil
	case s.Footprint < geom.BlockSize:
		return fmt.Errorf("workload %s: footprint too small", s.Name)
	case s.MemFrac < 0 || s.MemFrac > 1 || s.ReadFrac < 0 || s.ReadFrac > 1:
		return fmt.Errorf("workload %s: fractions out of range", s.Name)
	case s.ThreadsPerAccess < 1 || s.ThreadsPerAccess > 32:
		return fmt.Errorf("workload %s: threads per access out of range", s.Name)
	}
	return nil
}

// splitmix64 and hash2 are this package's historical names for the
// shared generator hashes, owned by internal/valmodel so trace replay
// derives values from the same math.
func splitmix64(x uint64) uint64 { return valmodel.Splitmix64(x) }

func hash2(a, b uint64) uint64 { return valmodel.Hash2(a, b) }

// Bench is a runnable instance of a Spec; it implements gpusim.Workload.
type Bench struct {
	spec Spec
	seed uint64
	step []uint64 // per-warp instruction counter
}

// NewBench instantiates spec with a name-derived seed.
func NewBench(spec Spec) (*Bench, error) {
	return NewBenchSeeded(spec, 0)
}

// NewBenchSeeded instantiates spec with the name-derived seed perturbed
// by seed (zero leaves it unchanged, matching NewBench). Distinct seeds
// give statistically independent instruction streams and memory images
// with identical workload characteristics — the determinism tests sweep
// several to rule out luck in one particular event interleaving.
func NewBenchSeeded(spec Spec, seed uint64) (*Bench, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s := uint64(14695981039346656037)
	for _, c := range spec.Name {
		s = (s ^ uint64(c)) * 1099511628211
	}
	if seed != 0 {
		s ^= splitmix64(seed)
	}
	return &Bench{spec: spec, seed: s, step: make([]uint64, spec.Warps)}, nil
}

// Spec returns the benchmark's parameters.
func (b *Bench) Spec() Spec { return b.spec }

// Name implements gpusim.Workload.
func (b *Bench) Name() string { return b.spec.Name }

// Warps implements gpusim.Workload.
func (b *Bench) Warps() int { return b.spec.Warps }

// Reset rewinds all warps (a Bench may be reused across schemes).
func (b *Bench) Reset() {
	for i := range b.step {
		b.step[i] = 0
	}
}

// Next implements gpusim.Workload.
func (b *Bench) Next(w int) (gpusim.Inst, bool) {
	if b.step[w] >= uint64(b.spec.InstsPerWarp) {
		return gpusim.Inst{}, false
	}
	step := b.step[w]
	b.step[w]++
	if b.spec.gen != nil {
		return b.spec.gen(b.seed, w, step), true
	}

	h := hash2(b.seed, uint64(w)<<32|step)
	if float64(h%1000)/1000 >= b.spec.MemFrac {
		return gpusim.Inst{Kind: gpusim.Compute, Cycles: b.spec.ComputeCycles}, true
	}
	isLoad := float64(hash2(h, 1)%1000)/1000 < b.spec.ReadFrac
	kind := gpusim.Store
	if isLoad {
		kind = gpusim.Load
	}
	return gpusim.Inst{Kind: kind, Addrs: b.addrs(w, step, isLoad)}, true
}

// addrs generates the per-thread addresses of one memory instruction.
func (b *Bench) addrs(w int, step uint64, isLoad bool) []geom.Addr {
	s := b.spec
	fp := s.Footprint &^ (geom.BlockSize - 1)
	n := s.ThreadsPerAccess
	out := make([]geom.Addr, 0, n)

	switch s.Pattern {
	case Streaming:
		// Warp-striped sequential blocks: warp w's i-th access touches
		// block (w + i*warps), threads fill the block contiguously.
		base := (uint64(w) + step*uint64(s.Warps)) * geom.BlockSize % fp
		for t := 0; t < n; t++ {
			out = append(out, geom.Addr(base+uint64(t*4)%geom.BlockSize))
		}
	case Strided:
		stride := uint64(8 * geom.BlockSize)
		base := (uint64(w)*geom.BlockSize + step*stride) % fp
		for t := 0; t < n; t++ {
			out = append(out, geom.Addr(base+uint64(t*4)%geom.BlockSize))
		}
	case Stencil:
		// A row sweep with ±1-row neighbours (3-point stencil rows).
		row := uint64(1024)
		base := (uint64(w)*row + step*geom.BlockSize) % fp
		for t := 0; t < n; t++ {
			off := uint64(t*4) % geom.BlockSize
			switch t % 3 {
			case 0:
				out = append(out, geom.Addr(base+off))
			case 1:
				out = append(out, geom.Addr((base+row+off)%fp))
			default:
				out = append(out, geom.Addr((base+2*row+off)%fp))
			}
		}
	case Random:
		// Uniform random sectors; threads within a warp still cluster
		// into a few sectors (partial coalescing).
		for t := 0; t < n; t++ {
			h := hash2(b.seed^uint64(step), uint64(w)<<16|uint64(t/8))
			sector := h % (fp / geom.SectorSize)
			out = append(out, geom.Addr(sector*geom.SectorSize+uint64(t%8)*4))
		}
	case GraphIrregular:
		// Skewed vertex accesses: ~20% of touches land in a hot 1/64th
		// of the footprint (power-law-ish), threads fully divergent.
		for t := 0; t < n; t++ {
			h := hash2(b.seed^(uint64(step)<<20), uint64(w)<<8|uint64(t))
			region := fp
			base := uint64(0)
			if h%5 == 0 {
				region = fp / 64
				if region < geom.BlockSize {
					region = geom.BlockSize
				}
			}
			sector := (h >> 8) % (region / geom.SectorSize)
			out = append(out, geom.Addr(base+sector*geom.SectorSize+uint64(h>>40&7)*4))
		}
	}
	return out
}

// ValueModel returns the model the benchmark's data contents derive
// from; trace capture embeds it so replayed values match this instance
// exactly (including any seed perturbation).
func (b *Bench) ValueModel() valmodel.Model {
	p := b.spec.Values
	return valmodel.Model{
		Seed:     b.seed,
		ZeroFrac: p.ZeroFrac,
		PoolFrac: p.PoolFrac,
		PoolSize: uint32(p.PoolSize),
		Jitter:   p.Jitter,
	}
}

// MemValue implements gpusim.Workload: the initial memory image.
func (b *Bench) MemValue(addr geom.Addr) uint32 { return b.ValueModel().MemValue(addr) }

// StoreValue implements gpusim.Workload: stored values follow the same
// profile (computation output resembles its input distribution).
func (b *Bench) StoreValue(w int, addr geom.Addr) uint32 {
	return b.ValueModel().StoreValue(w, addr)
}

// StreamCursor implements secmem.StreamCursorSource (structurally — the
// mgx scheme's application-knowledge contract): regular-pattern
// benchmarks declare their in-footprint accesses as one block-granular
// write stream, so the controller can derive those sectors' version
// numbers on-chip. Irregular patterns, scenarios and out-of-footprint
// addresses report no stream, forcing the stored-counter fallback.
func (b *Bench) StreamCursor(addr geom.Addr) (uint64, bool) {
	switch b.spec.Pattern {
	case Streaming, Strided, Stencil:
		fp := b.spec.Footprint &^ (geom.BlockSize - 1)
		if b.spec.gen == nil && uint64(addr) < fp {
			return uint64(addr) / geom.BlockSize, true
		}
	}
	return 0, false
}

// --- registry ---

var registry = map[string]Spec{}

func register(s Spec) {
	if _, dup := registry[s.Name]; dup {
		panic("workload: duplicate " + s.Name)
	}
	registry[s.Name] = s
}

// names lists the registered specs keep selects, sorted.
func names(keep func(Spec) bool) []string {
	var out []string
	for k, s := range registry {
		if keep(s) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// SuiteNames lists the synthetic benchmark suite in sorted order —
// the benchmarks the golden figure tables are pinned to. Scenarios and
// trace workloads are deliberately excluded so adding corpus entries
// never changes byte-pinned results.
func SuiteNames() []string { return names(func(s Spec) bool { return s.gen == nil }) }

// ScenarioNames lists the scenario corpus in sorted order.
func ScenarioNames() []string { return names(func(s Spec) bool { return s.gen != nil }) }

// Names lists every registered workload, the suite and the scenario
// corpus, sorted. `trace:` workloads are not listed (they name files,
// not registry entries).
func Names() []string { return names(func(Spec) bool { return true }) }

// Describe returns a registered workload's Spec.
func Describe(name string) (Spec, bool) {
	s, ok := registry[name]
	return s, ok
}

// Get instantiates a named workload: a registered Spec, or
// `trace:<path>` — a PLTR-v2 trace file replayed as a workload. Both
// flow through the harness, plutusd, and cluster sweeps identically,
// and every gpusim.Workload checkpoints and resumes.
func Get(name string) (gpusim.Workload, error) {
	return GetSeeded(name, 0)
}

// GetSeeded instantiates a named workload with a perturbed seed (zero
// matches Get); see NewBenchSeeded. Trace replays refuse non-zero
// seeds: a trace is one recorded run, and silently replaying it with a
// different memory image would un-pin the very bytes it pins.
func GetSeeded(name string, seed uint64) (gpusim.Workload, error) {
	if path, ok := strings.CutPrefix(name, "trace:"); ok {
		if seed != 0 {
			return nil, fmt.Errorf("workload: %s: trace replays are seedless (recorded runs); got seed %d", name, seed)
		}
		return trace.OpenReplay(name, path)
	}
	if s, ok := registry[name]; ok {
		return NewBenchSeeded(s, seed)
	}
	return nil, fmt.Errorf("workload: unknown benchmark %q (have %v)", name, Names())
}

// Check reports whether Get would instantiate name, with Get's error
// when it would not. A registered name is a map lookup that builds
// nothing; anything else goes through Get, so a `trace:` file is opened
// and validated as its run would open it. Servers call it to refuse a
// request before queueing it.
func Check(name string) error {
	if _, ok := registry[name]; ok {
		return nil
	}
	_, err := Get(name)
	return err
}

// MustGet is Get for tests and static tables.
func MustGet(name string) gpusim.Workload {
	b, err := Get(name)
	if err != nil {
		panic(err)
	}
	return b
}

// Cursor returns a copy of the per-warp instruction counters — the
// benchmark's only mutable state. Together with (name, seed) it fully
// determines the remaining instruction stream, which is what makes a
// parked run resumable: gpusim checkpoints the cursor and restores it
// with RestoreCursor.
func (b *Bench) Cursor() []uint64 {
	out := make([]uint64, len(b.step))
	copy(out, b.step)
	return out
}

// RestoreCursor replaces the per-warp instruction counters with a
// checkpointed cursor. The cursor must match the benchmark's warp count.
func (b *Bench) RestoreCursor(cur []uint64) error {
	if len(cur) != len(b.step) {
		return fmt.Errorf("workload %s: cursor has %d warps, benchmark has %d",
			b.spec.Name, len(cur), len(b.step))
	}
	copy(b.step, cur)
	return nil
}
