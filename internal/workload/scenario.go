package workload

import (
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/gpusim"
	"github.com/plutus-gpu/plutus/internal/valmodel"
)

// The scenario corpus: deterministic generators modelling deployment
// shapes the paper's single-kernel benchmarks cannot reach —
// DNN-inference serving, multi-tenant interleaving, phase-changing
// kernels, and attacks mounted under bandwidth load. Each scenario is a
// registry Spec whose generator replaces the suite's pattern fields;
// SuiteNames leaves them out, so adding one never moves a pinned
// figure. They are the intended capture sources for the trace corpus
// (`tracegen -bench scn-dnn-infer`).

func init() {
	// 24 warps keep captures and the parallel determinism sweep cheap
	// while still exercising every partition.
	register(Spec{
		Name:  "scn-dnn-infer",
		Desc:  "DNN inference serving: layer-phased streaming weight reads with activation write-back, shrinking working set per layer",
		Warps: 24, InstsPerWarp: 2400,
		// Weights: heavy zero/near-zero fraction (pruned+quantised
		// nets), a hot pool of repeated quantised values with jitter.
		Values: ValueProfile{ZeroFrac: 0.35, PoolFrac: 0.40, PoolSize: 48, Jitter: true},
		gen:    genDNNInfer,
	})
	register(Spec{
		Name:  "scn-multitenant",
		Desc:  "Multi-tenant interleaving: four tenants in disjoint address spaces with per-tenant access patterns sharing one device",
		Warps: 24, InstsPerWarp: 2400,
		Values: ValueProfile{ZeroFrac: 0.20, PoolFrac: 0.25, PoolSize: 64, Jitter: true},
		gen:    genMultiTenant,
	})
	register(Spec{
		Name:  "scn-phase",
		Desc:  "Phase-changing kernel: alternating memory-bound streaming, compute-bound, and random-gather phases",
		Warps: 24, InstsPerWarp: 2400,
		Values: ValueProfile{ZeroFrac: 0.25, PoolFrac: 0.30, PoolSize: 32},
		gen:    genPhase,
	})
	register(Spec{
		Name:  "scn-attackload",
		Desc:  "Attack under load: streaming victim traffic saturating bandwidth while probe warps hammer a small window with stores",
		Warps: 24, InstsPerWarp: 2400,
		Values: ValueProfile{ZeroFrac: 0.30, PoolFrac: 0.35, PoolSize: 64, Jitter: true},
		gen:    genAttackLoad,
	})
}

// --- generators ---
//
// Shared helpers keep the generators pure in (seed, warp, step); all
// randomness flows through valmodel.Hash2 so a scenario's stream is one
// bit-stable function of its seed.

// coalesced emits n contiguous 4-byte thread addresses starting at base.
func coalesced(base uint64, n int) []geom.Addr {
	out := make([]geom.Addr, 0, n)
	for t := 0; t < n; t++ {
		out = append(out, geom.Addr(base+uint64(t*4)%geom.BlockSize))
	}
	return out
}

// genDNNInfer models one inference request stream: the per-warp stream
// walks eight layers; each layer streams its weight matrix (shrinking
// geometrically, as conv stacks do), re-reads the previous layer's
// activations, and writes this layer's activations.
func genDNNInfer(seed uint64, w int, step uint64) gpusim.Inst {
	// All addresses stay below 256 MiB: the scaled GPU protects
	// 128 MiB per partition (1 GiB global), and scenarios must fit the
	// same space the suite footprints do.
	const (
		layers    = 8
		layerLen  = 300 // steps per layer (InstsPerWarp / layers)
		weightsAt = uint64(0)
		actsAt    = uint64(160) << 20 // activations live above the weights
	)
	layer := step / layerLen % layers
	lstep := step % layerLen
	h := valmodel.Hash2(seed, uint64(w)<<32|step)

	// Layer l's weight slab: 16 MiB >> l, laid out back to back.
	slab := uint64(16<<20) >> layer
	if slab < geom.BlockSize*64 {
		slab = geom.BlockSize * 64
	}
	slabBase := weightsAt + layer*(16<<20)

	switch {
	case h%10 < 2:
		// 20% compute (MAC bursts between loads).
		return gpusim.Inst{Kind: gpusim.Compute, Cycles: 2 + int(h>>8%3)}
	case h%10 < 8:
		// 60% weight/activation loads, fully coalesced streaming.
		var base uint64
		if h>>16%4 == 0 {
			// Re-read previous layer's activations (small, hot).
			base = actsAt + layer<<22 + (uint64(w)+lstep)*geom.BlockSize%(1<<20)
		} else {
			base = slabBase + (uint64(w)+lstep*24)*geom.BlockSize%slab
		}
		return gpusim.Inst{Kind: gpusim.Load, Addrs: coalesced(base, 32)}
	default:
		// 20% activation write-back for the next layer.
		base := actsAt + (layer+1)<<22 + (uint64(w)+lstep)*geom.BlockSize%(1<<20)
		return gpusim.Inst{Kind: gpusim.Store, Addrs: coalesced(base, 32)}
	}
}

// genMultiTenant interleaves four tenants in disjoint 256 MiB address
// spaces: tenant 0 streams, 1 strides, 2 gathers uniformly, 3 hammers a
// skewed hot region — so one device mixes the metadata-cache best and
// worst cases the paper separates, in a single run.
func genMultiTenant(seed uint64, w int, step uint64) gpusim.Inst {
	tenant := uint64(w % 4)
	space := tenant << 26 // 64 MiB per tenant, 256 MiB total
	fp := uint64(32 * mib)
	h := valmodel.Hash2(seed^tenant, uint64(w)<<32|step)

	if h%10 < 3 {
		return gpusim.Inst{Kind: gpusim.Compute, Cycles: 1 + int(h>>8%4)}
	}
	kind := gpusim.Load
	if h>>4%10 < 3 {
		kind = gpusim.Store
	}
	switch tenant {
	case 0: // streaming
		base := space + (uint64(w/4)+step*6)*geom.BlockSize%fp
		return gpusim.Inst{Kind: kind, Addrs: coalesced(base, 32)}
	case 1: // strided
		base := space + (uint64(w/4)*geom.BlockSize+step*8*geom.BlockSize)%fp
		return gpusim.Inst{Kind: kind, Addrs: coalesced(base, 32)}
	case 2: // uniform gather, partially coalesced
		out := make([]geom.Addr, 0, 16)
		for t := 0; t < 16; t++ {
			g := valmodel.Hash2(h, uint64(t/8))
			sector := g % (fp / geom.SectorSize)
			out = append(out, geom.Addr(space+sector*geom.SectorSize+uint64(t%8)*4))
		}
		return gpusim.Inst{Kind: kind, Addrs: out}
	default: // skewed scatter: 1/3 of touches in a hot 512 KiB
		out := make([]geom.Addr, 0, 16)
		for t := 0; t < 16; t++ {
			g := valmodel.Hash2(h, uint64(t))
			region := fp
			if g%3 == 0 {
				region = 512 << 10
			}
			sector := (g >> 8) % (region / geom.SectorSize)
			out = append(out, geom.Addr(space+sector*geom.SectorSize+(g>>40&7)*4))
		}
		return gpusim.Inst{Kind: kind, Addrs: out}
	}
}

// genPhase cycles every 128 steps through a memory-bound streaming
// phase, a compute-bound phase, and a random-gather phase — the shape
// that defeats static provisioning and exercises Plutus's behaviour
// across sharp bandwidth-demand transitions.
func genPhase(seed uint64, w int, step uint64) gpusim.Inst {
	const phaseLen = 128
	phase := step / phaseLen % 3
	fp := uint64(64 * mib)
	h := valmodel.Hash2(seed^phase, uint64(w)<<32|step)

	switch phase {
	case 0: // memory-bound streaming: 85% memory, mostly loads
		if h%20 < 3 {
			return gpusim.Inst{Kind: gpusim.Compute, Cycles: 1}
		}
		kind := gpusim.Load
		if h>>4%10 < 2 {
			kind = gpusim.Store
		}
		base := (uint64(w) + step*24) * geom.BlockSize % fp
		return gpusim.Inst{Kind: kind, Addrs: coalesced(base, 32)}
	case 1: // compute-bound: 15% memory, long compute ops
		if h%20 < 17 {
			return gpusim.Inst{Kind: gpusim.Compute, Cycles: 4 + int(h>>8%8)}
		}
		base := (uint64(w) + step) * geom.BlockSize % fp
		return gpusim.Inst{Kind: gpusim.Load, Addrs: coalesced(base, 32)}
	default: // random gather, write-heavy (40% stores)
		if h%20 < 6 {
			return gpusim.Inst{Kind: gpusim.Compute, Cycles: 2}
		}
		kind := gpusim.Load
		if h>>4%10 < 4 {
			kind = gpusim.Store
		}
		out := make([]geom.Addr, 0, 16)
		for t := 0; t < 16; t++ {
			g := valmodel.Hash2(h, uint64(t/4))
			sector := g % (fp / geom.SectorSize)
			out = append(out, geom.Addr(sector*geom.SectorSize+uint64(t%4)*8))
		}
		return gpusim.Inst{Kind: kind, Addrs: out}
	}
}

// genAttackLoad pairs saturating victim traffic with probe warps: the
// last four warps hammer a 1 MiB window with uncoalesced single-word
// stores and re-reads (a replay/rollback probe pattern), while the rest
// stream at full bandwidth so integrity checks happen under contention
// — the regime where lazy verification windows are widest.
func genAttackLoad(seed uint64, w int, step uint64) gpusim.Inst {
	const window = uint64(1 << 20) // probed window
	fp := uint64(128 * mib)
	h := valmodel.Hash2(seed, uint64(w)<<32|step)

	if w >= 20 { // probe warps
		if h%10 < 1 {
			return gpusim.Inst{Kind: gpusim.Compute, Cycles: 1}
		}
		kind := gpusim.Store
		if h>>4%2 == 0 {
			kind = gpusim.Load // immediately re-probe what was written
		}
		out := make([]geom.Addr, 0, 8)
		for t := 0; t < 8; t++ {
			g := valmodel.Hash2(h, uint64(t))
			out = append(out, geom.Addr(g%(window/4)*4))
		}
		return gpusim.Inst{Kind: kind, Addrs: out}
	}
	// Victim warps: coalesced streaming at ~90% memory intensity.
	if h%10 < 1 {
		return gpusim.Inst{Kind: gpusim.Compute, Cycles: 1}
	}
	kind := gpusim.Load
	if h>>4%10 < 2 {
		kind = gpusim.Store
	}
	base := window + (uint64(w)+step*20)*geom.BlockSize%(fp-window)
	return gpusim.Inst{Kind: kind, Addrs: coalesced(base, 32)}
}
