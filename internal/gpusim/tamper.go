package gpusim

// Fault-injection plumbing: the GPU carries an armed schedule of tamper
// operations (built by internal/tamper from a parsed plan) and applies
// each one at the first deterministic epoch boundary at or after its
// due cycle. Boundaries fall between conservative PDES windows, when no
// shard goroutine is running, so mutating a partition's DRAM-resident
// state from the main loop is race-free and lands at exactly the same
// point of the event order in sequential and parallel execution — which
// is what makes attacked runs replay byte-identically.

import (
	"fmt"
	"sort"

	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/secmem"
)

// TamperOp is one armed fault injection.
type TamperOp struct {
	// Cycle is the earliest simulated cycle the op may apply at; it
	// lands at the first epoch boundary at or after Cycle (or at end of
	// run if the budget expires first, so the injected-op ground truth
	// never depends on how far the workload got).
	Cycle uint64
	// Kind names the attack class.
	Kind string
	// Global is the attacked global sector address.
	Global geom.Addr
	// Src is the splice-source global address; meaningful only when
	// HasSrc is set. It must map to the same partition as Global — the
	// attacker swaps bytes within one physical module.
	Src    geom.Addr
	HasSrc bool
	// Apply mutates the owning partition's DRAM-resident state through
	// the secmem attack primitives; both addresses arrive pre-translated
	// to partition-local. srcLocal is zero unless HasSrc.
	Apply func(sec *secmem.Engine, local, srcLocal geom.Addr)
}

// ArmTamper installs the fault-injection schedule. Ops must be sorted
// by Cycle (the tamper expander emits them sorted; ties keep plan
// order). Arming replaces any previous schedule but preserves an
// applied-prefix count restored from a snapshot, so re-arming the same
// plan on a resumed run skips the ops the snapshot already contains.
func (g *GPU) ArmTamper(ops []TamperOp) {
	if !sort.SliceIsSorted(ops, func(a, b int) bool { return ops[a].Cycle < ops[b].Cycle }) {
		panic("gpusim: tamper ops not sorted by cycle")
	}
	g.tamperOps = ops
	if g.tamperApplied > len(ops) {
		g.tamperApplied = len(ops)
	}
}

// applyDueTamper applies every unapplied op due at or before the
// current epoch boundary; force applies the whole remainder (end of
// run). Must only run between windows, when all shards are parked.
func (g *GPU) applyDueTamper(force bool) {
	now := uint64(g.cluster.LastEventAt())
	for g.tamperApplied < len(g.tamperOps) {
		op := g.tamperOps[g.tamperApplied]
		if !force && op.Cycle > now {
			return
		}
		pi := g.il.Partition(op.Global)
		p := g.parts[pi]
		local := g.il.LocalAddr(op.Global)
		var srcLocal geom.Addr
		if op.HasSrc {
			if sp := g.il.Partition(op.Src); sp != pi {
				panic(fmt.Sprintf("gpusim: tamper op %d splices across partitions (src %#x in %d, dst %#x in %d)",
					g.tamperApplied, uint64(op.Src), sp, uint64(op.Global), pi))
			}
			srcLocal = g.il.LocalAddr(op.Src)
		}
		if op.Apply != nil {
			op.Apply(p.sec, local, srcLocal)
		}
		g.tamperApplied++
	}
}
