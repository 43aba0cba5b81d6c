// Package gpusim is the cycle-driven GPU memory-system simulator the
// reproduction uses in place of GPGPU-Sim: streaming multiprocessors
// (SMs) whose warps issue coalesced loads and stores, a sectored L2 cache
// per memory partition, and per-partition secure-memory engines over a
// banked DRAM model.
//
// The SM model captures what matters for the paper's analysis — massive
// latency tolerance via warp multiplexing and an issue-bandwidth-bounded
// instruction stream — while the memory system below L2 is modelled in
// detail, because all of Plutus's effects are memory-system effects:
// security metadata competes with demand data for DRAM bandwidth, and
// IPC of memory-intensive kernels tracks that contention.
package gpusim

import (
	"fmt"

	"github.com/plutus-gpu/plutus/internal/dram"
	"github.com/plutus-gpu/plutus/internal/secmem"
	"github.com/plutus-gpu/plutus/internal/sim"
)

// Config describes the simulated GPU.
type Config struct {
	// SMs is the streaming-multiprocessor count (Volta: 80).
	SMs int
	// WarpsPerSM is the resident warp contexts per SM (Volta: 64).
	WarpsPerSM int
	// IssueWidth is warp instructions issued per SM per cycle.
	IssueWidth int
	// MaxPendingLoads is the number of load instructions one warp may
	// have in flight before stalling (intra-warp memory-level
	// parallelism; Volta sustains several).
	MaxPendingLoads int

	// Partitions is the memory partition count (power of two; Volta: 32).
	Partitions int
	// L2PerPartition is the L2 capacity per partition in bytes
	// (Volta: 2 banks × 96 KiB = 192 KiB).
	L2PerPartition int
	// L2Ways is L2 associativity.
	L2Ways int
	// L2MSHRs bounds outstanding L2 misses per partition.
	L2MSHRs int
	// L2HitLatency is the L2 access latency in core cycles.
	L2HitLatency sim.Cycle
	// XbarLatency is the SM↔partition interconnect latency each way.
	XbarLatency sim.Cycle

	// DRAM configures each partition's channel.
	DRAM dram.Config

	// Sec configures each partition's secure-memory engine (the scheme
	// under evaluation). ProtectedBytes is interpreted per partition.
	Sec secmem.Config

	// MaxInstructions stops fetching new warp instructions after this
	// many have issued (0 = unlimited).
	MaxInstructions uint64

	// CheckpointEvery, when nonzero, drains the simulation to a quiescent
	// epoch boundary every time the clock passes another multiple of this
	// many cycles and hands a snapshot to the run's checkpoint sink (see
	// GPU.RunWithCheckpoints). Draining perturbs event timing relative to
	// a run with CheckpointEvery == 0 — but identically for every run with
	// the same value, which is exactly what makes a killed-and-resumed run
	// byte-identical to an uninterrupted run at the same cadence. 0
	// disables checkpointing.
	CheckpointEvery uint64

	// Workers is how many goroutines execute each lockstep window of the
	// sharded simulation: the SM front end and every memory partition are
	// shards, advancing in windows of the interconnect latency
	// (conservative PDES). ≤ 1 (the zero value) runs them sequentially,
	// the reference; more are capped at the shard count. Results are
	// bit-identical at any value: cross-shard messages are delivered in a
	// canonical order that does not depend on goroutine scheduling, and no
	// simulation state crosses partition boundaries. The harness sets it
	// to each run's share of the host's cores.
	Workers int
}

// DefaultVoltaConfig returns the paper's Table I configuration with the
// given security scheme. Simulations at full Volta scale are supported
// but slow; ScaledConfig is the usual choice for the benchmark harness.
func DefaultVoltaConfig(sec secmem.Config) Config {
	return Config{
		SMs:             80,
		WarpsPerSM:      64,
		IssueWidth:      1,
		MaxPendingLoads: 6,
		Partitions:      32,
		L2PerPartition:  192 * 1024,
		L2Ways:          24, // 64 sets of 128 B × 24 ways = 192 KiB

		L2MSHRs:      256,
		L2HitLatency: 34,
		XbarLatency:  20,
		DRAM:         dram.DefaultConfig(),
		Sec:          sec,
	}
}

// ScaledConfig returns a proportionally scaled-down GPU (fewer SMs and
// partitions, same per-partition ratios) that preserves the
// bandwidth-per-SM balance of Volta while simulating much faster. All
// relative results (scheme A vs. scheme B) are preserved because every
// scheme runs on the same substrate.
func ScaledConfig(sec secmem.Config) Config {
	c := DefaultVoltaConfig(sec)
	c.SMs = 20
	c.Partitions = 8
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.SMs < 1 || c.WarpsPerSM < 1 || c.IssueWidth < 1:
		return fmt.Errorf("gpusim: SM config invalid: %+v", c)
	case c.Partitions < 1 || c.Partitions&(c.Partitions-1) != 0:
		return fmt.Errorf("gpusim: partition count %d not a power of two", c.Partitions)
	case c.L2PerPartition < 1024:
		return fmt.Errorf("gpusim: L2 %d B too small", c.L2PerPartition)
	}
	return nil
}
