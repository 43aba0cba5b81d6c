// Package dram models one memory partition's DRAM channel: banked, with
// row-buffer locality, a shared data bus, and 32 B transaction
// granularity (the sector size — in Volta-class GPUs sectors can be read
// and written independently even though a full 128 B block is reserved in
// the cache).
//
// The model is deliberately simple but captures the two effects the paper
// depends on: (1) every security-metadata transaction competes with demand
// data for the same partition bus, so metadata overhead translates into
// queueing delay for everything, and (2) row-buffer locality makes regular
// streams cheaper than scattered metadata fetches.
//
// The data bus is tracked in quarter-core-cycles so that the
// 868 GB/s ÷ 32 partitions ÷ 1132 MHz ≈ 24 B/core-cycle Volta bandwidth
// can be approximated without integer-cycle rounding error.
package dram

import (
	"fmt"

	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/sim"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// Config fixes one partition channel's organization and timing (all
// latencies in core cycles at 1132 MHz).
type Config struct {
	Banks    int
	RowBytes int // bytes covered by one open row per bank

	TRCD sim.Cycle // activate → column command
	TRP  sim.Cycle // precharge
	TCL  sim.Cycle // column access latency
	TCCD sim.Cycle // min gap between column commands on one bank

	// BusQuarterCycles is the data-bus occupancy of one 32 B transaction
	// in quarter core-cycles (5 ≈ 1.25 cycles ≈ 25.6 B/cycle, close to
	// Volta's per-partition 24 B/cycle).
	BusQuarterCycles int
}

// DefaultConfig returns Volta/HBM2-like timings: 32 banks per partition
// channel (16 banks × 2 bank-group interleave), 2 KiB rows.
func DefaultConfig() Config {
	return Config{
		Banks:            32,
		RowBytes:         2048,
		TRCD:             16,
		TRP:              16,
		TCL:              16,
		TCCD:             2,
		BusQuarterCycles: 5,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Banks < 1 || c.RowBytes < geom.SectorSize || c.BusQuarterCycles < 1 {
		return fmt.Errorf("dram: invalid config %+v", c)
	}
	return nil
}

type bank struct {
	freeAt  sim.Cycle
	openRow uint64
	hasRow  bool
}

// Channel is one partition's DRAM channel.
type Channel struct {
	//simlint:ignore snapsym configuration, not mutable state
	cfg Config
	//simlint:ignore snapsym construction wiring, rebuilt by New
	eng   *sim.Engine
	banks []bank
	// busFreeQ is when the shared data bus frees, in quarter-cycles.
	busFreeQ uint64

	// Traffic is where transactions are accounted (shared with the
	// partition's other components).
	//simlint:ignore snapsym shared accounting wiring; the stats shard snapshots itself
	Traffic *stats.Traffic

	// RowHits / RowMisses measure row-buffer locality.
	RowHits, RowMisses uint64
}

// New builds a channel on engine eng, accounting into tr.
func New(cfg Config, eng *sim.Engine, tr *stats.Traffic) (*Channel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Channel{cfg: cfg, eng: eng, banks: make([]bank, cfg.Banks), Traffic: tr}, nil
}

// MustNew is New for static configuration.
func MustNew(cfg Config, eng *sim.Engine, tr *stats.Traffic) *Channel {
	ch, err := New(cfg, eng, tr)
	if err != nil {
		panic(err)
	}
	return ch
}

// Config returns the channel's configuration.
func (c *Channel) Config() Config { return c.cfg }

// The address mapping interleaves banks at row granularity: consecutive
// addresses within one 2 KiB row share a bank (so block-sized fetches are
// row hits after the first sector), and consecutive rows rotate across
// banks (so streams exploit bank-level parallelism).
func (c *Channel) bankOf(local geom.Addr) int {
	r := uint64(local) / uint64(c.cfg.RowBytes)
	// XOR-swizzle upper row bits into the bank selector so hot regions
	// (e.g. upper integrity-tree levels) spread across banks.
	return int(r^(r/uint64(c.cfg.Banks))) % c.cfg.Banks
}

func (c *Channel) rowOf(local geom.Addr) uint64 {
	return uint64(local) / uint64(c.cfg.RowBytes) / uint64(c.cfg.Banks)
}

// BankRow exposes the address mapping: the bank and in-bank row that
// local falls in. The tamper subsystem logs it per injected fault so
// attack placement over the physical layout is auditable in tests.
func (c *Channel) BankRow(local geom.Addr) (bank int, row uint64) {
	return c.bankOf(local), c.rowOf(local)
}

// Access issues one 32 B transaction at partition-local address local and
// schedules done (nullable) at its completion. It returns the completion
// cycle. Transactions are accounted to class cl.
func (c *Channel) Access(local geom.Addr, write bool, cl stats.Class, done func()) sim.Cycle {
	if c.Traffic != nil {
		if write {
			c.Traffic.AddWrite(cl, geom.SectorSize)
		} else {
			c.Traffic.AddRead(cl, geom.SectorSize)
		}
	}

	now := c.eng.Now()
	b := &c.banks[c.bankOf(local)]
	row := c.rowOf(local)

	start := now
	if b.freeAt > start {
		start = b.freeAt
	}
	var rowDelay sim.Cycle
	switch {
	case b.hasRow && b.openRow == row:
		c.RowHits++
	case !b.hasRow:
		// Bank precharged: only the activation is on the path.
		c.RowMisses++
		rowDelay = c.cfg.TRCD
		b.openRow, b.hasRow = row, true
	default:
		// Row conflict: precharge then activate.
		c.RowMisses++
		rowDelay = c.cfg.TRP + c.cfg.TRCD
		b.openRow = row
	}
	colReady := start + rowDelay

	// The data transfer needs the shared bus; serialize in quarter-cycles.
	busStartQ := uint64(colReady+c.cfg.TCL) * 4
	if c.busFreeQ > busStartQ {
		busStartQ = c.busFreeQ
	}
	c.busFreeQ = busStartQ + uint64(c.cfg.BusQuarterCycles)

	finish := sim.Cycle((c.busFreeQ + 3) / 4)
	// The bank accepts its next column command tCCD after this one, for
	// reads and writes alike: write recovery (tWR) and read/write bus
	// turnaround are not modelled, so write only selects the traffic
	// counter above.
	b.freeAt = colReady + c.cfg.TCCD

	if done != nil {
		c.eng.Schedule(finish-now, done)
	}
	return finish
}

// Utilization returns the fraction of elapsed time the data bus has been
// busy (an upper-bound style estimate: busFreeQ relative to now).
func (c *Channel) Utilization() float64 {
	now := uint64(c.eng.Now()) * 4
	if now == 0 {
		return 0
	}
	busy := uint64(0)
	if c.Traffic != nil {
		busy = c.Traffic.Transactions() * uint64(c.cfg.BusQuarterCycles)
	}
	u := float64(busy) / float64(now)
	if u > 1 {
		u = 1
	}
	return u
}
