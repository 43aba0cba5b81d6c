package gpusim

import "github.com/plutus-gpu/plutus/internal/geom"

// InstKind classifies a warp instruction.
type InstKind int

const (
	// Compute occupies the warp for Inst.Cycles without memory activity.
	Compute InstKind = iota
	// Load reads memory; the warp stalls until every coalesced sector
	// responds.
	Load
	// Store writes memory; it retires immediately after issue (GPU
	// stores are fire-and-forget into the L2 write-back hierarchy).
	Store
)

// Inst is one warp instruction as produced by a workload.
type Inst struct {
	Kind InstKind
	// Cycles is the duration of a Compute instruction (min 1).
	Cycles int
	// Addrs are the per-thread byte addresses of a Load/Store; the
	// simulator coalesces them into 32 B sector requests.
	Addrs []geom.Addr
}

// Workload generates the instruction streams and data contents of one
// benchmark. Implementations live in the workload package; the interface
// is defined here so the simulator has no dependency on them.
//
// Concurrency contract: Next and StoreValue are only ever called from
// the SM shard and may keep per-warp state, but MemValue must be safe
// for concurrent calls and depend only on its argument — with
// Config.Workers > 1 partition shards lazily materialize their memory
// images through MemValue from several goroutines at once. All
// implementations in this repo derive MemValue from a pure hash.
type Workload interface {
	// Name identifies the benchmark in reports.
	Name() string
	// Warps is the total warp count (distributed round-robin over SMs).
	Warps() int
	// Next produces warp w's next instruction; ok=false retires the warp.
	// inst.Addrs may alias a buffer the workload reuses: it stays valid
	// until the next call of Next for the same warp, so a caller that
	// keeps the addresses longer copies them.
	Next(w int) (inst Inst, ok bool)
	// MemValue gives the initial 32-bit plaintext at global address addr
	// (addr is 4-byte aligned). This defines the device memory image and
	// hence the value-locality profile the paper's Fig. 9 studies.
	// It must be pure (see the interface comment).
	MemValue(addr geom.Addr) uint32
	// StoreValue gives the value warp w stores at addr (4-byte aligned).
	StoreValue(w int, addr geom.Addr) uint32
	// Cursor returns a copy of the per-warp stream positions: the
	// complete mutable state of a deterministic instruction stream, so
	// checkpointing it with the simulator state captures the whole run.
	Cursor() []uint64
	// RestoreCursor rewinds the stream to a previously captured cursor.
	RestoreCursor([]uint64) error
}
