// Package valmodel defines the hash-derived value model shared by the
// synthetic workload suite, the scenario corpus, and trace replay: a
// seed plus a value profile (zero fraction, hot-pool fraction and size,
// near-value jitter) from which every 32-bit word of the memory image
// and every stored value is derived purely.
//
// The model is the unit of value fidelity for traces: a PLTR file
// embeds the source workload's Model in its header, so a replayed run
// regenerates the exact memory image and store stream of the capture —
// the property the round-trip tests pin byte for byte. The functions
// here are the single definition of that math; workload.Bench delegates
// to it, so a model extracted from a benchmark and one decoded from a
// trace header can never drift apart.
package valmodel

import (
	"math"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/geom"
)

// Splitmix64 is the deterministic hash behind all generator decisions.
func Splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash2 combines two words into one hash point.
func Hash2(a, b uint64) uint64 { return Splitmix64(a*0x9e3779b97f4a7c15 ^ Splitmix64(b)) }

// Salts separating the memory-image and store-value hash domains. These
// are part of the trace format: changing either breaks replay fidelity
// for existing traces and requires a format version bump.
const (
	memSalt   = 0xDA7A
	storeSalt = 0x5708E
)

// Model fully determines a workload's data contents: the initial memory
// image (MemValue) and the stored-value stream (StoreValue).
type Model struct {
	// Seed is the workload's derived seed (name hash, optionally
	// perturbed; see workload.NewBenchSeeded).
	Seed uint64
	// ZeroFrac is the fraction of 32-bit words that are zero.
	ZeroFrac float64
	// PoolFrac is the fraction drawn from a small pool of hot values
	// (on top of ZeroFrac).
	PoolFrac float64
	// PoolSize is the hot-pool cardinality; zero disables the pool.
	PoolSize uint32
	// Jitter, when true, perturbs the low 4 bits of pool values — the
	// near-value case the paper's masked matching captures.
	Jitter bool
}

// Modeler is implemented by workloads whose values derive from a Model;
// trace capture embeds the model in the trace header so replay
// reproduces the source run's values exactly.
type Modeler interface {
	ValueModel() Model
}

// ValueAt derives a 32-bit value from the profile at a hash point.
func (m Model) ValueAt(h uint64) uint32 {
	r := float64(h%10000) / 10000
	switch {
	case r < m.ZeroFrac:
		return 0
	case r < m.ZeroFrac+m.PoolFrac && m.PoolSize > 0:
		v := uint32(Hash2(m.Seed, (h>>32)%uint64(m.PoolSize))) &^ 0xf
		if m.Jitter {
			v |= uint32(h>>48) & 0xf
		}
		return v
	default:
		return uint32(Splitmix64(h) | 1)
	}
}

// MemValue gives the initial memory image's 32-bit word at addr
// (4-byte aligned). Pure in addr, so it satisfies the gpusim.Workload
// concurrency contract for MemValue.
func (m Model) MemValue(addr geom.Addr) uint32 {
	return m.ValueAt(Hash2(m.Seed^memSalt, uint64(addr)/4))
}

// StoreValue gives the value warp w stores at addr (4-byte aligned);
// stored values follow the same profile as the image.
func (m Model) StoreValue(w int, addr geom.Addr) uint32 {
	return m.ValueAt(Hash2(m.Seed^storeSalt, uint64(addr)/4^uint64(w)<<52))
}

// Codec walks the model's fixed field order. Floats travel as IEEE-754
// bit patterns, so identical models are identical bytes.
func (m *Model) Codec(c *checkpoint.Codec) {
	c.U64(&m.Seed)
	walkFloat(c, &m.ZeroFrac)
	walkFloat(c, &m.PoolFrac)
	c.U32(&m.PoolSize)
	c.Bool(&m.Jitter)
}

func walkFloat(c *checkpoint.Codec, p *float64) {
	bits := math.Float64bits(*p)
	c.U64(&bits)
	*p = math.Float64frombits(bits)
}
