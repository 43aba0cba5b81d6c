package secmem

// The derived version source, VersionsDerived (the mgx frontier scheme;
// PAPERS.md: "MGX: Near-Zero Overhead Memory Protection for
// Data-Intensive Accelerators"): instead of fetching encryption counters
// from DRAM, version numbers for sectors on regular write streams are
// derived deterministically from the access pattern the workload itself
// declares. The controller keeps the derived versions on-chip (they are
// a pure function of the stream cursor, so real hardware regenerates
// rather than stores them); no counter fetch, no tree walk, no freshness
// traffic. Sectors written outside any declared stream fall back to the
// stored split-counter + BMT path — the fallback is the unmodified
// Plutus-baseline machinery.
//
// The source needs one bit of application knowledge: whether an address
// sits on a regular stream. That is the secmem↔workload contract below
// (StreamCursorSource), wired through Engine.StreamHint by the
// embedding GPU exactly like the InitData hook.

import (
	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/dense"
	"github.com/plutus-gpu/plutus/internal/geom"
)

// StreamCursorSource is the workload side of the mgx contract: a
// workload that can map a global address onto one of its regular write
// streams returns the stream's cursor and ok=true; addresses off every
// stream return ok=false. The interface is satisfied structurally
// (workload does not import secmem).
type StreamCursorSource interface {
	StreamCursor(addr geom.Addr) (stream uint64, ok bool)
}

// derivedVersions is the derived version source's on-chip state.
type derivedVersions struct {
	// onStream marks sectors classified onto a regular stream: their
	// versions come from ver, never from the split store.
	onStream dense.Bitmap
	// irregular marks sectors classified off-stream (stored-counter
	// fallback); classification is sticky first-touch (see
	// classifyDerived).
	irregular dense.Bitmap
	// ver holds the on-chip derived version of every on-stream sector.
	ver dense.U64
}

// has reports whether sector i runs on a derived version; false for an
// engine without the derived source.
//
//simlint:hotpath
func (d *derivedVersions) has(i uint64) bool {
	return d != nil && d.onStream.Get(i)
}

// bump advances a derived sector's on-chip version (the analogue of
// bumpCounter; derived sectors never touch the split store, so
// stored-counter overflow handling does not apply to them).
func (d *derivedVersions) bump(i uint64) {
	d.ver.Set(i, d.ver.Get(i)+1)
}

// Codec walks the classification sets, then every on-stream sector's
// version. sectors bounds the sector indices a walk decodes.
func (d *derivedVersions) Codec(c *checkpoint.Codec, sectors uint64) {
	d.onStream.WalkSet(c, sectors)
	d.irregular.WalkSet(c, sectors)
	d.onStream.ForEach(func(i uint64) {
		v := d.ver.Get(i)
		c.U64(&v)
		d.ver.Set(i, v)
	})
}

// counterOf returns sector i's effective encryption counter: the
// on-chip derived version for derived sectors, the split-counter value
// for everything else. Every functional-datapath counter use goes
// through this helper so the two version domains can never mix.
//
//simlint:hotpath
func (e *Engine) counterOf(i uint64) uint64 {
	if e.derived.has(i) {
		return e.derived.ver.Get(i)
	}
	return e.split.Value(i)
}

// classifyDerived decides — sticky, on first touch — whether sector i
// rides a derived version stream. A sector once classified never
// migrates: versions must be monotone within one domain, and real
// hardware could not re-derive a version history that started in the
// other domain. With no stream hint wired, every sector is irregular and
// the source degrades to plain stored counters.
func (e *Engine) classifyDerived(i uint64, local geom.Addr) bool {
	d := e.derived
	if d.onStream.Get(i) {
		return true
	}
	if d.irregular.Get(i) {
		return false
	}
	if e.StreamHint != nil {
		if _, ok := e.StreamHint(local); ok {
			d.onStream.Set(i)
			return true
		}
	}
	d.irregular.Set(i)
	return false
}

// SkewDerivedVersion desynchronizes sector local's derived version from
// its stored ciphertext — the seeded-mutation probe for the oracle's CI
// gate: a version-derivation bug must surface as a MAC mismatch on the
// next read, never as silent corruption. Returns false when the sector
// is not derived (nothing to skew).
func (e *Engine) SkewDerivedVersion(local geom.Addr) bool {
	local = geom.SectorAddr(local)
	i := e.sectorIdx(local)
	if !e.derived.has(i) {
		return false
	}
	e.materialize(local) // pin the ciphertext under the current version
	e.derived.bump(i)
	e.taintData.Set(i) // decryption under the skewed version is garbage
	e.st.Sec.TamperInjected++
	return true
}
