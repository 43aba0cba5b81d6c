package secmem

import (
	"fmt"

	"github.com/plutus-gpu/plutus/internal/checkpoint"
	"github.com/plutus-gpu/plutus/internal/geom"
)

// Codec walks the engine's complete mutable state: the functional DRAM
// image (ciphertexts and MACs), the stale-MAC / tamper / replay /
// region write-tracking sets, then every part the composition holds, in
// one fixed order: share versions, derived versions, the split counters,
// the original counter region with the MAC cache, the compact region,
// and the value cache. Dense stores are walked in ascending index order
// (and the one remaining map in sorted key order) so identical state is
// identical bytes. Every index is bounded by the engine's geometry: data
// sectors (times the share count, for the share-scattered image),
// counter units, common-counter regions, or tree node addresses.
//
// The engine must be quiescent — no in-flight datapath requests and no
// fetches parked on MSHR exhaustion — because those hold closures that
// cannot be serialized; snapshots are taken at drained epoch boundaries.
// Scratch state (overflowPlain, hashScratch, the run buffers) is dead
// between drained epochs and is deliberately not captured. Decoding
// expects an engine freshly built from the same configuration, and
// leaves its runtime wiring — the DRAM channel, stats sink, InitData
// hook, and the split store's OnOverflow callback — exactly as New
// installed it.
func (e *Engine) Codec(c *checkpoint.Codec) {
	if e.pending != 0 || e.mshrWait.Len() != 0 {
		c.Fail(fmt.Errorf("secmem: %d pending requests, %d MSHR waiters: %w",
			e.pending, e.mshrWait.Len(), checkpoint.ErrNotQuiescent))
	}
	sectors := e.cfg.ProtectedBytes / geom.SectorSize
	slots := sectors
	if e.shares != nil {
		slots *= uint64(e.cfg.SSMShares)
	}
	e.mem.Walk(c, slots)
	e.macsSet.Walk(c, sectors, 8, func(i uint64) {
		mac := e.macs.Get(i)
		c.U64(&mac)
		e.macs.Set(i, mac)
	})
	e.macStale.WalkSet(c, sectors)
	e.taintData.WalkSet(c, sectors)
	e.taintMeta.WalkSet(c, sectors)
	e.ctr.replayed.WalkSet(c, e.ctr.units())
	e.cctr.replayed.WalkSet(c, e.cctr.units())
	var treeEnd geom.Addr
	if e.ctr.tree != nil {
		treeEnd = e.ctr.treeBase + geom.Addr(e.ctr.tree.StorageBytes())
	}
	checkpoint.Map(c, &e.bmtTampered, treeEnd, 1, (*checkpoint.Codec).Bool)
	region := uint64(e.cfg.CommonRegionBytes)
	e.regionWritten.WalkSet(c, (e.cfg.ProtectedBytes+region-1)/region)

	if e.shares != nil {
		e.shares.Codec(c, sectors)
	}
	if e.derived != nil {
		e.derived.Codec(c, sectors)
	}
	if e.split != nil {
		e.split.Codec(c, sectors)
	}
	if e.ctr.tree != nil {
		e.ctr.tree.Codec(c)
	}
	if e.ctr.cache != nil {
		e.ctr.cache.Codec(c)
	}
	if e.macCache != nil {
		e.macCache.Codec(c)
	}
	if e.ctr.treeCache != nil {
		e.ctr.treeCache.Codec(c)
	}
	if e.compact != nil {
		e.compact.Codec(c, sectors)
	}
	if e.cctr.tree != nil {
		e.cctr.tree.Codec(c)
	}
	if e.cctr.cache != nil {
		e.cctr.cache.Codec(c)
	}
	if e.cctr.treeCache != nil {
		e.cctr.treeCache.Codec(c)
	}
	if e.vcache != nil {
		e.vcache.Codec(c)
	}
}
