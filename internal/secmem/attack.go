package secmem

// Attack primitives: the tamper-injection surface driven by the
// internal/tamper fault injector, the differential-oracle tests, and the
// tamperdetect example. Each models a physical attacker mutating this
// partition's DRAM-resident state — data ciphertext, MACs, counters, or
// tree nodes — and records ground truth (data/metadata taint, injection
// counts) so the read path can classify outcomes into stats.Verdicts.
//
// The threat model is the paper's: the adversary owns the memory bus and
// modules but not the GPU die. Primitives therefore mutate only the
// functional DRAM image; on-chip state (the trees' authoritative hashes,
// the counter stores, cache contents) is untouchable. Where a cache
// holds a verified copy of an attacked block, the primitive invalidates
// it so the next access refetches from "DRAM" and re-verifies — the
// moment real hardware would detect the attack. Every primitive is a
// pure state mutation (no events, no randomness), so an attack applied
// at a deterministic point replays byte-identically.

import "github.com/plutus-gpu/plutus/internal/geom"

// markDataTainted records that sector local's DRAM data is mutated.
func (e *Engine) markDataTainted(local geom.Addr) {
	e.taintData.Set(e.sectorIdx(local))
	e.st.Sec.TamperInjected++
}

// TamperData flips one bit of sector local's stored ciphertext
// (plaintext under the no-security baseline). AES-XTS diffusion turns
// the single flipped bit into a ~uniformly random plaintext block.
func (e *Engine) TamperData(local geom.Addr, bit uint) {
	local = geom.SectorAddr(local)
	ct := e.materialize(local)
	ct[bit/8%geom.SectorSize] ^= 1 << (bit % 8)
	e.markDataTainted(local)
}

// TamperDataWord inverts one aligned 32-bit word of sector local's
// stored ciphertext (word counts modulo the 8 words per sector).
func (e *Engine) TamperDataWord(local geom.Addr, word uint) {
	local = geom.SectorAddr(local)
	ct := e.materialize(local)
	off := int(word) % (geom.SectorSize / 4) * 4
	for k := 0; k < 4; k++ {
		ct[off+k] ^= 0xff
	}
	e.markDataTainted(local)
}

// TamperSector inverts every byte of sector local's stored ciphertext.
func (e *Engine) TamperSector(local geom.Addr) {
	local = geom.SectorAddr(local)
	ct := e.materialize(local)
	for k := range ct {
		ct[k] ^= 0xff
	}
	e.markDataTainted(local)
}

// SpliceCiphertext overwrites dst's stored ciphertext with src's — the
// splice/relocation attack: ciphertext that is valid somewhere presented
// at the wrong address. Address-tweaked encryption decrypts it to noise;
// the no-security baseline silently returns src's data as dst's. Both
// addresses must be in this partition. Splicing a sector onto itself is
// the identity and is deliberately not counted as an injection.
func (e *Engine) SpliceCiphertext(dst, src geom.Addr) {
	dst, src = geom.SectorAddr(dst), geom.SectorAddr(src)
	if dst == src {
		return
	}
	ct := e.materialize(src)
	e.materialize(dst) // fix dst's legitimate MAC in the image first
	copy(e.mem.Put(e.sectorIdx(dst)), ct)
	e.markDataTainted(dst)
}

// TamperMAC corrupts sector local's stored MAC. The data itself stays
// authentic, so a value-cache accept of this sector is a correct accept
// — the paper's point that verified values make the MAC fetch, and
// hence its integrity, unnecessary.
func (e *Engine) TamperMAC(local geom.Addr) {
	local = geom.SectorAddr(local)
	e.materialize(local)
	if !e.cfg.HasDRAMMAC() {
		return // no MACs in memory to attack
	}
	i := e.sectorIdx(local)
	e.setMAC(i, e.macs.Get(i)^1)
	e.taintMeta.Set(i)
	e.st.Sec.TamperInjected++
}

// ReplayCounter models an attacker substituting the stale boot-image
// copy of sector local's counter unit in DRAM (a rollback to all-zero
// counters). The unit's recomputed hash then matches the initial state,
// not the tree's, so the next fetch fails freshness verification —
// unless the unit was never written, in which case the replay is the
// identity and correctly goes undetected. Schemes with compact mirrored
// counters have the covering compact unit rolled back too (the attacker
// replays the whole boot image).
func (e *Engine) ReplayCounter(local geom.Addr) {
	if !e.cfg.HasDRAMCounters() {
		return // no counters in memory to attack
	}
	i := e.sectorIdx(geom.SectorAddr(local))
	for _, r := range [...]*counterRegion{&e.ctr, &e.cctr} {
		if r.tree != nil {
			u := r.unitOf(i)
			r.replayed.Set(u)
			// Evict the unit so the next access must refetch and verify it.
			r.cache.Invalidate(r.unitAddr(u))
		}
	}
	e.st.Sec.TamperInjected++
}

// CorruptBMTNode corrupts the DRAM-resident tree node covering sector
// local's counter unit (the first non-root node on its verification
// path). The next fetch of that node fails verification against its
// parent. The no-security baseline has no tree to attack; under
// FreshBMTNoTraffic the node is never refetched, so the attack — which
// leaves data and counters intact — is vacuously survived.
func (e *Engine) CorruptBMTNode(local geom.Addr) {
	if !e.cfg.HasDRAMTree() {
		return // no tree in memory to attack
	}
	u := e.ctr.unitOf(e.sectorIdx(geom.SectorAddr(local)))
	ref, ok := e.ctr.tree.LeafForUnit(u)
	if !ok {
		return // bare-root tree: the whole chain is on-chip
	}
	na := e.ctr.treeBase + e.ctr.tree.NodeAddr(ref)
	e.bmtTampered[na] = true
	e.ctr.treeCache.Invalidate(na)
	// The walk only happens on a counter-unit miss; evict the unit so
	// the next access re-verifies through the corrupted node.
	e.ctr.cache.Invalidate(e.ctr.unitAddr(u))
	e.st.Sec.TamperInjected++
}

// DataTainted reports whether sector local's DRAM data currently holds
// attacker-mutated content (oracle ground truth).
func (e *Engine) DataTainted(local geom.Addr) bool {
	return e.taintData.Get(e.sectorIdx(geom.SectorAddr(local)))
}
