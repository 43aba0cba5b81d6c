package secmem

import (
	"fmt"

	"github.com/plutus-gpu/plutus/internal/cache"
	"github.com/plutus-gpu/plutus/internal/counters"
	"github.com/plutus-gpu/plutus/internal/geom"
	"github.com/plutus-gpu/plutus/internal/stats"
)

// join is a completion barrier: run fires then once every registered arm
// has completed. Arms may be added only before Seal.
type join struct {
	n      int
	sealed bool
	then   func()
}

func (j *join) arm() func() {
	j.n++
	return j.done
}

func (j *join) done() {
	j.n--
	if j.n == 0 && j.sealed {
		j.then()
	}
}

// seal marks arm registration complete; if everything already finished,
// the continuation runs immediately.
func (j *join) seal() {
	j.sealed = true
	if j.n == 0 {
		j.then()
	}
}

// ReadResult reports a completed secure read.
type ReadResult struct {
	// Data is the decrypted sector plaintext.
	Data []byte
	// OK is false when integrity or freshness verification failed.
	OK bool
	// ValueVerified is true when the sector was authenticated by the
	// value cache alone.
	ValueVerified bool
}

// Pending returns the number of in-flight requests (for drain loops).
func (e *Engine) Pending() int { return e.pending }

// Read performs a secure read of the 32 B sector at partition-local
// address local, invoking done with the plaintext when all security
// checks complete.
func (e *Engine) Read(local geom.Addr, done func(ReadResult)) {
	local = geom.SectorAddr(local)
	e.pending++
	finish := func(r ReadResult) {
		e.pending--
		if done != nil {
			done(r)
		}
	}

	switch e.cfg.Check {
	case CheckNone:
		e.ch.Access(local, false, stats.Data, func() {
			// No verification exists: a read of attacker-mutated data
			// succeeds and returns the corruption — the baseline's
			// defining failure.
			if e.taintData.Get(e.sectorIdx(local)) {
				e.st.Sec.TaintedReads++
				e.st.Sec.Verdicts.Record(stats.VerdictSilentCorruption)
			}
			finish(ReadResult{Data: e.plaintextOf(local), OK: true})
		})
		return
	case CheckShares:
		e.ssmRead(local, finish)
		return
	}

	freshOK := true
	j := &join{}
	j.then = func() {
		// Data and counters have arrived; decrypt, then verify.
		e.eng.Schedule(e.cfg.AESLatency, func() {
			e.completeRead(local, freshOK, finish)
		})
	}
	// Demand data fetch.
	e.ch.Access(local, false, stats.Data, j.arm())
	// Counter acquisition (may be free, cached, or multiple fetches).
	e.acquireCounter(local, j, &freshOK)
	j.seal()
}

// completeRead runs the post-decrypt verification stage.
func (e *Engine) completeRead(local geom.Addr, freshOK bool, finish func(ReadResult)) {
	i := e.sectorIdx(local)
	pt := e.plaintextOf(local)
	tainted := e.taintData.Get(i)
	if tainted {
		e.st.Sec.TaintedReads++
	}

	if !freshOK {
		// Counter/tree verification already failed: replay detected.
		e.st.Sec.ReplayDetected++
		e.st.Sec.Verdicts.Record(stats.VerdictDetectedByBMT)
		finish(ReadResult{Data: pt, OK: false})
		return
	}

	if e.vcache != nil {
		res := e.vcache.VerifySector(pt)
		if res.Verified {
			e.st.Sec.ValueVerified++
			if tainted {
				// Mutated ciphertext decrypted to words that still
				// cleared the match threshold: a false accept, the event
				// the paper's Eq. 1 bounds.
				e.st.Sec.Verdicts.Record(stats.VerdictAcceptedByValueCache)
			}
			e.vcache.ObserveSector(pt)
			finish(ReadResult{Data: pt, OK: true, ValueVerified: true})
			return
		}
	}

	// Fall back to conventional MAC verification. The verification
	// outcome is determined by the sector's state as of decrypt time (a
	// concurrent writeback committing while the MAC block is in flight
	// must not affect this read's result), so snapshot it now; the fetch
	// and MAC-engine latency that follow are purely timing.
	stale := e.macStale.Get(i)
	mismatch := !stale && e.currentMAC(local) != e.macs.Get(i)
	e.fetchMeta(e.macCache, e.macAddrOf(i), e.macCache.MaskFor(e.macAddrOf(i)), stats.MAC, func() {
		e.eng.Schedule(e.cfg.MACLatency, func() {
			e.st.Sec.MACVerified++
			ok := !stale && !mismatch
			if !ok {
				// A stale MAC fails too: a write-guarantee sector should
				// always value-verify, so reaching the MAC path with one
				// means either the guarantee logic is unsound or an
				// attacker interfered.
				e.st.Sec.TamperDetected++
				e.st.Sec.Verdicts.Record(stats.VerdictDetectedByMAC)
			} else if tainted {
				// Tainted data sailed through MAC comparison — the
				// failure an integrity-enabled scheme must never produce
				// (the differential oracle asserts this stays zero).
				e.st.Sec.Verdicts.Record(stats.VerdictSilentCorruption)
			}
			if e.vcache != nil {
				e.vcache.ObserveSector(pt)
			}
			finish(ReadResult{Data: pt, OK: ok})
		})
	})
}

// Writeback performs a secure write of a dirty 32 B sector (an L2
// eviction). done (nullable) fires when the data transaction completes.
func (e *Engine) Writeback(local geom.Addr, data []byte, done func()) {
	local = geom.SectorAddr(local)
	if len(data) != geom.SectorSize {
		panic(fmt.Sprintf("secmem: writeback of %d bytes", len(data)))
	}
	e.pending++
	finish := func() {
		e.pending--
		if done != nil {
			done()
		}
	}

	if e.cfg.Check == CheckNone {
		copy(e.mem.Put(e.sectorIdx(local)), data)
		e.taintData.Clear(e.sectorIdx(local)) // overwritten: corruption gone
		e.ch.Access(local, true, stats.Data, func() { finish() })
		return
	}
	pt := make([]byte, geom.SectorSize)
	copy(pt, data)
	if e.cfg.Check == CheckShares {
		e.ssmWrite(local, pt, finish)
		return
	}

	// The first write to a region ends its common-counter (all-zero) era.
	if e.cfg.Versions == VersionsCommon {
		e.regionWritten.Set(e.regionOf(local))
	}

	freshOK := true
	j := &join{}
	j.then = func() {
		if !freshOK {
			// The counter fetched for this write failed freshness
			// verification. The controller raises the alarm; the write
			// itself still commits, rewriting the unit with fresh state
			// (see dirtyCounter), as real hardware would after
			// flagging the violation.
			e.st.Sec.ReplayDetected++
			e.st.Sec.Verdicts.Record(stats.VerdictDetectedByBMT)
		}
		e.commitWrite(local, pt, finish)
	}
	// The counter must be on-chip (and verified) before it is bumped.
	e.acquireCounter(local, j, &freshOK)
	j.seal()
}

// commitWrite runs once the counter is available: bump it, update trees
// and MAC, encrypt and write the data.
func (e *Engine) commitWrite(local geom.Addr, pt []byte, finish func()) {
	i := e.sectorIdx(local)

	derived := e.derived.has(i)
	if derived {
		e.derived.bump(i)
	} else {
		e.bumpCounter(local)
	}
	e.storeCiphertext(local, pt)
	// The sector's DRAM copy (and MAC, below) is rewritten wholesale:
	// any earlier mutation of it is gone.
	e.taintData.Clear(i)
	e.taintMeta.Clear(i)

	switch {
	case derived:
		// A derived sector has no stored counter to dirty and no tree
		// unit to refresh — that absence is the scheme's entire saving.
	case e.compact == nil:
		e.dirtyCounter(&e.ctr, i)
	default:
		// While a write is absorbed by the compact layer, the original
		// counters and main BMT stay untouched in memory — that is the
		// whole bandwidth saving. The original copy is written only when
		// a counter saturates (propagation), when the block is disabled,
		// or once the sector runs on original counters.
		out, justDisabled := e.compact.NoteWrite(i)
		sat := e.compact.Saturation()
		justSaturated := e.split.Minor(i) == sat && e.split.Major(e.split.GroupOf(i)) == 0
		if out == counters.ServedCompact || justSaturated {
			// The compact value changed: dirty the compact sector and
			// update the small tree.
			e.dirtyCounter(&e.cctr, i)
		}
		if out != counters.ServedCompact {
			// Saturated or disabled: this write lives in the originals.
			e.dirtyCounter(&e.ctr, i)
		}
		if justDisabled {
			// One-time copy of the block's surviving compact counters to
			// the original store: two original counter sectors written
			// (paper §IV-D; 2× compaction), and the main tree now covers
			// the propagated values.
			ua := e.ctr.unitAddr(e.ctr.unitOf(i))
			e.ch.Access(ua, true, stats.Counter, nil)
			e.ch.Access(ua+geom.SectorSize, true, stats.Counter, nil)
			e.refreshDisabledBlockHashes(i)
		}
	}

	// Value bookkeeping and the deferred-MAC decision.
	skipMAC := false
	if e.vcache != nil {
		e.vcache.ObserveSector(pt)
		skipMAC = e.vcache.WriteGuaranteed(pt)
	}
	if skipMAC {
		e.st.Sec.MACSkippedWrites++
		e.macStale.Set(i)
	} else {
		e.st.Sec.MACWrites++
		e.setMAC(i, e.currentMAC(local))
		e.macStale.Clear(i)
		ma := e.macAddrOf(i)
		e.handleEvictions(e.macCache.Insert(ma, e.macCache.MaskFor(ma), true), stats.MAC)
	}

	// Encrypt latency then the data write transaction.
	e.eng.Schedule(e.cfg.AESLatency, func() {
		e.ch.Access(local, true, stats.Data, func() { finish() })
	})
}

// refreshDisabledBlockHashes re-hashes every main-tree unit covering a
// just-disabled compact block: the disable event propagated the block's
// surviving compact counters to the original copy.
func (e *Engine) refreshDisabledBlockHashes(i uint64) {
	per := uint64(e.cfg.Compact.CountersPerSector())
	blockSectors := 4 * per // one compact block covers 4 compact sectors
	start := i / blockSectors * blockSectors
	seen := map[uint64]bool{}
	for s := start; s < start+blockSectors && s < e.lay.dataSectors; s += uint64(e.split.Config().GroupSize) {
		u := e.ctr.unitOf(s)
		if !seen[u] {
			seen[u] = true
			e.ctr.replayed.Clear(u) // propagation rewrites the unit
			e.ctr.tree.SetUnitHash(u, e.ctr.unitHash(u))
		}
	}
}

// bumpCounter increments sector local's counter, capturing group
// plaintexts first so a minor overflow can re-encrypt them.
func (e *Engine) bumpCounter(local geom.Addr) {
	i := e.sectorIdx(local)
	willOverflow := e.split.Minor(i) == uint32(1)<<uint(e.split.Config().MinorBits)-1
	if willOverflow {
		clear(e.overflowPlain)
		g := e.split.GroupOf(i)
		base := g * uint64(e.split.Config().GroupSize)
		for k := 0; k < e.split.Config().GroupSize; k++ {
			if e.derived.has(base + uint64(k)) {
				// Derived group-mates don't ride the split counters: the
				// major bump doesn't change their effective version, so
				// they must not be re-encrypted.
				continue
			}
			sa := geom.Addr((base + uint64(k)) * geom.SectorSize)
			if _, ok := e.mem.Lookup(base + uint64(k)); ok {
				e.overflowPlain[sa] = e.plaintextOf(sa)
			}
		}
	}
	e.split.Increment(i)
}

// --- counter acquisition ---

// acquireCounter arranges for sector local's encryption counter to be
// on-chip and verified, joining all resulting memory activity onto j.
// freshOK is cleared if counter verification fails (replay detection).
func (e *Engine) acquireCounter(local geom.Addr, j *join, freshOK *bool) {
	i := e.sectorIdx(local)

	// mgx fast path: a derived sector's version is regenerated on-chip
	// from the stream cursor — no counter fetch, no tree walk, nothing
	// to verify. Irregular sectors fall through to the stored path.
	if e.derived != nil {
		if e.classifyDerived(i, local) {
			e.st.Sec.DerivedVersions++
			return
		}
		e.st.Sec.DerivedFallbacks++
	}

	// Common-counters fast path: a never-written region has all-zero
	// counters known on-chip; no counter or tree traffic at all.
	if e.cfg.Versions == VersionsCommon && !e.regionWritten.Get(e.regionOf(local)) {
		return
	}

	if e.compact != nil {
		switch e.compact.Classify(i) {
		case counters.ServedCompact:
			e.st.Sec.CompactHits++
			e.fetchUnit(&e.cctr, i, j, freshOK)
			return
		case counters.ServedOverflowed:
			e.st.Sec.CompactOverflow++
			// Serial: discover saturation in the compact layer, then go
			// to the original counters (the paper's double access).
			inner := j.arm()
			cj := &join{}
			cj.then = func() {
				oj := &join{then: inner}
				e.fetchUnit(&e.ctr, i, oj, freshOK)
				oj.seal()
			}
			e.fetchUnit(&e.cctr, i, cj, freshOK)
			cj.seal()
			return
		default: // counters.ServedDisabled
			e.st.Sec.CompactDisabled++
		}
	}
	e.fetchUnit(&e.ctr, i, j, freshOK)
}

// fetchMask is the sector mask of one fetch of a size-byte metadata
// item at addr through mc: the whole block for 128 B items, a single
// 32 B sector otherwise.
func fetchMask(mc *cache.Cache, addr geom.Addr, size int) geom.SectorMask {
	if size == geom.BlockSize {
		return geom.AllSectors
	}
	return mc.MaskFor(addr)
}

// fetchMeta fetches (addr, mask) through mc and runs done when the
// requested sectors are present.
func (e *Engine) fetchMeta(mc *cache.Cache, addr geom.Addr, mask geom.SectorMask, cl stats.Class, done func()) {
	out, need, m := mc.Lookup(addr, mask, false, nil)
	switch out {
	case cache.Hit:
		e.eng.Schedule(0, done)
	case cache.MissMerged:
		m.AddWaiter(done)
	case cache.Miss:
		m.AddWaiter(done)
		e.issueMetaFill(mc, m, addr, need, cl)
	case cache.MissNoMSHR:
		// Park until some fill frees an MSHR (models MSHR-full stall
		// without polling).
		e.mshrWait.Push(func() { e.fetchMeta(mc, addr, mask, cl, done) })
	}
}

// issueMetaFill issues DRAM reads for the needed sectors, filling the
// cache as each lands; waiters resume when the MSHR completes.
func (e *Engine) issueMetaFill(mc *cache.Cache, m *cache.MSHR, addr geom.Addr, need geom.SectorMask, cl stats.Class) {
	block := addr &^ geom.Addr(geom.BlockSize-1)
	need.Sectors(func(s int) {
		sa := block + geom.Addr(s*geom.SectorSize)
		smask := geom.SectorMask(1 << s)
		e.ch.Access(sa, false, cl, func() {
			evs, done, waiters := mc.FillSectors(m, smask, false)
			e.handleEvictions(evs, cl)
			if done {
				for _, w := range waiters {
					w()
				}
				e.releaseMSHRWaiters()
			}
		})
	})
}

// handleEvictions writes back dirty sectors of evicted metadata blocks
// of traffic class cl and, for a counter region's counter or tree blocks
// under lazy update, propagates the update to the parent tree node.
func (e *Engine) handleEvictions(evs []cache.Eviction, cl stats.Class) {
	for _, ev := range evs {
		if ev.Dirty == 0 {
			continue
		}
		ev.Dirty.Sectors(func(s int) {
			e.ch.Access(ev.Addr+geom.Addr(s*geom.SectorSize), true, cl, nil)
		})
		for _, r := range [...]*counterRegion{&e.ctr, &e.cctr} {
			switch {
			case r.tree == nil: // absent compact region
			case cl == r.ctrClass:
				e.propagateDirty(r, r.unitOfAddr(ev.Addr))
			case cl == r.treeClass:
				e.propagateNodeDirty(r, ev.Addr)
			}
		}
	}
}

// markNodeDirty dirties one tree-node sector in its cache. An absent
// sector is fetched through the cache first (read-modify-write), so
// concurrent propagations to the same node merge in the MSHRs instead of
// each paying a DRAM read.
func (e *Engine) markNodeDirty(mc *cache.Cache, na geom.Addr, cl stats.Class) {
	mask := mc.MaskFor(na)
	if mc.MarkDirty(na, mask) {
		return
	}
	e.fetchMeta(mc, na, mask, cl, func() {
		if !mc.MarkDirty(na, mask) {
			// Filled and already evicted again (cache thrash): charge the
			// update write directly rather than loop.
			e.ch.Access(geom.SectorAddr(na), true, cl, nil)
		}
	})
}

// FlushDirtyMetadata writes back all dirty metadata (end-of-run
// accounting so lazy updates are not silently dropped).
func (e *Engine) FlushDirtyMetadata() {
	for _, f := range [...]struct {
		mc *cache.Cache
		cl stats.Class
	}{
		{e.ctr.cache, stats.Counter}, {e.macCache, stats.MAC}, {e.ctr.treeCache, stats.BMT},
		{e.cctr.cache, stats.CompactCounter}, {e.cctr.treeCache, stats.CompactBMT},
	} {
		if f.mc == nil {
			continue
		}
		f.mc.WalkDirty(func(b geom.Addr, d geom.SectorMask) {
			d.Sectors(func(s int) {
				e.ch.Access(b+geom.Addr(s*geom.SectorSize), true, f.cl, nil)
			})
			f.mc.CleanSectors(b, d)
		})
	}
}
